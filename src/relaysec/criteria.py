"""Relay-selection criteria for the two-hop wiretap network.

Six selection rules are provided:

* ``channel-gain``: greedy two-pass selection on channel-gain traces.
* ``max-ratio``: single-antenna legitimate-to-eavesdropper gain ratios.
* ``sinr``: exhaustive search on per-stream signal-to-interference-plus-noise
  ratios of both hops (needs precoders and interference knowledge).
* ``sr``: exhaustive search on the two-hop secrecy score with full knowledge
  of the eavesdropper channels.
* ``s-sinr``: reduced SINR rule using only channel column norms.
* ``s-sr``: reduced secrecy rule whose eavesdropper term is computed from the
  precoders alone; eavesdropper channels are never read on this path.

Exhaustive rules score every T-combination of the relay pool. Each candidate
is scored under its own pair of zero-forcing precoders (source side for
phase 1, coordinated relay side for phase 2); :class:`CandidateSet` caches
the per-candidate channels, precoders and rate terms so several criteria can
share them on one realization (paired comparisons). Ties break toward the
candidate that enumerates first (lexicographic order).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import (
    ChannelRealization,
    Precoder,
    SystemConfig,
    hermitize,
    zf_core_batch,
    zf_precoder,
)

_LN2 = math.log(2.0)
GRAM_CONDITION_LIMIT = 1e12
RIDGE_SCALE = 1e-10


class NotSingleAntennaError(ValueError):
    """max-ratio selection is defined only for single-antenna nodes."""


class SingularGramError(RuntimeError):
    """A sandwiched covariance was numerically singular."""


class SingularInterferenceError(RuntimeError):
    """Interference covariance stayed singular even after ridge loading."""


class NoViableCandidateError(RuntimeError):
    """Every candidate combination was numerically unusable."""


class CriterionKind(Enum):
    CHANNEL_GAIN = "channel-gain"
    MAX_RATIO = "max-ratio"
    SINR = "sinr"
    SECRECY_RATE = "sr"
    S_SINR = "s-sinr"
    S_SR = "s-sr"

    @classmethod
    def from_name(cls, name: str) -> "CriterionKind":
        for kind in cls:
            if kind.value == name:
                return kind
        names = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown criterion {name!r}; expected one of: {names}")


CRITERION_NAMES = tuple(kind.value for kind in CriterionKind)

# Exhaustive rules share the candidate machinery; the other two are greedy.
EXHAUSTIVE_KINDS = (
    CriterionKind.SINR,
    CriterionKind.SECRECY_RATE,
    CriterionKind.S_SINR,
    CriterionKind.S_SR,
)


@dataclass(frozen=True)
class CriterionScore:
    """Hop metrics of the winning combination and their combined value."""

    eta1: float
    eta2: float
    combined: float


def combine_metrics(eta1, eta2, rule: str = "min"):
    """Scalarize the two hop metrics. ``min`` treats the weaker hop as the
    bottleneck; ``sum`` accumulates both."""
    if rule == "min":
        return np.minimum(eta1, eta2)
    if rule == "sum":
        return np.asarray(eta1) + np.asarray(eta2)
    raise ValueError(f"unknown combine rule {rule!r}; expected 'min' or 'sum'")


def enumerate_combinations(pool_size: int, selected: int) -> list:
    """All ``C(pool_size, selected)`` relay subsets in lexicographic order."""
    if selected > pool_size:
        raise ValueError(
            f"cannot select {selected} relays from a pool of {pool_size}"
        )
    return list(itertools.combinations(range(pool_size), selected))


# ---------------------------------------------------------------------------
# candidate cache
# ---------------------------------------------------------------------------


def split_covariances(matrices: np.ndarray, num_users: int, user_antennas: int) -> tuple:
    """Per-user desired and interference covariances of precoder batches.

    ``matrices`` is ``(..., N_t, N_t)`` with user ``u``'s columns at
    ``u * user_antennas``. Returns Hermitian ``(rd, ri)`` of shape
    ``(..., M, N_t, N_t)``: ``rd[..., u] = U_u U_u^H`` and ``ri[..., u]`` the
    sum of the other users' terms. Both are noise-free.
    """
    blocks = matrices.reshape(*matrices.shape[:-1], num_users, user_antennas).swapaxes(-2, -3)
    rd = hermitize(blocks @ blocks.conj().swapaxes(-1, -2))
    # The sum of the other users' terms, not the total minus the own term:
    # at high SNR the noise is far below the rounding error of that difference.
    others = 1.0 - np.eye(num_users)
    ri = (others @ rd.reshape(*rd.shape[:-2], -1)).reshape(rd.shape)
    return rd, ri


@dataclass
class CandidateSet:
    """Per-candidate channels and precoders of one realization, plus the
    noise-free terms every SNR point shares.

    ``hop1[c]`` stacks the members' source->relay blocks (square, N_t x N_t);
    ``hop2[c, u]`` concatenates the members' relay->user blocks for user
    ``u``. ``precoders[c]`` / ``relay_precoders[c]`` hold the candidate's
    scaled ZF matrices for the two hops; candidates where either hop's
    channel was singular have ``valid[c]`` False and identity placeholders so
    batched linear algebra stays finite.

    Receiver noise ``s I`` enters every criterion only as an additive shift
    of a noise-free form, so one set serves every SNR point of a trial: the
    covariance splits and the grams below are filled lazily, once, and a
    selection at one noise level adds ``s`` and takes one batched log-det or
    division. ``config`` supplies dimensions and signal power only; the
    noise level comes from the config passed to each selection.
    """

    config: SystemConfig
    combinations: list
    hop1: np.ndarray
    hop2: np.ndarray
    precoders: np.ndarray
    cores: np.ndarray
    relay_precoders: np.ndarray
    relay_cores: np.ndarray
    valid: np.ndarray
    residuals: np.ndarray
    _index: dict = field(default_factory=dict, repr=False)
    _cov1: tuple | None = field(default=None, repr=False)
    _legit: tuple | None = field(default=None, repr=False)
    _eve: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self._index = {combo: pos for pos, combo in enumerate(self.combinations)}

    def position(self, combination) -> int:
        return self._index[tuple(combination)]

    def precoder_for(self, combination) -> Precoder | None:
        """Source-side precoder of one candidate; None if it was singular."""
        pos = self.position(combination)
        if not self.valid[pos]:
            return None
        return Precoder(
            matrix=self.precoders[pos],
            core=self.cores[pos],
            signal_power=self.config.signal_power,
            user_antennas=self.config.user_antennas,
        )

    def relay_precoder_for(self, combination) -> Precoder | None:
        """Coordinated relay-side precoder of one candidate."""
        pos = self.position(combination)
        if not self.valid[pos]:
            return None
        return Precoder(
            matrix=self.relay_precoders[pos],
            core=self.relay_cores[pos],
            signal_power=self.config.signal_power,
            user_antennas=self.config.user_antennas,
        )

    def user_covariances(self) -> tuple:
        """Phase-1 ``(rd, ri)`` with shape ``(C, M, N_t, N_t)``, noise-free."""
        if self._cov1 is None:
            self._cov1 = split_covariances(self.precoders, self.config.num_users,
                                           self.config.user_antennas)
        return self._cov1

    def legit_grams(self) -> tuple:
        """``(H_u R_d H_u^H, H_u R_I H_u^H)`` per hop, candidate and user.

        Shape ``(2, C, M, N_r, N_r)``, source hop first. Their diagonals are
        the per-stream SINR numerators and denominators.
        """
        if self._legit is None:
            # Only these grams read the relay-side split, so it is not kept.
            relay_split = split_covariances(self.relay_precoders, self.config.num_users,
                                            self.config.user_antennas)
            pairs = []
            for rows, (rd, ri) in ((self.hop1.reshape(self.hop2.shape), self.user_covariances()),
                                   (self.hop2, relay_split)):
                rows_h = rows.conj().swapaxes(-1, -2)
                pairs.append((rows @ rd @ rows_h, rows @ ri @ rows_h))
            self._legit = tuple(np.stack(grams) for grams in zip(*pairs))
        return self._legit

    def eve_grams(self, eve_stack: np.ndarray) -> tuple:
        """``(E R_d E^H, E R_I E^H, E E^H)`` of the phase-1 covariances.

        ``E`` is the stacked eavesdropper channel; the first two have shape
        ``(C, M, K N_e, K N_e)``. Noise inside the sandwich is then
        ``E (R_I + s I) E^H = E R_I E^H + s E E^H``.
        """
        if self._eve is None:
            rd, ri = self.user_covariances()
            eve_h = eve_stack.conj().T
            self._eve = (eve_stack @ rd @ eve_h, eve_stack @ ri @ eve_h, eve_stack @ eve_h)
        return self._eve


def prepare_candidates(realization: ChannelRealization, config: SystemConfig,
                       combinations=None) -> CandidateSet:
    """Stack channels and build both ZF precoders for every candidate."""
    if combinations is None:
        combinations = enumerate_combinations(config.pool_size, config.selected_relays)
    combinations = [tuple(c) for c in combinations]
    pool = sorted(realization.source_to_relay)
    pos = {relay: p for p, relay in enumerate(pool)}
    src = np.stack([realization.source_to_relay[i] for i in pool])
    r2u = np.stack(
        [[realization.relay_to_user[(i, r)] for r in range(config.num_users)] for i in pool]
    )
    idx = np.array([[pos[i] for i in combo] for combo in combinations])
    n_t = config.transmit_antennas
    c = len(combinations)
    hop1 = src[idx].reshape(c, n_t, n_t)
    # (C, T, M, N_r, N_i) -> (C, M, N_r, T, N_i) -> concatenate member blocks
    hop2 = r2u[idx].transpose(0, 2, 3, 1, 4).reshape(
        c, config.num_users, config.user_antennas, n_t
    )
    matrix1, core1, valid1, residuals = zf_core_batch(hop1, config.signal_power)
    # All users' antennas stacked give a square phase-2 channel as well.
    hop2_all = hop2.reshape(c, n_t, n_t)
    matrix2, core2, valid2, _ = zf_core_batch(hop2_all, config.signal_power)
    valid = valid1 & valid2
    eye = np.eye(n_t, dtype=complex)
    matrix1 = np.where(valid[:, None, None], matrix1, eye)
    core1 = np.where(valid[:, None, None], core1, eye)
    matrix2 = np.where(valid[:, None, None], matrix2, eye)
    core2 = np.where(valid[:, None, None], core2, eye)
    return CandidateSet(
        config=config,
        combinations=combinations,
        hop1=hop1,
        hop2=hop2,
        precoders=matrix1,
        cores=core1,
        relay_precoders=matrix2,
        relay_cores=core2,
        valid=valid,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# rate kernels
# ---------------------------------------------------------------------------


def _logdet(matrices: np.ndarray) -> tuple:
    """``(regular, log|det|)`` over a batch of square matrices."""
    if matrices.shape[-1] == 1:
        # A 1x1 determinant is the entry itself; this skips LAPACK's
        # per-matrix overhead, which dominates for single-antenna nodes.
        absdet = np.abs(matrices[..., 0, 0])
        with np.errstate(divide="ignore"):
            return absdet > 0, np.log(absdet)
    sign, logdet = np.linalg.slogdet(matrices)
    return np.abs(sign) > 0.5, logdet


def _rate_bits(gram_num: np.ndarray, gram_den: np.ndarray) -> np.ndarray:
    """``log2 det(I + gram_den^{-1} gram_num)`` over batches of PSD grams.

    A singular denominator yields 0 when the numerator is also negligible
    (dead link) and +inf otherwise (unbounded ratio).
    """
    ok_t, logdet_t = _logdet(gram_den + gram_num)
    ok_d, logdet_d = _logdet(gram_den)
    ok = ok_t & ok_d
    if ok.all():
        return (logdet_t - logdet_d) / _LN2
    out = np.zeros(np.shape(ok))
    np.subtract(logdet_t, logdet_d, out=out, where=ok)
    out /= _LN2
    num_scale = np.max(np.abs(gram_num), axis=(-2, -1))
    den_scale = np.max(np.abs(gram_den), axis=(-2, -1))
    dead = ~ok & (num_scale <= 1e-14 * (1.0 + den_scale))
    out = np.where(~ok & ~dead, np.inf, out)
    return out


def secrecy_gamma(channel: np.ndarray, cov_num: np.ndarray, cov_den: np.ndarray,
                  noise_power: float = 0.0) -> np.ndarray:
    """Generalized SINR matrix ``(H R_den H^H + s I)^{-1} (H R_num H^H)``.

    ``noise_power`` adds receiver noise outside the sandwich (set 0 for the
    criterion-side form where noise already sits inside ``cov_den``).
    """
    channel = np.asarray(channel)
    gram_den = channel @ cov_den @ channel.conj().T
    if noise_power:
        gram_den = gram_den + noise_power * np.eye(channel.shape[0])
    cond = np.linalg.cond(gram_den)
    if not np.isfinite(cond) or cond >= GRAM_CONDITION_LIMIT:
        raise SingularGramError(
            f"sandwiched covariance is numerically singular (cond {cond:.3e})"
        )
    gram_num = channel @ cov_num @ channel.conj().T
    return np.linalg.solve(gram_den, gram_num)


def gamma_rate_bits(channel, cov_num, cov_den, noise_power: float = 0.0) -> float:
    """``log2 det(I + gamma)`` for one destination, via the stable det ratio."""
    channel = np.asarray(channel)
    gram_den = channel @ cov_den @ channel.conj().T
    if noise_power:
        gram_den = gram_den + noise_power * np.eye(channel.shape[0])
    gram_num = channel @ cov_num @ channel.conj().T
    return float(_rate_bits(gram_num[None], gram_den[None])[0])


def ssr_eve_term(precoder: Precoder, own_user: int, interference: np.ndarray,
                 symbol_covariance: np.ndarray | None = None) -> float:
    """Eavesdropper-side log-det term computed without eavesdropper channels.

    ``log2 det(I + U_u^H R^{-1} U_u S)`` where ``R`` is the interference
    covariance seen by the eavesdroppers (plus noise, when the caller keeps
    it) and ``S`` the symbol covariance (identity for unit-power streams).
    Nearly singular ``R`` gets a trace-scaled ridge before giving up.
    """
    r = np.asarray(interference)
    n_t = r.shape[0]
    cond = np.linalg.cond(r)
    if not np.isfinite(cond) or cond >= GRAM_CONDITION_LIMIT:
        ridge = RIDGE_SCALE * np.real(np.trace(r)) / n_t
        r = r + ridge * np.eye(n_t)
        cond = np.linalg.cond(r)
        if ridge <= 0 or not np.isfinite(cond) or cond >= GRAM_CONDITION_LIMIT:
            raise SingularInterferenceError(
                "interference covariance is singular and ridge loading failed; "
                "include the noise term or pass a better-conditioned covariance"
            )
    u_u = precoder.user_block(own_user)
    inner = u_u.conj().T @ np.linalg.solve(r, u_u)
    if symbol_covariance is not None:
        inner = inner @ symbol_covariance
    sign, logdet = np.linalg.slogdet(np.eye(inner.shape[0]) + inner)
    if np.abs(sign) < 0.5:
        raise SingularInterferenceError("eavesdropper-side determinant vanished")
    return float(logdet / _LN2)


# ---------------------------------------------------------------------------
# per-candidate stream metrics (operation surface)
# ---------------------------------------------------------------------------


def sinr_relay_metric(realization: ChannelRealization, precoder: Precoder,
                      combination, config: SystemConfig,
                      aggregate: str = "min") -> float:
    """First-hop SINR metric of one candidate combination.

    Per relay antenna ``l`` the SINR is ``(h^H R_d h) / (h^H R_I h + s_n^2)``
    with ``h`` the antenna's channel row and the covariances taken for the
    user whose stream the antenna carries. Antenna values are averaged per
    relay; ``aggregate`` reduces over the members (``min`` scores the
    bottleneck relay, ``max`` the literal best member).
    """
    h = realization.stacked_source_channel(combination)
    noise = config.noise_power
    total = precoder.matrix @ precoder.matrix.conj().T
    rd = [None] * config.num_users
    per_stream = np.empty(h.shape[0])
    for stream in range(h.shape[0]):
        user = config.stream_user(stream)
        if rd[user] is None:
            u_u = precoder.user_block(user)
            rd[user] = u_u @ u_u.conj().T
        row = h[stream]
        num = float(np.real(row @ rd[user] @ row.conj()))
        den = float(np.real(row @ (total - rd[user]) @ row.conj())) + noise
        if den <= 0:
            warnings.warn("zero SINR denominator: noiseless stream with no "
                          "interference projection", RuntimeWarning)
            per_stream[stream] = np.inf
        else:
            per_stream[stream] = num / den
    per_relay = per_stream.reshape(len(combination), config.relay_antennas).mean(axis=1)
    return float(per_relay.min() if aggregate == "min" else per_relay.max())


def sinr_user_metric(realization: ChannelRealization, combination, config: SystemConfig,
                     relay_output_covariance: np.ndarray | None = None,
                     aggregate: str = "min") -> float:
    """Second-hop SINR metric of one candidate combination.

    By default the selected relays re-transmit through their coordinated
    zero-forcing precoder, so the per-user covariances mirror the first hop.
    Passing ``relay_output_covariance`` replaces the numerator covariance
    with an explicit relay output covariance (the interference model stays).
    """
    noise = config.noise_power
    stacked = realization.all_users_channel(combination, config.num_users)
    v = zf_precoder(stacked, config.signal_power, config.user_antennas)
    total = v.matrix @ v.matrix.conj().T
    per_user = np.empty(config.num_users)
    n_r = config.user_antennas
    for user in range(config.num_users):
        h2 = stacked[user * n_r:(user + 1) * n_r, :]
        v_u = v.user_block(user)
        own = v_u @ v_u.conj().T
        ratios = np.empty(n_r)
        for n in range(n_r):
            row = h2[n]
            if relay_output_covariance is None:
                num = float(np.real(row @ own @ row.conj()))
            else:
                num = float(np.real(row @ relay_output_covariance @ row.conj()))
            den = float(np.real(row @ (total - own) @ row.conj())) + noise
            if den <= 0:
                warnings.warn("zero SINR denominator on the second hop", RuntimeWarning)
                ratios[n] = np.inf
            else:
                ratios[n] = num / den
        per_user[user] = ratios.mean()
    return float(per_user.min() if aggregate == "min" else per_user.max())


def ssinr_metric(channel_block: np.ndarray) -> float:
    """Weakest-stream squared gain: min over columns of the column norm^2.

    Needs only the channel block itself; no interference covariance and no
    eavesdropper information.
    """
    block = np.asarray(channel_block)
    return float(np.min(np.sum(np.abs(block) ** 2, axis=0)))


# ---------------------------------------------------------------------------
# batched exhaustive scorers
# ---------------------------------------------------------------------------


def _score_sinr(cs: CandidateSet, config: SystemConfig, combine: str,
                aggregate: str = "min"):
    num, den = cs.legit_grams()
    num = np.real(np.diagonal(num, axis1=-2, axis2=-1))
    den = np.real(np.diagonal(den, axis1=-2, axis2=-1)) + config.noise_power
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(den > 0, num / den, np.inf)
    c = len(cs.combinations)
    per_relay = sinr[0].reshape(c, config.selected_relays, config.relay_antennas).mean(axis=2)
    per_user = sinr[1].mean(axis=2)
    reduce = np.min if aggregate == "min" else np.max
    eta1 = reduce(per_relay, axis=1)
    eta2 = reduce(per_user, axis=1)
    combined = combine_metrics(eta1, eta2, combine)
    combined = np.where(cs.valid, combined, -np.inf)
    return eta1, eta2, combined


def _score_ssinr(cs: CandidateSet, config: SystemConfig, combine: str,
                 aggregate: str = "min"):
    # Channel-norm metrics only; precoder validity does not constrain them
    # and the aggregate flag has no effect on a plain min over streams.
    eta1 = np.min(np.sum(np.abs(cs.hop1) ** 2, axis=2), axis=1)
    eta2 = np.min(np.sum(np.abs(cs.hop2) ** 2, axis=3), axis=(1, 2))
    combined = combine_metrics(eta1, eta2, combine)
    return eta1, eta2, combined


def _eve_terms_full(cs: CandidateSet, eve_stack: np.ndarray, noise: float):
    """Eavesdropper log-det terms from the stacked eavesdropper channel."""
    num, den, eve_gram = cs.eve_grams(eve_stack)
    return _rate_bits(num, den + noise * eve_gram)


def _eve_terms_reduced(cs: CandidateSet, config: SystemConfig):
    """Eavesdropper log-det terms from precoders and symbol statistics alone.

    ``log2 det(I + U_u^H (R_I + s I)^{-1} U_u)`` for every candidate and
    user in one solve, with the same trace-scaled ridge as
    :func:`ssr_eve_term` where ``cond(R_I + s I) >= GRAM_CONDITION_LIMIT``.
    A candidate the ridge cannot rescue gets an infinite term.
    """
    _, ri = cs.user_covariances()
    noise = config.noise_power
    n_t, n_r = config.transmit_antennas, config.user_antennas
    eye = np.eye(n_t)
    r_in = ri + noise * eye
    viable = True
    # cond(R_I + s I) <= (tr R_I + s) / s, and tr R_I is at most the total
    # transmit power N_t P of a column-normalized precoder, so the exact
    # check runs only within a factor 100 of the limit by that bound.
    if n_t * config.signal_power + noise >= 1e-2 * GRAM_CONDITION_LIMIT * noise:
        trace = np.real(np.trace(r_in, axis1=-2, axis2=-1))
        cond = np.linalg.cond(r_in)
        singular = ~np.isfinite(cond) | (cond >= GRAM_CONDITION_LIMIT)
        ridge = np.where(singular, RIDGE_SCALE * trace / n_t, 0.0)
        r_in = r_in + ridge[..., None, None] * eye
        cond = np.linalg.cond(r_in)
        failed = singular & ((ridge <= 0) | ~np.isfinite(cond) | (cond >= GRAM_CONDITION_LIMIT))
        r_in[failed] = eye
        viable = ~failed
    blocks = cs.precoders.reshape(len(cs.combinations), n_t, config.num_users, n_r).swapaxes(1, 2)
    inner = blocks.conj().swapaxes(-1, -2) @ np.linalg.solve(r_in, blocks)
    regular, logdet = _logdet(np.eye(n_r) + inner)
    return np.where(viable & regular, logdet / _LN2, np.inf)


def _score_secrecy(cs: CandidateSet, config: SystemConfig, combine: str,
                   eve_terms: np.ndarray):
    """Two-hop secrecy score; the legitimate rates use the same convention as
    the evaluation side (receiver noise added at the destination antennas)."""
    num, den = cs.legit_grams()
    rates = _rate_bits(num, den + config.noise_power * np.eye(config.user_antennas))
    legit = rates.sum(axis=2)
    eve = eve_terms.sum(axis=1)
    eta1 = legit[0] - eve
    eta2 = legit[1] - eve
    combined = combine_metrics(eta1, eta2, combine)
    bad = ~np.isfinite(legit).all(axis=0) | ~cs.valid
    combined = np.where(bad, -np.inf, combined)
    return eta1, eta2, combined


def _score_sr(cs: CandidateSet, realization: ChannelRealization,
              config: SystemConfig, combine: str):
    # Read on every call, so a stripped realization fails even once the
    # eavesdropper grams are cached.
    eve_stack = realization.stacked_eve_channel()
    return _score_secrecy(cs, config, combine,
                          _eve_terms_full(cs, eve_stack, config.noise_power))


def _score_ssr(cs: CandidateSet, config: SystemConfig, combine: str):
    return _score_secrecy(cs, config, combine, _eve_terms_reduced(cs, config))


def score_candidates(kind: CriterionKind, realization: ChannelRealization,
                     config: SystemConfig, candidates: CandidateSet | None = None,
                     combine: str = "min", aggregate: str = "min"):
    """Score every candidate under an exhaustive criterion.

    Returns ``(candidate_set, eta1, eta2, combined)`` arrays aligned with
    ``candidate_set.combinations``. Greedy criteria (channel-gain, max-ratio)
    do not enumerate candidates and are rejected here.
    """
    if kind not in EXHAUSTIVE_KINDS:
        raise ValueError(f"{kind.value} does not score the full candidate list")
    cs = candidates if candidates is not None else prepare_candidates(realization, config)
    if kind is CriterionKind.SINR:
        eta1, eta2, combined = _score_sinr(cs, config, combine, aggregate)
    elif kind is CriterionKind.S_SINR:
        eta1, eta2, combined = _score_ssinr(cs, config, combine, aggregate)
    elif kind is CriterionKind.SECRECY_RATE:
        eta1, eta2, combined = _score_sr(cs, realization, config, combine)
    else:
        eta1, eta2, combined = _score_ssr(cs, config, combine)
    return cs, eta1, eta2, combined


def _pick_best(cs: CandidateSet, eta1, eta2, combined):
    best = int(np.argmax(combined))
    if not np.isfinite(combined[best]):
        raise NoViableCandidateError(
            "all candidate combinations were numerically singular; redraw"
        )
    score = CriterionScore(float(eta1[best]), float(eta2[best]), float(combined[best]))
    return cs.combinations[best], score


# ---------------------------------------------------------------------------
# selection entry points
# ---------------------------------------------------------------------------


def channel_gain_select(realization: ChannelRealization, config: SystemConfig,
                        combine: str = "min"):
    """Greedy two-pass selection on channel-gain traces.

    Pass one picks the ``T`` relays with the largest source-side
    ``trace(H H^H)``, each pickable once. Pass two walks the users and
    scores, among the picked relays still holding a pick token, the best
    relay->user trace. Ties fall to the lowest relay index.
    """
    pool = sorted(realization.source_to_relay)
    theta1 = {
        i: float(np.sum(np.abs(realization.source_to_relay[i]) ** 2)) for i in pool
    }
    order = sorted(pool, key=lambda i: (-theta1[i], i))
    picked = order[:config.selected_relays]
    eta1 = float(sum(theta1[i] for i in picked))
    tokens = {i: 1 for i in picked}
    eta2 = 0.0
    for user in range(config.num_users):
        available = [i for i in picked if tokens[i] != 0]
        if not available:
            break
        theta2 = {
            i: float(np.sum(np.abs(realization.relay_to_user[(i, user)]) ** 2))
            for i in available
        }
        winner = sorted(available, key=lambda i: (-theta2[i], i))[0]
        eta2 += theta2[winner]
        tokens[winner] -= 1
    combo = tuple(sorted(picked))
    combined = float(combine_metrics(eta1, eta2, combine))
    return combo, CriterionScore(eta1, eta2, combined)


def max_ratio_select(realization: ChannelRealization, config: SystemConfig,
                     combine: str = "min"):
    """Legitimate-to-eavesdropper gain-ratio selection (single-antenna only).

    Per relay, the first-hop metric is its source-side gain over the total
    source->eavesdropper gain and the second-hop metric its user-side gain
    over its own relay->eavesdropper gain. The ``T`` relays with the best
    combined ratio are kept. All relays are always eligible (no buffer
    state is tracked).
    """
    if (config.relay_antennas, config.user_antennas, config.eve_antennas) != (1, 1, 1):
        raise NotSingleAntennaError(
            "max-ratio selection requires relay_antennas == user_antennas == "
            "eve_antennas == 1"
        )
    pool = sorted(realization.source_to_relay)
    se_gain = float(sum(np.sum(np.abs(realization.eve_channel(k)) ** 2)
                        for k in range(config.num_eves)))
    m1 = {}
    m2 = {}
    for i in pool:
        gain_src = float(np.sum(np.abs(realization.source_to_relay[i]) ** 2))
        m1[i] = gain_src / se_gain if se_gain > 0 else np.inf
        gain_user = float(sum(np.sum(np.abs(realization.relay_to_user[(i, r)]) ** 2)
                              for r in range(config.num_users)))
        gain_eve = float(sum(np.sum(np.abs(realization.relay_to_eve[(i, k)]) ** 2)
                             for k in range(config.num_eves)))
        m2[i] = gain_user / gain_eve if gain_eve > 0 else np.inf
    scored = sorted(pool, key=lambda i: (-float(combine_metrics(m1[i], m2[i], combine)), i))
    picked = scored[:config.selected_relays]
    eta1 = float(max(m1[i] for i in picked))
    eta2 = float(max(m2[i] for i in picked))
    combo = tuple(sorted(picked))
    combined = float(combine_metrics(eta1, eta2, combine))
    return combo, CriterionScore(eta1, eta2, combined)


def sinr_select(realization: ChannelRealization, config: SystemConfig,
                candidates: CandidateSet | None = None, combine: str = "min",
                aggregate: str = "min"):
    """Exhaustive selection on the two-hop SINR metrics."""
    return _pick_best(*score_candidates(CriterionKind.SINR, realization, config,
                                        candidates, combine, aggregate))


def ssinr_select(realization: ChannelRealization, config: SystemConfig,
                 candidates: CandidateSet | None = None, combine: str = "min"):
    """Exhaustive selection on weakest-stream channel norms (both hops)."""
    return _pick_best(*score_candidates(CriterionKind.S_SINR, realization, config,
                                        candidates, combine))


def sr_select(realization: ChannelRealization, config: SystemConfig,
              candidates: CandidateSet | None = None, combine: str = "min"):
    """Exhaustive selection on the full-knowledge secrecy score."""
    return _pick_best(*score_candidates(CriterionKind.SECRECY_RATE, realization,
                                        config, candidates, combine))


def ssr_select(realization: ChannelRealization, config: SystemConfig,
               candidates: CandidateSet | None = None, combine: str = "min"):
    """Exhaustive selection on the reduced secrecy score.

    The realization is stripped of its eavesdropper channels before scoring,
    so this code path cannot read them by construction.
    """
    blind = realization.without_eavesdroppers()
    return _pick_best(*score_candidates(CriterionKind.S_SR, blind, config,
                                        candidates, combine))


def select(kind: CriterionKind, realization: ChannelRealization, config: SystemConfig,
           candidates: CandidateSet | None = None, combine: str = "min",
           aggregate: str = "min"):
    """Run one selection criterion and return ``(combination, score)``."""
    if isinstance(kind, str):
        kind = CriterionKind.from_name(kind)
    if kind is CriterionKind.CHANNEL_GAIN:
        return channel_gain_select(realization, config, combine)
    if kind is CriterionKind.MAX_RATIO:
        return max_ratio_select(realization, config, combine)
    if kind is CriterionKind.SINR:
        return sinr_select(realization, config, candidates, combine, aggregate)
    if kind is CriterionKind.S_SINR:
        return ssinr_select(realization, config, candidates, combine)
    if kind is CriterionKind.SECRECY_RATE:
        return sr_select(realization, config, candidates, combine)
    return ssr_select(realization, config, candidates, combine)
