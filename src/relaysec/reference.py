"""Scalar reference implementations, one object at a time.

These are the test oracles for the batched path: channel draws from one
NumPy generator per block, a :class:`Precoder` per candidate, signals
and covariances composed by hand, per-candidate criterion metrics
written as plain loops, ``s-sinr``'s scores from the stacked member
channels, ``channel-gain``'s greedy pick one trial at a time, ZF admission
with every residual taken (:func:`zf_core_exact`), a user's rate in a
QR form that holds at high SNR (:func:`gamma_rate_bits`), the
one-combination forms of the batched selection and secrecy evaluation, and
every candidate's exhaustive scores (:func:`score_candidates`).
Only tests and ``relaysec verify`` use this module; the sweep never
imports it, and the CLI imports it only to verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import (CriterionScore, _block_gains, _combination_rows, _combination_table, _grid,
                       _grid_scores, combine_metrics, prepare_candidates, select)
from .kernels import LN2, hermitize
from .model import (
    LINK_DOMAINS,
    ZF_RESIDUAL_TOL,
    ChannelRealization,
    SingularChannelError,
    SystemConfig,
    _inverse_cores,
    _scaled,
    complex_normal,
    zf_core_batch,
)
from .secrecy import SecrecySample, secrecy_rate


# A Hermitian matrix with a larger condition number counts as singular.
GRAM_CONDITION_LIMIT = 1e12


class SingularGramError(RuntimeError):
    """A sandwiched covariance was numerically singular."""


class NoViableCandidateError(RuntimeError):
    """Every candidate combination was numerically unusable."""


# ---------------------------------------------------------------------------
# channel draws
# ---------------------------------------------------------------------------


def _block_rng(seed: int, trial: int, domain: int, a: int, b: int = 0) -> np.random.Generator:
    """A fresh generator of one channel block: Philox keyed by the trial, at
    the block's counter."""
    key = np.random.SeedSequence(int(seed), spawn_key=(int(trial),)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, int(b), int(a), domain]))


def _draw_blocks(seed: int, trial: int, domain: int, keys: tuple, block: tuple) -> np.ndarray:
    """Array of shape ``keys + block``; the block at index ``(a, b)`` of the
    leading axes is drawn from the sub-stream keyed by ``(domain, a, b)``."""
    out = np.empty(keys + block, dtype=complex)
    for key in np.ndindex(*keys):
        out[key] = complex_normal(_block_rng(seed, trial, domain, *key), block)
    return out


def keyed_realization(config: SystemConfig, trial: int = 0, seed: int | None = None) -> ChannelRealization:
    """:func:`relaysec.model.generate_realization`'s draws, with one
    ``Generator(Philox(key=..., counter=...))`` built per block."""
    base = config.seed if seed is None else seed
    p, k, n_t = config.pool_size, config.num_eves, config.transmit_antennas
    n_i, n_r, n_e = config.relay_antennas, config.user_antennas, config.eve_antennas
    dom = LINK_DOMAINS
    return ChannelRealization(
        source_to_relay=_draw_blocks(base, trial, dom["source_to_relay"], (p,), (n_i, n_t)),
        relay_to_user=_draw_blocks(base, trial, dom["relay_to_user"], (p, config.num_users), (n_r, n_i)),
        source_to_eve=_draw_blocks(base, trial, dom["source_to_eve"], (k,), (n_e, n_t)),
        relay_to_eve=_draw_blocks(base, trial, dom["relay_to_eve"], (p, k), (n_e, n_i)),
    )


# ---------------------------------------------------------------------------
# zero-forcing precoders
# ---------------------------------------------------------------------------


@dataclass
class Precoder:
    """Column-scaled zero-forcing precoder.

    ``core`` satisfies ``stacked_channel @ core ~= I``; ``matrix`` is ``core``
    with every column normalized to unit power, so the total transmit power
    is ``N_t``.
    """

    matrix: np.ndarray
    core: np.ndarray
    user_antennas: int

    @property
    def num_users(self) -> int:
        return self.matrix.shape[1] // self.user_antennas

    def user_block(self, user: int) -> np.ndarray:
        if not 0 <= user < self.num_users:
            raise ValueError(f"unknown user index {user}")
        lo = user * self.user_antennas
        return self.matrix[:, lo:lo + self.user_antennas]

    def other_columns(self, user: int) -> np.ndarray:
        """Every column of the precoder but ``user``'s."""
        self.user_block(user)  # checks the index
        lo = user * self.user_antennas
        return np.delete(self.matrix, np.s_[lo:lo + self.user_antennas], axis=1)


def zf_precoder(stacked_channel: np.ndarray, user_antennas: int = 1) -> Precoder:
    """Zero-forcing precoder for a square stacked first-hop channel.

    Every column has unit power. ``user_antennas`` sets the per-user column
    partition. Raises :class:`SingularChannelError` when the inverse cannot
    reproduce the identity within ``ZF_RESIDUAL_TOL``; the caller should
    redraw the realization.
    """
    stacked_channel = np.asarray(stacked_channel)
    if stacked_channel.ndim != 2 or stacked_channel.shape[0] != stacked_channel.shape[1]:
        raise ValueError(f"stacked channel must be square, got {stacked_channel.shape}")
    matrix, core, valid = zf_core_batch(stacked_channel[None])
    if not valid[0]:
        residual = np.linalg.norm(stacked_channel @ core[0] - np.eye(len(stacked_channel)))
        raise SingularChannelError(
            f"stacked channel is numerically singular (ZF residual {residual:.3e} "
            f"exceeds {ZF_RESIDUAL_TOL:.0e}); redraw the realization"
        )
    return Precoder(matrix=matrix[0], core=core[0], user_antennas=user_antennas)


def zf_core_exact(stacked: np.ndarray) -> tuple:
    """:func:`relaysec.model.zf_core_batch` with the residual of every
    candidate taken: the admission rule as defined, ``||stacked @ core -
    I||_F < ZF_RESIDUAL_TOL`` and no zero column, without the LU bound that
    lets the batched form skip the product."""
    core, _ = _inverse_cores(stacked)
    residual = np.linalg.norm(stacked @ core - np.eye(stacked.shape[-1]), axis=(-2, -1))
    valid = np.isfinite(residual) & (residual < ZF_RESIDUAL_TOL)
    return _scaled(core, np.linalg.norm(core, axis=-2), valid)


def svd_zf_valid(stacked: np.ndarray) -> np.ndarray:
    """``(C,)`` ZF admission of a batch of square channels, from the SVD.

    The core is ``V diag(1/sigma) U^H`` (0 for a zero singular value); a
    channel is admitted when ``stacked @ core`` is within
    ``ZF_RESIDUAL_TOL`` of the identity (Frobenius) and no column of the
    core is zero: the rule of :func:`relaysec.model.zf_core_batch`.
    """
    u, sv, vh = np.linalg.svd(stacked)
    with np.errstate(divide="ignore"):
        inv_sv = np.where(sv > 0, 1.0 / sv, 0.0)
    core = vh.conj().swapaxes(-1, -2) @ (inv_sv[..., None] * u.conj().swapaxes(-1, -2))
    residual = np.linalg.norm(stacked @ core - np.eye(stacked.shape[-1]), axis=(-2, -1))
    columns = np.linalg.norm(core, axis=-2)
    return np.isfinite(residual) & (residual < ZF_RESIDUAL_TOL) & np.all(columns > 0, axis=-1)


def relay_precoder(realization: ChannelRealization, combination,
                   config: SystemConfig) -> Precoder:
    """Coordinated zero-forcing precoder applied by the selected relays.

    The selected relays jointly hold exactly ``N_t`` antennas, so stacking
    every user's second-hop channel gives a square matrix and the relays can
    re-transmit the decoded streams interference-free, mirroring the source
    precoder. Columns are normalized to unit power, keeping the second-hop
    SNR governed by ``snr_db`` instead of the fading scale.
    """
    stacked = realization.all_users_channel(combination)
    return zf_precoder(stacked, user_antennas=config.user_antennas)


# ---------------------------------------------------------------------------
# signal composition
# ---------------------------------------------------------------------------


def user_channel(realization: ChannelRealization, combination, user: int) -> np.ndarray:
    """Second-hop channel to ``user``, ``(..., N_r, T*N_i)``."""
    num_users, n_r = realization.relay_to_user.shape[1:3]
    if not 0 <= user < num_users:
        raise ValueError(f"unknown user index {user}")
    return realization.all_users_channel(combination)[..., user * n_r:(user + 1) * n_r, :]


def _add_noise(out: np.ndarray, noise_power: float, rng) -> np.ndarray:
    if noise_power > 0:
        if rng is None:
            raise ValueError("rng is required when noise_power > 0")
        out = out + np.sqrt(noise_power) * complex_normal(rng, out.shape)
    return out


def relay_rx_signal(realization: ChannelRealization, combination, precoder: Precoder,
                    symbols: np.ndarray, noise_power: float,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Phase-1 signal received across the selected relays' antennas.

    Returns ``H_stacked @ U @ s + n`` with ``n ~ CN(0, noise_power I)``.
    """
    h = realization.stacked_source_channel(combination)
    symbols = np.asarray(symbols)
    expected = (precoder.matrix.shape[1], 1)
    if symbols.shape != expected:
        raise ValueError(f"symbols must have shape {expected}, got {symbols.shape}")
    return _add_noise(h @ (precoder.matrix @ symbols), noise_power, rng)


def user_rx_signal(realization: ChannelRealization, combination, relay_signal: np.ndarray,
                   user: int, noise_power: float,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Phase-2 signal at ``user``: the concatenated relay->user channel applied
    to the relay-side vector, plus receiver noise."""
    h_r = user_channel(realization, combination, user)
    relay_signal = np.asarray(relay_signal)
    if relay_signal.shape != (h_r.shape[1], 1):
        raise ValueError(
            f"relay signal must have shape {(h_r.shape[1], 1)}, got {relay_signal.shape}"
        )
    return _add_noise(h_r @ relay_signal, noise_power, rng)


# ---------------------------------------------------------------------------
# signal covariances and rates
# ---------------------------------------------------------------------------


def desired_covariance(precoder: Precoder, own_user: int,
                       symbol_covariance: np.ndarray | None = None) -> np.ndarray:
    """Transmit covariance of ``own_user``'s precoded streams.

    With unit-power uncorrelated symbols this is ``U_u @ U_u^H``.
    """
    u_u = precoder.user_block(own_user)
    if symbol_covariance is None:
        return u_u @ u_u.conj().T
    return u_u @ symbol_covariance @ u_u.conj().T


def interference_covariance(precoder: Precoder, own_user: int, noise_power: float = 0.0,
                            symbol_covariances=None, include_noise: bool = True) -> np.ndarray:
    """Covariance of everything that interferes with ``own_user``.

    Sum of the other users' precoded-signal covariances, plus
    ``noise_power * I`` unless ``include_noise`` is False (the
    interference-only variant used by the reduced secrecy criterion).
    """
    n_t = precoder.matrix.shape[0]
    if not 0 <= own_user < precoder.num_users:
        raise ValueError(f"unknown user index {own_user}")
    acc = np.zeros((n_t, n_t), dtype=complex)
    for j in range(precoder.num_users):
        if j == own_user:
            continue
        cov = None if symbol_covariances is None else symbol_covariances[j]
        acc += desired_covariance(precoder, j, cov)
    if include_noise:
        acc = acc + noise_power * np.eye(n_t)
    return hermitize(acc)


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


def gamma_rate_bits(channel, own, others, noise_power: float) -> float:
    """Rate in bits of one user at a receiver that sees ``channel`` with
    noise power ``s > 0``: ``log2 det(I + B_u^H (B_I B_I^H + s I)^{-1}
    B_u)``, with ``B_u = channel @ own`` the user's precoded columns and
    ``B_I = channel @ others`` the other users'.

    A complete QR of ``B_I`` splits the receiver's space into ``Q``, which
    spans ``B_I``, and its complement ``Q_o``. With ``A = Q^H B_u``, ``O =
    Q_o^H B_u`` and ``B_I = Q R``, ``(B_I B_I^H + s I)^{-1} = Q (s I + R
    R^H)^{-1} Q^H + Q_o Q_o^H / s``, so the matrix is ``N + O^H O / s`` with
    ``N = I + A^H (s I + R R^H)^{-1} A``, and its determinant is ``det(N)
    det(I + O N^{-1} O^H / s)``, the second factor taken on the smaller
    side of ``O``. No gram is formed on the receiver's side, where at high
    SNR ``det(B_I B_I^H + s I)`` is set by rounding once the receiver has
    more antennas than ``B_I`` has columns, and the part of ``B_u`` off
    ``B_I``'s span, whose terms grow as ``1 / s``, is never added to the
    ``O(1)`` terms along it, so both factors keep their precision at high
    SNR: up to 200 dB it matched a 60-digit evaluation to 3e-13 relative,
    where the per-user Woodbury form was 0.28 off. ``sr``'s eavesdropper
    term, whose noise sits inside the covariance, is this rate at a
    receiver that sees an orthonormal basis of the eavesdropper stack's row
    space (:func:`row_basis`).
    """
    channel = np.asarray(channel)
    b_u, b_i = channel @ own, channel @ others
    q, r = np.linalg.qr(b_i, mode="complete")
    span = min(b_i.shape)
    along, off = q[:, :span].conj().T @ b_u, q[:, span:].conj().T @ b_u
    r = r[:span]
    inner = np.eye(b_u.shape[1]) + along.conj().T @ np.linalg.solve(
        noise_power * np.eye(span) + r @ r.conj().T, along)
    if off.shape[0] <= off.shape[1]:
        rest = np.eye(off.shape[0]) + off @ np.linalg.solve(inner, off.conj().T) / noise_power
    else:
        rest = np.eye(off.shape[1]) + np.linalg.solve(inner, off.conj().T @ off) / noise_power
    return float((np.linalg.slogdet(inner)[1] + np.linalg.slogdet(rest)[1]) / LN2)


def row_basis(stack) -> np.ndarray:
    """Orthonormal rows spanning the row space of a full-rank ``stack``
    (``min(rows, N_t) x N_t``), from a QR factorization of ``stack^H``."""
    return np.linalg.qr(np.asarray(stack).conj().T)[0].conj().T


def ssr_eve_term(precoder: Precoder, own_user: int, noise_power: float,
                 symbol_covariance: np.ndarray | None = None) -> float:
    """Eavesdropper-side log-det term computed without eavesdropper channels.

    ``log2 det(I + U_u^H R^{-1} U_u S)`` with ``R = R_I + s I`` the other
    users' covariance plus the noise power ``s`` and ``S`` the symbol
    covariance (identity for unit-power streams). ``R`` is never formed:
    by Woodbury's identity ``s R^{-1} = I - W_o (W_o^H W_o + s I)^{-1}
    W_o^H``, with ``W_o`` the other users' columns of the precoder, an O(1)
    matrix however small ``s`` is, so the term keeps growing with the SNR
    (``log2(1 + 1 / s)`` a stream for a unitary precoder) where ``R``'s
    condition number has long passed the float range. This is the oracle
    form; :func:`relaysec.criteria.select` takes the term from a Cholesky
    factorization of ``W^H W + s I`` instead (:func:`relaysec.kernels.eve_terms`).
    """
    u_u, n_r = precoder.user_block(own_user), precoder.user_antennas
    others = precoder.other_columns(own_user)
    gram = others.conj().T @ others + noise_power * np.eye(others.shape[1])
    inner = u_u.conj().T @ (u_u - others @ np.linalg.solve(gram, others.conj().T @ u_u))
    if symbol_covariance is not None:
        inner = inner @ symbol_covariance
    _, value = np.linalg.slogdet(np.eye(n_r) + inner / noise_power)
    return float(value / LN2)


# ---------------------------------------------------------------------------
# per-candidate criterion metrics
# ---------------------------------------------------------------------------


def _stream_sinr(row: np.ndarray, own: np.ndarray, others: np.ndarray, noise: float) -> float:
    """``(h R_d h^H) / (max(h R_I h^H, 0) + s)`` for one receive antenna.

    Zero forcing makes the interference form vanish in exact arithmetic; its
    rounding can be negative and, at high SNR, outweigh the noise.
    """
    num = float(np.real(row @ own @ row.conj()))
    return num / (max(float(np.real(row @ others @ row.conj())), 0.0) + noise)


def _user_terms(precoder: Precoder) -> tuple:
    """Per-user desired covariances and the sums of the other users' terms."""
    users = range(precoder.num_users)
    return ([desired_covariance(precoder, u) for u in users],
            [interference_covariance(precoder, u, include_noise=False) for u in users])


def sinr_relay_metric(realization: ChannelRealization, precoder: Precoder,
                      combination, config: SystemConfig) -> float:
    """First-hop SINR metric of one candidate combination.

    Per relay antenna ``l`` the SINR is ``(h^H R_d h) / (h^H R_I h + s_n^2)``
    with ``h`` the antenna's channel row and the covariances taken for the
    user whose stream the antenna carries; ``R_I`` sums the other users'
    terms. Antenna values are averaged per relay, and the bottleneck
    (minimum) relay scores the candidate.
    """
    h = realization.stacked_source_channel(combination)
    own, others = _user_terms(precoder)
    users = map(config.stream_user, range(h.shape[0]))
    per_stream = np.array([_stream_sinr(row, own[u], others[u], config.noise_power)
                           for row, u in zip(h, users)])
    per_relay = per_stream.reshape(len(combination), config.relay_antennas).mean(axis=1)
    return float(per_relay.min())


def sinr_user_metric(realization: ChannelRealization, combination, config: SystemConfig,
                     relay_output_covariance: np.ndarray | None = None) -> float:
    """Second-hop SINR metric of one candidate combination.

    By default the selected relays re-transmit through their coordinated
    zero-forcing precoder, so the per-user covariances mirror the first hop.
    Passing ``relay_output_covariance`` replaces the numerator covariance
    with an explicit relay output covariance (the interference model stays).
    """
    stacked = realization.all_users_channel(combination)
    own, others = _user_terms(zf_precoder(stacked, user_antennas=config.user_antennas))
    per_user = []
    for user in range(config.num_users):
        num_cov = own[user] if relay_output_covariance is None else relay_output_covariance
        rows = stacked[config.user_streams(user)]
        per_user.append(np.mean([_stream_sinr(row, num_cov, others[user], config.noise_power)
                                 for row in rows]))
    return float(min(per_user))


def ssinr_metric(channel_block: np.ndarray) -> float:
    """Weakest-stream squared gain: min over columns of the column norm^2.

    Needs only the channel block itself; no interference covariance and no
    eavesdropper information.
    """
    block = np.asarray(channel_block)
    return float(np.min(np.sum(np.abs(block) ** 2, axis=0)))


def ssinr_scores(realization: ChannelRealization, config: SystemConfig,
                 combine: str = "min") -> tuple:
    """``s-sinr``'s ``(eta1, eta2, combined)`` of every candidate of one
    trial, ``(C,)`` each, from the members' stacked channels: the weakest
    squared row norm of the stacked first hop, and of a user antenna's row
    of the stacked second hop. Each row is summed as one contiguous run:
    numpy's order for a row sum depends on the memory layout, and
    :func:`relaysec.model.ChannelRealization.all_users_channel` is a
    strided view where ``N_i = 1``."""
    members = _combination_table(config.pool_size, config.selected_relays)[1]
    hop1 = realization.stacked_source_channel(members)
    hop2 = realization.all_users_channel(members).reshape(
        len(members), config.num_users, config.user_antennas, -1)
    eta1 = np.min(np.sum(np.abs(hop1) ** 2, axis=2), axis=1)
    eta2 = np.min(np.sum(np.ascontiguousarray(np.abs(hop2) ** 2), axis=3), axis=(1, 2))
    return eta1, eta2, combine_metrics(eta1, eta2, combine)


def channel_gain_select(realization: ChannelRealization, config: SystemConfig,
                        combine: str = "min"):
    """One trial's greedy two-pass ``channel-gain`` pick, by the rule of
    :func:`relaysec.criteria._channel_gain_picks`, as ``(combination,
    CriterionScore of floats)``."""
    theta1 = _block_gains(realization.source_to_relay)
    picked = np.argsort(-theta1, kind="stable")[:config.selected_relays]
    eta1 = float(theta1[picked].sum())
    combo = np.sort(picked)
    theta2 = _block_gains(realization.relay_to_user[combo])
    tokens = np.ones(len(combo), dtype=bool)
    eta2 = 0.0
    for user in range(min(config.num_users, len(combo))):
        # argmax keeps the first maximum: the lowest relay index among ties
        winner = int(np.argmax(np.where(tokens, theta2[:, user], -np.inf)))
        eta2 += float(theta2[winner, user])
        tokens[winner] = False
    combined = float(combine_metrics(eta1, eta2, combine))
    return tuple(combo.tolist()), CriterionScore(eta1, eta2, combined)


# ---------------------------------------------------------------------------
# one-combination selection and evaluation
# ---------------------------------------------------------------------------


def position(config: SystemConfig, combination) -> int:
    """Row of the sorted ``combination`` in every candidate set of ``config``."""
    return int(_combination_rows(np.array(combination), config.pool_size,
                                 config.selected_relays))


def score_candidates(kind, realization: ChannelRealization, config: SystemConfig,
                     candidates=None, combine: str = "min", noise=None) -> tuple:
    """``(candidate_set, eta1, eta2, combined)``: the ``(S, ..., C)`` scores
    :func:`relaysec.criteria.select` picks an exhaustive criterion's row from.
    ``s-sr``'s arrays, and full-rank ``sr``'s, are the set's kept table."""
    cs = prepare_candidates(realization, config) if candidates is None else candidates
    scores, _ = _grid_scores(kind, realization, cs, config, combine, _grid(config, noise))
    return (cs, *scores)


def select_one(kind, realization: ChannelRealization, config: SystemConfig,
               candidates=None, combine: str = "min") -> tuple:
    """:func:`relaysec.criteria.select` at ``config``'s noise level alone, as
    ``(combination, CriterionScore of floats)``. Raises
    :class:`NoViableCandidateError` when no candidate is viable."""
    positions, score = select(kind, realization, config, candidates=candidates,
                              combine=combine)
    if positions[0] < 0:
        raise NoViableCandidateError(
            "all candidate combinations were numerically singular; redraw"
        )
    combination = _combination_table(config.pool_size, config.selected_relays)[0][positions[0]]
    return combination, CriterionScore(*(float(a[0]) for a in (
        score.eta1, score.eta2, score.combined)))


def pair_secrecy_rate(realization: ChannelRealization, candidates, combination,
                      config: SystemConfig, **options) -> SecrecySample:
    """:func:`relaysec.secrecy.secrecy_rate` of one combination of one
    trial at ``config``'s noise level, with float rates: the trial's
    realization and candidate set become a block of one trial, as views."""
    rows = candidates[None].rows([0], [position(config, combination)])
    sample = secrecy_rate(realization[None], rows, config, [config.noise_power], **options)
    return SecrecySample(*(float(rate[0]) for rate in (
        sample.secrecy_rate, sample.legit_rate, sample.eve_rate)))
