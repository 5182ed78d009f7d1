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

Both hops are square zero forcing (ZF). With ``d`` the column norms of a
core ``H^{-1}`` and ``D = diag(d)``, the precoder is ``W = H^{-1} D^{-1}``, with
unit-power columns, so ``H W = D^{-1}``: stream ``l`` arrives with power
``1 / d_l^2`` and no interference, every legitimate rate is ``sum_l log2(1 +
1 / (d_l^2 s))`` and every stream SINR ``1 / (d_l^2 s)`` at noise power ``s``. So receiver
noise enters no stored array, and ``sinr``'s pick does not depend on the
noise level. ``sr`` and ``s-sr`` share one eavesdropper term
(:func:`_eve_terms`), the same computation whenever the stacked
eavesdropper channel has full column rank.

Exhaustive rules score every T-combination of the relay pool under its own
pair of ZF precoders (source side for phase 1, coordinated relay side for
phase 2), held by a :class:`CandidateSet` that several criteria share on one
realization (paired comparisons). Ties break toward the candidate that
enumerates first (lexicographic order). In a shape such as ``(S, ..., C)``,
``...`` stands for a block's leading trial axis, or for none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .kernels import LN2, eve_terms, received_grams, user_rates
from .model import ChannelRealization, ConfigError, SystemConfig, zf_core_batch


class NotSingleAntennaError(ValueError):
    """max-ratio selection is defined only for single-antenna nodes."""


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
        raise ConfigError(f"unknown criterion {name!r}; expected one of: {names}")


CRITERION_NAMES = tuple(kind.value for kind in CriterionKind)

# Exhaustive rules share the candidate machinery; the other two are greedy.
EXHAUSTIVE_KINDS = (
    CriterionKind.SINR,
    CriterionKind.SECRECY_RATE,
    CriterionKind.S_SINR,
    CriterionKind.S_SR,
)

# Rules whose pick reads the channels alone: they need no candidate set.
CANDIDATE_FREE_KINDS = (
    CriterionKind.CHANNEL_GAIN,
    CriterionKind.MAX_RATIO,
    CriterionKind.S_SINR,
)


@dataclass(frozen=True)
class CriterionScore:
    """Hop metrics of a pick and their combined value: ``(S,)`` arrays from
    :func:`select`, ``(B, S)`` for a block of trials, floats from the
    one-combination forms."""

    eta1: np.ndarray | float
    eta2: np.ndarray | float
    combined: np.ndarray | float


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


@lru_cache(maxsize=8)
def _combination_table(pool_size: int, selected: int) -> tuple:
    """``(combinations, members)`` shared by every candidate set of one
    ``(pool_size, selected)``: the combination list and its ``(C, T)``
    read-only array. :func:`_combination_rows` maps combinations to rows."""
    combinations = enumerate_combinations(pool_size, selected)
    members = np.array(combinations)
    members.flags.writeable = False
    return combinations, members


@lru_cache(maxsize=8)
def _rank_weights(pool_size: int, selected: int) -> np.ndarray:
    """``(T, P)`` table with ``[i, v] = C(P - 1 - v, T - i)``, for
    :func:`_combination_rows`."""
    return np.array([[math.comb(pool_size - 1 - v, selected - i) for v in range(pool_size)]
                     for i in range(selected)])


def _combination_rows(combos: np.ndarray, pool_size: int, selected: int) -> np.ndarray:
    """Rows in :func:`_combination_table` of sorted ``(..., T)`` relay
    combinations: the lexicographic rank ``C(P, T) - 1 - sum_i C(P - 1 -
    c_i, T - i)``, by the combinatorial number system."""
    weights = _rank_weights(pool_size, selected)
    return math.comb(pool_size, selected) - 1 - weights[np.arange(selected), combos].sum(axis=-1)


# ---------------------------------------------------------------------------
# candidate cache
# ---------------------------------------------------------------------------


@dataclass
class CandidateSet:
    """Per-candidate channels and precoders of one realization.

    ``hop1[c]`` stacks the members' source->relay blocks (square, N_t x N_t);
    ``hop2[c, u]`` concatenates the members' relay->user blocks for user
    ``u``. ``precoders[c]`` / ``relay_precoders[c]`` hold the candidate's
    ZF matrices for the two hops, with unit-power columns, and ``cores[c]``
    / ``relay_cores[c]`` the unscaled inverses; candidates where either hop's channel was
    singular have ``valid[c]`` False and identity placeholders so batched
    linear algebra stays finite. Row ``c`` belongs to ``combinations[c]``;
    :func:`select` returns picks as rows, and :meth:`rows` gathers the
    picked rows that :func:`relaysec.secrecy.secrecy_rate` evaluates.

    Given a block of trials, :func:`prepare_candidates` puts the trial axis
    in front of every array; ``block[b]`` is trial ``b``'s set, as views,
    with a table of its own. A set passed to it as ``out`` lends its arrays
    to the new set and must not be read again: its arrays then hold the new
    set's values, and its table the old ones. Rows gathered by
    :meth:`rows` are copies and stay valid.

    Receiver noise enters no stored array (see the module docstring): the
    rates at a noise level come from :meth:`stream_gains`, the noise-free
    received powers ``1 / d_l^2``. ``config`` supplies dimensions only.

    The set keeps a table of ``s-sr``'s scores, ``(S, ..., C)``, per grid
    and ``combine`` rule. ``sr``'s score is ``s-sr``'s for every trial whose
    stacked eavesdropper channel has rank N_t, so a block's ``s-sr`` and
    ``sr`` selections, separate :func:`select` calls, read one table:
    whichever comes first scores every candidate of every trial at every
    grid point in one pass. The table is derived from the precoders alone,
    never from the eavesdropper channels.
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
    # s-sr's (eta1, eta2, combined) per (grid bytes, combine rule).
    _ssr: dict = field(default_factory=dict, init=False, repr=False)

    def __getitem__(self, trial) -> "CandidateSet":
        """Trial ``trial`` of a block's set, or a block of them, as views."""
        return CandidateSet(
            self.config, self.combinations, self.hop1[trial], self.hop2[trial],
            self.precoders[trial], self.cores[trial], self.relay_precoders[trial],
            self.relay_cores[trial], self.valid[trial],
        )

    def stream_gains(self) -> np.ndarray:
        """Noise-free received power ``1 / d_l^2`` of every stream of every
        candidate, ``(2, ..., C, N_t)``, source hop first."""
        return stream_gains(self.cores, self.relay_cores)

    def rows(self, trials, positions, first: int = 0) -> "CandidateRows":
        """Candidate ``positions[j]`` of trial ``trials[j]`` of this block's
        set, for every ``j``, as copies: the set can be dropped afterwards.
        ``first`` is the set's first trial in the block of realizations the
        rows are evaluated with."""
        trials = np.asarray(trials, dtype=np.intp)
        positions = np.asarray(positions, dtype=np.intp)
        gains = stream_gains(self.cores[trials, positions], self.relay_cores[trials, positions])
        return CandidateRows(trials + first, positions, gains.swapaxes(0, 1),
                             *(getattr(self, name)[trials, positions]
                               for name in ("precoders", "relay_precoders", "valid")))


@dataclass(frozen=True)
class CandidateRows:
    """Rows gathered out of candidate sets, ``(R, ...)`` arrays: row ``r`` is
    candidate ``positions[r]`` (a row of the combination table) of trial
    ``trials[r]`` of a block of realizations, with that candidate's stream
    gains ``(2, N_t)`` (:func:`stream_gains`, source hop first), two
    precoders and ``valid`` flag (see :class:`CandidateSet`)."""

    trials: np.ndarray
    positions: np.ndarray
    gains: np.ndarray
    precoders: np.ndarray
    relay_precoders: np.ndarray
    valid: np.ndarray

    @classmethod
    def concatenate(cls, parts) -> "CandidateRows":
        """The rows of ``parts``, one after another."""
        return cls(*(np.concatenate([getattr(part, f.name) for part in parts])
                     for f in fields(cls)))


def stream_gains(cores: np.ndarray, relay_cores: np.ndarray) -> np.ndarray:
    """Noise-free received power ``1 / d_l^2`` of every ZF stream, ``(2, ...,
    N_t)``, source hop first, from the two hops' cores ``(..., N_t, N_t)``
    and their column norms ``d``."""
    return 1.0 / np.sum(np.abs(np.stack([cores, relay_cores])) ** 2, axis=-2)


def legit_rates(gains: np.ndarray, noise) -> np.ndarray:
    """``sum_l log2(1 + g_l / s)``: the rate of ZF streams with noise-free
    received powers ``g`` (last axis) at noise power ``s``, which broadcasts
    against ``gains[..., 0]``; any leading axes (hops, trials, candidates)
    pass through."""
    return np.log1p(gains / np.asarray(noise)[..., None]).sum(axis=-1) / LN2


def prepare_candidates(realization: ChannelRealization, config: SystemConfig,
                       out: CandidateSet | None = None) -> CandidateSet:
    """Stack channels and build both ZF precoders for every candidate.

    A block of trials gives one set with a leading trial axis: its hop
    channels are stacked into ``(B, C, n, n)`` and each hop takes one
    :func:`relaysec.model.zf_core_batch`. The arrays are written into
    ``out``'s, a set of the same shape that is not read again (see
    :class:`CandidateSet`), or into new ones when ``out`` is None; either
    way the set returned is a new one, with an empty ``s-sr`` table.
    """
    combinations, members = _combination_table(config.pool_size, config.selected_relays)
    n = config.transmit_antennas
    if out is None:
        shape = (*realization.source_to_relay.shape[:-3], len(members), n, n)
        out = CandidateSet(config, combinations, *(np.empty(shape, complex) for _ in range(6)),
                           valid=np.empty(shape[:-2], dtype=bool))
    hop1, hop2 = out.hop1, out.hop2.reshape(out.hop1.shape)
    np.copyto(hop1, realization.stacked_source_channel(members))
    # All users' antennas stacked give a square phase-2 channel as well.
    np.copyto(hop2, realization.all_users_channel(members))
    valid1 = zf_core_batch(hop1, out=(out.precoders, out.cores))[2]
    valid2 = zf_core_batch(hop2, out=(out.relay_precoders, out.relay_cores))[2]
    np.logical_and(valid1, valid2, out=out.valid)
    if not out.valid.all():
        invalid = ~out.valid
        for array in (out.precoders, out.cores, out.relay_precoders, out.relay_cores):
            array[invalid] = np.eye(n)
    return replace(out, config=config, combinations=combinations, hop2=hop2.reshape(
        *hop2.shape[:-2], config.num_users, config.user_antennas, -1))


# ---------------------------------------------------------------------------
# batched exhaustive scorers
# ---------------------------------------------------------------------------


def _score_sinr(cs: CandidateSet, config: SystemConfig, combine: str):
    """``sinr``'s ``(eta1, eta2, combined)`` times the noise power, each ``(C,)``."""
    gains = cs.stream_gains()
    c = len(cs.combinations)
    per_relay = gains[0].reshape(c, config.selected_relays, config.relay_antennas).mean(axis=2)
    per_user = gains[1].reshape(c, config.num_users, config.user_antennas).mean(axis=2)
    eta1 = np.min(per_relay, axis=1)
    eta2 = np.min(per_user, axis=1)
    return eta1, eta2, np.where(cs.valid, combine_metrics(eta1, eta2, combine), -np.inf)


def _score_ssinr(realization: ChannelRealization, config: SystemConfig, combine: str):
    """``s-sinr``'s noise-free ``(eta1, eta2, combined)``, each ``(..., C)``.

    ``eta1`` is the weakest squared norm of a member antenna's row of the
    stacked first hop, and ``eta2`` the weakest of a user antenna's row of
    the members' relay->user channels side by side. Both are gathered from
    per-relay squares through the ``(C, T)`` member array, one member
    antenna and one user antenna at a time, so that with fewer than eight
    member antennas no temporary holds more than one float a candidate.
    Each row of ``eta2`` is summed in the stacked row's order
    (:func:`_member_sums`), so the scores are the bits of the stacked
    channels' contiguous row sums
    (:func:`relaysec.reference.ssinr_scores`). Precoder validity does not
    constrain them.
    """
    members = _combination_table(config.pool_size, config.selected_relays)[1]
    n_i = config.relay_antennas
    # Row c lists candidate c's relay antennas, in the stacked channels' order.
    columns = (members[:, :, None] * n_i + np.arange(n_i)).reshape(len(members), -1)
    rows = np.sum(np.abs(realization.source_to_relay) ** 2, axis=-1)  # (..., P, N_i)
    rows = rows.reshape(*rows.shape[:-2], -1)  # (..., P N_i)
    eta1 = np.take(rows, columns[:, 0], axis=-1)
    for column in columns.T[1:]:
        np.minimum(eta1, np.take(rows, column, axis=-1), out=eta1)
    squares = np.abs(realization.relay_to_user) ** 2  # (..., P, M, N_r, N_i)
    antennas = np.moveaxis(squares, -4, -2).reshape(*rows.shape[:-1], -1, rows.shape[-1])
    antennas = np.moveaxis(antennas, -2, 0)  # (M N_r, ..., P N_i): a row per user antenna
    eta2 = _member_sums(antennas[0], columns)
    for antenna in antennas[1:]:
        np.minimum(eta2, _member_sums(antenna, columns), out=eta2)
    return eta1, eta2, combine_metrics(eta1, eta2, combine)


def _member_sums(values: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``values[..., columns].sum(axis=-1)``, ``(..., C)``, with the bits of a
    contiguous row sum: numpy adds fewer than eight entries in order, so those
    rows are summed one column at a time, and rows of eight or more, which
    it sums pairwise, are gathered whole."""
    if columns.shape[1] >= 8:
        return np.sum(np.take(values, columns, axis=-1), axis=-1)
    sums = np.take(values, columns[:, 0], axis=-1)
    for column in columns.T[1:]:
        sums += np.take(values, column, axis=-1)
    return sums


def _eve_row_spaces(eve_stacks: np.ndarray) -> tuple:
    """Ranks ``(...)`` and right singular vectors ``vh``, ``(..., N_t,
    N_t)``, of stacked eavesdropper channels ``(..., K*N_e, N_t)``, from
    one SVD of them all: ``vh[..., :r, :].conj()`` transposed is an
    orthonormal basis of a rank-``r`` stack's row space.

    Each rank uses ``np.linalg.matrix_rank``'s default tolerance, relative
    to the largest singular value, which the SVD puts first.
    """
    _, sv, vh = np.linalg.svd(eve_stacks)
    tol = sv[..., :1] * max(eve_stacks.shape[-2:]) * np.finfo(float).eps
    return (sv > tol).sum(axis=-1), vh


def _eve_terms(cs: CandidateSet, config: SystemConfig, noise: np.ndarray,
               basis: np.ndarray | None):
    """The eavesdropper log-det terms ``sr`` and ``s-sr`` share, from the
    precoders, on a subspace.

    ``log2 det(I + U_u^H V (V^H (R_I + s I) V)^{-1} V^H U_u)`` for every
    noise level ``s`` in ``noise``, candidate and user, ``(S, ..., C, M)``,
    where ``U_u`` is user ``u``'s columns of the precoder ``W`` and ``R_I``
    the other users' covariance. ``s-sr`` passes no basis
    (V = I); ``sr`` passes the bases ``(..., N_t, r)`` of the trials'
    eavesdropper row spaces, all of one rank ``r``, where the term equals
    ``log2 det(E (R_I + R_d + s I) E^H) / det(E (R_I + s I) E^H)`` by the
    pseudo-determinant and Sylvester's identity, and stays defined when
    ``E E^H`` is singular. With a basis the term is the rate of user ``u``
    at a receiver that sees ``V^H W`` (:func:`relaysec.kernels.user_rates`).

    With no basis it is ``-log2 det(s [(W^H W + s I)^{-1}]_uu)`` by the
    determinant lemma and Jacobi's complementary-minor identity, from the
    Cholesky factors of ``W^H W + s I`` (:func:`relaysec.kernels.eve_terms`);
    a candidate whose factorization breaks down gets +inf.
    """
    n_r, m = config.user_antennas, config.num_users
    if basis is not None:
        rows = basis.conj().swapaxes(-1, -2)[..., None, :, :]  # V^H, against every candidate
        total, others, dropped = received_grams(rows @ cs.precoders, m, n_r)
        return user_rates(total, others, dropped,
                          noise.reshape(-1, *[1] * (cs.precoders.ndim - 1)))
    return eve_terms(cs.precoders.conj().swapaxes(-1, -2) @ cs.precoders, noise, n_r)


def _score_secrecy(cs: CandidateSet, config: SystemConfig, combine: str, noise: np.ndarray,
                   basis: np.ndarray | None):
    """Two-hop secrecy score, ``(eta1, eta2, combined)``, ``(S, ..., C)``;
    the legitimate rates are the ones the evaluation side takes (receiver
    noise at the destination antennas)."""
    gains = cs.stream_gains()
    legit = legit_rates(gains, noise.reshape(-1, *[1] * (gains.ndim - 1)))
    eve = _eve_terms(cs, config, noise, basis).sum(axis=-1)
    eta1 = legit[:, 0] - eve
    eta2 = legit[:, 1] - eve
    return eta1, eta2, np.where(cs.valid, combine_metrics(eta1, eta2, combine), -np.inf)


def _grid(config: SystemConfig, noise) -> np.ndarray:
    """The ``(S,)`` noise grid, ``config``'s one noise level when None."""
    return np.array([config.noise_power]) if noise is None else np.asarray(noise, dtype=float)


def _ssr_scores(cs: CandidateSet, config: SystemConfig, combine: str,
                grid: np.ndarray) -> tuple:
    """``s-sr``'s ``(eta1, eta2, combined)``, ``(S, ..., C)``, from the set's
    table (see :class:`CandidateSet`), scored on the first call per grid and
    combine rule."""
    key = (grid.tobytes(), combine)
    if key not in cs._ssr:
        cs._ssr[key] = _score_secrecy(cs, config, combine, grid, None)
    return cs._ssr[key]


def _sr_scores(realization: ChannelRealization, cs: CandidateSet, config: SystemConfig,
               combine: str, grid: np.ndarray) -> tuple:
    """``sr``'s ``(eta1, eta2, combined)``, ``(S, ..., C)``, for one trial or
    a block of them.

    One SVD takes every trial's eavesdropper stack (:func:`_eve_row_spaces`).
    A trial whose stack has rank N_t reads ``s-sr``'s table; the others are
    grouped by rank, and each group is scored by one :func:`_score_secrecy`
    call on its stacked bases.
    """
    ranks, vh = _eve_row_spaces(realization.stacked_eve_channel())
    n_t = vh.shape[-1]
    rank = ranks.flat[0]
    if np.all(ranks == rank):  # one trial, or a block whose trials share one rank
        if rank == n_t:
            return _ssr_scores(cs, config, combine, grid)
        return _score_secrecy(cs, config, combine, grid,
                              vh[..., :rank, :].conj().swapaxes(-1, -2))
    scores = tuple(np.empty((len(grid), *cs.valid.shape)) for _ in range(3))
    for rank in np.unique(ranks):
        trials = np.flatnonzero(ranks == rank)
        if rank == n_t:
            group = tuple(a[:, trials] for a in _ssr_scores(cs, config, combine, grid))
        else:
            group = _score_secrecy(cs[trials], config, combine, grid,
                                   vh[trials, :rank].conj().swapaxes(-1, -2))
        for whole, rows in zip(scores, group):
            whole[:, trials] = rows
    return scores


def _grid_scores(kind: CriterionKind, realization: ChannelRealization, cs: CandidateSet,
                 config: SystemConfig, combine: str, grid: np.ndarray) -> tuple:
    """``(eta1, eta2, combined)``, each ``(S, ..., C)`` with row ``s`` at
    noise power ``grid[s]``, and the ranking :func:`_pick_best` takes:
    ``combined``, or ``sinr``'s and ``s-sinr``'s one noise-free row.
    ``sinr`` takes one trial."""
    if kind is CriterionKind.SINR:
        free = _score_sinr(cs, config, combine)
        return tuple(a / grid[:, None] for a in free), free[2][None]
    if kind is CriterionKind.S_SINR:
        free = _score_ssinr(realization, config, combine)
        return tuple(np.broadcast_to(a, (len(grid), *a.shape)) for a in free), free[2][None]
    if kind is CriterionKind.SECRECY_RATE:
        scores = _sr_scores(realization, cs, config, combine, grid)
    else:
        scores = _ssr_scores(cs, config, combine, grid)
    return scores, scores[2]


def _pick_best(eta1, eta2, combined, ranking) -> tuple:
    """Row-wise pick from ``(S, C)`` scores, or a block's ``(S, B, C)``:
    ``(positions, CriterionScore)``, each ``(S,)``, or ``(B, S)`` for a block.
    The pick is the argmax of each row of ``ranking``, ``combined`` itself or
    one noise-free row for every point; ``np.argmax`` keeps the first
    maximum. A row whose picked score is not finite picks -1 with NaN scores.
    """
    # One pick per (point, trial), gathered without copying a broadcast row.
    shape = combined.shape[:-1]
    best = np.broadcast_to(np.argmax(ranking, axis=-1), shape)
    index = (*np.indices(shape, sparse=True), best)
    eta1, eta2, combined = (a[index] for a in (eta1, eta2, combined))
    viable = np.isfinite(combined)
    score = CriterionScore(*(np.where(viable, a, np.nan).T for a in (eta1, eta2, combined)))
    return np.where(viable, best, -1).T, score


# ---------------------------------------------------------------------------
# selection entry points
# ---------------------------------------------------------------------------


def _block_gains(blocks: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every block (the last two axes)."""
    return np.sum(np.abs(blocks) ** 2, axis=(-2, -1))


def _channel_gain_picks(realization: ChannelRealization, config: SystemConfig,
                        combine: str) -> tuple:
    """``channel-gain``'s candidate rows and noise-free ``eta1``, ``eta2``
    and ``combined``, each ``(...)``.

    Pass one picks the ``T`` relays with the largest source-side
    ``trace(H H^H)``, each pickable once, by one stable sort of every
    trial's gains. Pass two walks the users: each takes, among the picked
    relays still holding a pick token, the one with the best relay->user
    trace, in every trial at once. Ties fall to the lowest relay index.
    :func:`relaysec.reference.channel_gain_select` is one trial's pick.
    """
    lead, t = realization.source_to_relay.shape[:-3], config.selected_relays
    theta1 = _block_gains(realization.source_to_relay).reshape(-1, config.pool_size)  # (B, P)
    trials = np.arange(len(theta1))
    picked = np.argsort(-theta1, axis=-1, kind="stable")[:, :t]
    eta1 = theta1[trials[:, None], picked].sum(axis=-1)
    combo = np.sort(picked, axis=-1)
    theta2 = _block_gains(realization.relay_to_user).reshape(len(theta1), config.pool_size, -1)
    theta2 = theta2[trials[:, None], combo]  # (B, T, M)
    tokens = np.ones(combo.shape, dtype=bool)
    eta2 = np.zeros(len(combo))
    for user in range(min(config.num_users, t)):
        # argmax keeps the first maximum: the lowest relay index among ties
        winner = np.argmax(np.where(tokens, theta2[:, :, user], -np.inf), axis=-1)
        eta2 += theta2[trials, winner, user]
        tokens[trials, winner] = False
    rows = _combination_rows(combo, config.pool_size, t)
    return tuple(a.reshape(lead) for a in (rows, eta1, eta2, combine_metrics(eta1, eta2, combine)))


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
    se_gain = float(np.sum(np.abs(realization.stacked_eve_channel()) ** 2, axis=1).sum())
    m1 = np.divide(_block_gains(realization.source_to_relay), se_gain,
                   out=np.full(config.pool_size, np.inf), where=se_gain > 0)
    gain_user = _block_gains(realization.relay_to_user).sum(axis=1)
    gain_eve = _block_gains(realization.relay_to_eve).sum(axis=1)
    m2 = np.divide(gain_user, gain_eve, out=np.full(config.pool_size, np.inf),
                   where=gain_eve > 0)
    picked = np.argsort(-combine_metrics(m1, m2, combine), kind="stable")[:config.selected_relays]
    eta1 = float(m1[picked].max())
    eta2 = float(m2[picked].max())
    combined = float(combine_metrics(eta1, eta2, combine))
    return tuple(sorted(picked.tolist())), CriterionScore(eta1, eta2, combined)


def select(kind: CriterionKind, realization: ChannelRealization, config: SystemConfig,
           candidates: CandidateSet | None = None, combine: str = "min", noise=None):
    """Run one selection criterion at every noise level of an ``(S,)`` grid.

    Returns ``(positions, score)``: ``positions[s]`` is the candidate-set
    row picked at noise power ``noise[s]``, -1 where no candidate is viable,
    and ``score`` holds ``(S,)`` arrays, NaN at -1. ``noise`` defaults to
    ``config``'s noise level. Given a block of trials, every array is
    ``(B, S)``, row ``b`` byte for byte trial ``b``'s pick alone.

    The exhaustive criteria score every candidate of ``candidates`` (built
    from ``realization`` when None; ``s-sinr`` reads the member channels
    instead) at every noise level in one pass and keep the best; ties go to
    the candidate that enumerates first. ``sr`` and ``s-sr`` read one table
    (see :class:`CandidateSet`). ``sinr`` and ``s-sinr`` rank by their
    noise-free scores, and ``channel-gain`` and ``max-ratio`` pick once, so
    these four return one row at every point. Only ``sr`` and ``max-ratio``
    see the eavesdropper channels; every other criterion gets
    ``realization.without_eavesdroppers()``, so it cannot read them.
    :func:`relaysec.reference.select_one` is this call as one combination.
    """
    if isinstance(kind, str):
        kind = CriterionKind.from_name(kind)
    if kind not in (CriterionKind.SECRECY_RATE, CriterionKind.MAX_RATIO):
        realization = realization.without_eavesdroppers()
    grid = _grid(config, noise)
    if kind is CriterionKind.CHANNEL_GAIN:
        rows, *free = _channel_gain_picks(realization, config, combine)
        return _every_point(rows, grid), CriterionScore(*(_every_point(a, grid) for a in free))
    if candidates is None and kind in EXHAUSTIVE_KINDS and kind is not CriterionKind.S_SINR:
        candidates = prepare_candidates(realization, config)  # s-sinr reads the channels
    if kind in (CriterionKind.SINR, CriterionKind.MAX_RATIO):
        return _select_trials(kind, realization, config, candidates, combine, grid)
    scores, ranking = _grid_scores(kind, realization, candidates, config, combine, grid)
    return _pick_best(*scores, ranking)


def _every_point(values, grid: np.ndarray) -> np.ndarray:
    """A pick or score that ignores the noise level, at every point of ``grid``."""
    return np.repeat(np.asarray(values)[..., None], len(grid), axis=-1)


def _select_trials(kind: CriterionKind, realization: ChannelRealization, config: SystemConfig,
                   cs: CandidateSet | None, combine: str, grid: np.ndarray) -> tuple:
    """:func:`select` for ``sinr`` or ``max-ratio``, on a realization already
    stripped for ``kind``: one trial, or a block's trials one at a time."""
    if realization.source_to_relay.ndim == 4:  # (B, P, N_i, N_t): a block
        n_b = len(realization.source_to_relay)
        positions = np.empty((n_b, len(grid)), dtype=np.intp)
        score = CriterionScore(*(np.empty((n_b, len(grid))) for _ in range(3)))
        for b in range(n_b):
            positions[b], one = _select_trials(kind, realization[b], config,
                                               None if cs is None else cs[b], combine, grid)
            score.eta1[b], score.eta2[b], score.combined[b] = one.eta1, one.eta2, one.combined
        return positions, score
    if kind is CriterionKind.MAX_RATIO:
        combo, score = max_ratio_select(realization, config, combine)
        row = _combination_rows(np.array(combo), config.pool_size, config.selected_relays)
        return _every_point(row, grid), CriterionScore(
            *(_every_point(a, grid) for a in (score.eta1, score.eta2, score.combined)))
    scores, ranking = _grid_scores(kind, realization, cs, config, combine, grid)
    return _pick_best(*scores, ranking)
