"""Two-hop multiuser MIMO wiretap network model.

Network geometry, Rayleigh fading generation and batched zero-forcing
precoder construction. Channels are plain complex ndarrays; shapes follow
the dimensions in :class:`SystemConfig`, and a :class:`ChannelRealization`
holds one dense array per link type. The one-precoder-at-a-time versions of
the precoding and signal composition live in :mod:`relaysec.reference`.

Conventions used throughout the package:

* ``N_t = num_users * user_antennas`` active source antennas, and the
  selected relays contribute ``selected_relays * relay_antennas == N_t``
  receive antennas, so the stacked first-hop channel is square.
* Stream ``l`` (a row of the stacked first-hop channel) carries data for
  user ``l // user_antennas``; zero forcing maps stream ``l`` onto relay
  antenna ``l``.
* Symbols are unit power (``E[s s^H] = I``), and so is every precoder
  column; the noise power ``10 ** (-snr_db / 10)`` sets the SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

# Accepting channels up to the usual 1e12 condition bound would let the ZF
# product drift far above 1e-9 in float64, so admission is residual-based: a
# core X is admitted when the computed ||H X - I||_F is below this. Where an
# LU bound already proves that, zf_core_batch skips the product
# (see _lu_residual_bound).
ZF_RESIDUAL_TOL = 1e-9


class ConfigError(ValueError):
    """Network dimensions violate the model constraints."""


class SingularChannelError(RuntimeError):
    """Stacked source->relay channel too ill-conditioned for zero forcing."""


class EveChannelsUnavailableError(RuntimeError):
    """Eavesdropper channels requested from a stripped realization."""


def db_to_linear(value_db: float) -> float:
    return float(10.0 ** (value_db / 10.0))


def _is_integer_at_least(value, lowest: int) -> bool:
    try:
        return int(value) == value and value >= lowest
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and SNR of one network scenario.

    Every precoder column has unit power, so ``snr_db`` fixes the noise
    power alone: ``noise_power = 10 ** (-snr_db / 10)``.
    """

    num_users: int = 2
    user_antennas: int = 1
    relay_antennas: int = 1
    pool_size: int = 5
    selected_relays: int = 2
    num_eves: int = 2
    eve_antennas: int = 1
    snr_db: float = 10.0
    seed: int = 0

    def __post_init__(self):
        counts = {
            "num_users": self.num_users,
            "user_antennas": self.user_antennas,
            "relay_antennas": self.relay_antennas,
            "pool_size": self.pool_size,
            "selected_relays": self.selected_relays,
            "num_eves": self.num_eves,
            "eve_antennas": self.eve_antennas,
        }
        for name, value in counts.items():
            if not _is_integer_at_least(value, 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # math.comb and shapes take no float
        # SeedSequence, which keys the channel draws, takes no negative seed.
        if not _is_integer_at_least(self.seed, 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        # A non-finite SNR leaves every rate undefined; reject it before any sweep.
        if not np.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db}")
        if self.selected_relays > self.pool_size:
            raise ConfigError(
                "selected_relays must not exceed pool_size "
                f"(T <= |pool| violated: {self.selected_relays} > {self.pool_size})"
            )
        lhs = self.selected_relays * self.relay_antennas
        rhs = self.num_users * self.user_antennas
        if lhs != rhs:
            raise ConfigError(
                "selected_relays*relay_antennas must equal num_users*user_antennas "
                f"(T*N_i = M*N_r violated: {self.selected_relays}*{self.relay_antennas}"
                f" = {lhs} != {rhs} = {self.num_users}*{self.user_antennas})"
            )

    @property
    def transmit_antennas(self) -> int:
        return self.num_users * self.user_antennas

    @property
    def noise_power(self) -> float:
        return db_to_linear(-self.snr_db)

    def at_snr(self, snr_db: float) -> "SystemConfig":
        return replace(self, snr_db=float(snr_db))

    def noise_powers(self, snr_grid_db) -> np.ndarray:
        """``(S,)`` noise power at each grid point, ``at_snr(s).noise_power``.

        One scalar power per point: numpy's vectorized ``10**x`` differs from
        it in the last bit at some grid points.
        """
        return np.array([db_to_linear(-float(s)) for s in snr_grid_db])

    def stream_user(self, stream: int) -> int:
        """User index served by global stream ``stream``."""
        return stream // self.user_antennas

    def user_streams(self, user: int) -> slice:
        """Global stream (and relay antenna) indices carrying ``user``'s data."""
        if not 0 <= user < self.num_users:
            raise ValueError(f"unknown user index {user}")
        lo = user * self.user_antennas
        return slice(lo, lo + self.user_antennas)


# ---------------------------------------------------------------------------
# channel generation
# ---------------------------------------------------------------------------

# Sub-stream domains; each channel block gets its own counter address in the
# trial's keyed stream, so draws for relay i are identical no matter the pool
# size, eavesdropper count or the order in which blocks are materialized
# (needed for paired comparisons). Keyed by the ChannelRealization field each
# domain fills.
LINK_DOMAINS = {"source_to_relay": 0, "relay_to_user": 1, "source_to_eve": 2, "relay_to_eve": 3}


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) draws: unit-variance circular complex Gaussians."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


@dataclass
class ChannelRealization:
    """One flat-fading draw of every link in the network, one array per link type.

    ``source_to_relay`` is ``(P, N_i, N_t)``, ``relay_to_user`` is
    ``(P, M, N_r, N_i)``, ``source_to_eve`` is ``(K, N_e, N_t)`` and
    ``relay_to_eve`` is ``(P, K, N_e, N_i)``, with ``P`` the pool size, ``K``
    the eavesdropper count and ``N_i``/``N_r``/``N_e`` the relay, user and
    eavesdropper antenna counts. So ``source_to_relay[i]`` is relay ``i``'s
    block, ``relay_to_user[i, r]`` the block from relay ``i`` to user ``r``
    and ``relay_to_eve[i, k]`` the block from relay ``i`` to eavesdropper
    ``k``. The eavesdropper arrays are ``None`` on a stripped view.

    The accessors are the only code that knows how the member blocks of a
    selected set are stacked. Each takes one combination (a sequence of ``T``
    relay indices) or a ``(C, T)`` array of them, which adds a leading axis.

    A block of trials (:func:`generate_realization` given a trial array)
    puts a leading trial axis on every array; ``block[b]`` is trial ``b``'s
    realization, and the two legitimate-hop accessors and
    :meth:`stacked_eve_channel` keep the trial axis in front;
    :meth:`relay_eve_channels` takes a block with each row's trial.
    """

    source_to_relay: np.ndarray
    relay_to_user: np.ndarray
    source_to_eve: np.ndarray | None
    relay_to_eve: np.ndarray | None

    @property
    def has_eavesdroppers(self) -> bool:
        return self.source_to_eve is not None

    def without_eavesdroppers(self) -> "ChannelRealization":
        """View of this realization with all eavesdropper channels removed."""
        return ChannelRealization(
            source_to_relay=self.source_to_relay,
            relay_to_user=self.relay_to_user,
            source_to_eve=None,
            relay_to_eve=None,
        )

    def __getitem__(self, trial: int) -> "ChannelRealization":
        """Trial ``trial`` of a block of trials, as views."""
        return ChannelRealization(*(None if a is None else a[trial] for a in (
            self.source_to_relay, self.relay_to_user, self.source_to_eve, self.relay_to_eve)))

    # -- accessors ----------------------------------------------------------

    def stacked_source_channel(self, combination) -> np.ndarray:
        """First-hop channel of the selected set, ``(..., T*N_i, N_t)``:
        member blocks stacked row-wise."""
        blocks = np.take(self.source_to_relay, combination, axis=-3)
        return blocks.reshape(*blocks.shape[:-3], -1, blocks.shape[-1])

    def all_users_channel(self, combination) -> np.ndarray:
        """Second-hop channels of every user stacked row-wise,
        ``(..., M*N_r, T*N_i)`` (square for a full selection)."""
        blocks = _side_by_side(np.take(self.relay_to_user, combination, axis=-4))
        return blocks.reshape(*blocks.shape[:-3], -1, blocks.shape[-1])

    def _require_eves(self):
        if not self.has_eavesdroppers:
            raise EveChannelsUnavailableError(
                "eavesdropper channels are not available on this realization view"
            )

    def stacked_eve_channel(self) -> np.ndarray:
        """All eavesdropper source-side blocks stacked row-wise,
        ``(..., K*N_e, N_t)``, behind a block's trial axis."""
        self._require_eves()
        eves = self.source_to_eve
        return eves.reshape(*eves.shape[:-3], -1, eves.shape[-1])

    def relay_eve_channels(self, combination, trials) -> np.ndarray:
        """Second-hop leakage channels of every eavesdropper on a block of
        trials, ``(J, K, N_e, T*N_i)``: row ``j`` is for the ``(J, T)``
        ``combination`` row ``j`` in trial ``trials[j]``."""
        self._require_eves()
        return _side_by_side(self.relay_to_eve[np.asarray(trials)[:, None], combination])


def _side_by_side(blocks: np.ndarray) -> np.ndarray:
    """``(..., T, A, B, N_i)`` member blocks -> ``(..., A, B, T*N_i)``, concatenated column-wise."""
    moved = blocks.swapaxes(-4, -3).swapaxes(-3, -2)
    return moved.reshape(*moved.shape[:-2], moved.shape[-2] * moved.shape[-1])


@lru_cache(maxsize=8)
def _draw_layout(p: int, m: int, k: int, n_t: int, n_i: int, n_r: int, n_e: int) -> tuple:
    """``(layout, counters, sizes)`` of :func:`generate_realization`: every
    link's ``(link, (node axes, block shape))``, and every channel block's
    Philox counter and float count, in draw order, all tuples."""
    layout = {
        "source_to_relay": ((p,), (n_i, n_t)),
        "relay_to_user": ((p, m), (n_r, n_i)),
        "source_to_eve": ((k,), (n_e, n_t)),
        "relay_to_eve": ((p, k), (n_e, n_i)),
    }
    counters, sizes = [], []
    for link, (keys, block) in layout.items():
        for a, b in product(*map(range, keys + (1,) * (2 - len(keys)))):
            counters.append((0, b, a, LINK_DOMAINS[link]))
            sizes.append(2 * prod(block))
    return tuple(layout.items()), tuple(counters), tuple(sizes)


def generate_realization(config: SystemConfig, trial=0,
                         seed: int | None = None) -> ChannelRealization:
    """Draw i.i.d. CN(0,1) fading realizations of the whole network.

    ``trial`` is one trial index, or a sequence of them for a block of
    trials: the block's arrays then take a leading trial axis, and
    ``block[b]`` is byte for byte the realization of ``trial[b]`` alone.
    Deterministic given ``(seed, trial)``. Each trial keys NumPy's
    counter-based Philox4x64-10 with ``SeedSequence(seed, spawn_key=(trial,
    )).generate_state(2, uint64)``, and block ``(a, b)`` of link type
    ``link`` (``relay_to_user[a, b]``; ``source_to_relay[a]`` has ``b = 0``)
    is drawn from the stream at counter ``[0, b, a, LINK_DOMAINS[link]]``,
    so enlarging the relay pool or the eavesdropper count leaves the draws
    of existing entities untouched. One ``standard_normal`` call fills a
    block's real half and then its imaginary half, the stream of
    :func:`complex_normal`'s two calls.
    """
    base = config.seed if seed is None else seed
    trials = np.ravel(trial).tolist()
    layout, counters, sizes = _draw_layout(config.pool_size, config.num_users, config.num_eves,
                                           config.transmit_antennas, config.relay_antennas,
                                           config.user_antennas, config.eve_antennas)

    # One generator for the call; the setter writes every field of `state`
    # before each block, so its seed is never used. Python ints (the key as
    # a list, the buffer as a list) set it in half the time numpy words do.
    bit_generator = np.random.Philox(0)
    gen = np.random.Generator(bit_generator)
    key_counter = {}
    state = {"bit_generator": "Philox", "state": key_counter, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    draws = np.empty((len(trials), sum(sizes)))
    for row, t in zip(draws, trials):
        key_counter["key"] = np.random.SeedSequence(base, spawn_key=(t,)).generate_state(
            2, np.uint64).tolist()
        start = 0
        for counter, size in zip(counters, sizes):
            key_counter["counter"] = counter
            bit_generator.state = state
            gen.standard_normal(out=row[start:start + size])
            start += size

    arrays, start = {}, 0
    for link, (keys, block) in layout:
        end = start + 2 * prod(keys) * prod(block)
        halves = draws[:, start:end].reshape(len(trials), -1, 2, prod(block))
        arrays[link] = ((halves[:, :, 0] + 1j * halves[:, :, 1]) / np.sqrt(2.0)).reshape(
            (len(trials),) + keys + block)
        start = end
    realizations = ChannelRealization(**arrays)
    return realizations if np.ndim(trial) else realizations[0]


# ---------------------------------------------------------------------------
# zero-forcing precoder
# ---------------------------------------------------------------------------


def _lu_residual_bound(n: int) -> float:
    """``c(n)``, with a margin of ten: the computed ``||H X - I||_F`` of an
    ``n x n`` complex ``H`` and its inverse ``X`` from ``np.linalg.inv`` is
    at most ``c(n) ||H||_F ||X||_F``.

    ``inv`` solves ``H X = I`` by LU with partial pivoting (LAPACK
    ``zgesv``). By Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., Thm 9.4, column ``j`` of the computed ``X`` solves ``(H + E_j)
    x_j = e_j`` with ``|E_j| <= g(3n) |L||U|`` entry-wise, where ``g(k) = k u
    / (1 - k u)`` and ``u`` bounds one operation's relative error. So
    ``||H X - I||_F <= g(3n) ||L||_F ||U||_F ||X||_F``. Three things widen
    the real-arithmetic textbook form:

    * complex operations: ``u = sqrt(2) 4 eps / (1 - 4 eps)``, with ``eps``
      the unit roundoff, is Higham's Lemma 3.5 bound for a complex
      division, the worst of the four operations;
    * LAPACK picks a complex pivot by ``|re| + |im|``, so ``|l_ij| <=
      sqrt(2)`` rather than 1 and the growth factor is at most ``(1 +
      sqrt(2))^(n - 1)`` rather than ``2^(n - 1)``: ``||L||_F <= n`` and
      ``||U||_F <= sqrt(n (n + 1) / 2) (1 + sqrt(2))^(n - 1) ||H||_F``;
    * forming ``H X`` adds ``g(n) ||H||_F ||X||_F``.

    Subtracting ``I``, the three norms and a triangular solve that
    multiplies by reciprocal pivots move either side by a relative
    ``O(n^2 eps)``, far inside the margin. ``c(4)`` is 1.3e-11, so a 4x4
    core is admitted without its residual when ``||H||_F ||X||_F < 74``;
    as ``||H||_F ||H^-1||_F >= n``, a core of ``n >= 6`` never is.
    """
    eps = np.finfo(float).eps / 2
    u = math.sqrt(2.0) * 4 * eps / (1 - 4 * eps)

    def g(k):
        return k * u / (1 - k * u)

    growth = n * math.sqrt(n * (n + 1) / 2) * (1 + math.sqrt(2.0)) ** (n - 1)
    return 10.0 * (g(3 * n) * growth + g(n))


def zf_core_batch(stacked: np.ndarray, out=None):
    """Vectorized ZF construction over a batch of square stacked channels.

    Parameters
    ----------
    stacked : (..., C, n, n) complex array: one trial's C channels, after
        any leading trial axes.
    out : ``(matrix, core)`` arrays of ``stacked``'s shape to write the
        results into, or None for new ones.

    Returns
    -------
    matrix : (..., C, n, n) precoders, unit-power columns (garbage where invalid).
    core : (..., C, n, n) raw inverses.
    valid : (..., C) bool, True where the Frobenius norm of
        ``stacked @ core - I`` is below ``ZF_RESIDUAL_TOL`` and no column
        of the core is zero.

    The residual is taken only where a bound does not already prove it
    small: a core from the batched LU inverse is admitted when
    ``c(n) ||H||_F ||X||_F < ZF_RESIDUAL_TOL``, with the constant ``c(n)``
    of :func:`_lu_residual_bound` (Higham, Thm 9.4) and both squared norms
    in the normal float range, so no underflow voids the bound. The rest,
    and every core of a block that took :func:`_trial_cores`, whose SVD
    pseudo-inverse is not an LU solve, take ``stacked @ core`` and its norm.
    :func:`relaysec.reference.zf_core_exact` takes the residual of every
    candidate, and gives the same bytes.

    Never raises. When some member is exactly singular, every trial is
    inverted on its own, so a trial's cores do not depend on the other
    trials of its block (see :func:`_trial_cores`).
    """
    n = stacked.shape[-1]
    inverse, lu = _inverse_cores(stacked)
    matrix, core = (np.empty_like(inverse), np.empty_like(inverse)) if out is None else out
    np.copyto(core, inverse)
    del inverse
    col_norms = np.linalg.norm(core, axis=-2)
    valid = np.zeros(stacked.shape[:-2], dtype=bool)
    if lu:
        h2, x2 = _frobenius_sq(stacked), np.sum(col_norms * col_norms, axis=-1)
        tiny = np.finfo(float).tiny
        valid = ((_lu_residual_bound(n) ** 2 * h2 * x2 < ZF_RESIDUAL_TOL ** 2)
                 & (h2 >= tiny) & (x2 >= tiny))
    rest = ~valid
    if rest.any():
        residual = np.linalg.norm(stacked[rest] @ core[rest] - np.eye(n), axis=(-2, -1))
        valid[rest] = np.isfinite(residual) & (residual < ZF_RESIDUAL_TOL)
    return _scaled(core, col_norms, valid, matrix)


def _inverse_cores(stacked: np.ndarray) -> tuple:
    """``(core, lu)``: the inverses of ``stacked`` from one batched
    ``np.linalg.inv``, with ``lu`` True, or, when some member is exactly
    singular, from :func:`_trial_cores` for each trial, with ``lu`` False."""
    try:
        return np.linalg.inv(stacked), True
    except np.linalg.LinAlgError:
        trials = stacked.reshape(-1, *stacked.shape[-3:])
        return np.stack([_trial_cores(t) for t in trials]).reshape(stacked.shape), False


def _frobenius_sq(blocks: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix (the last two axes)."""
    flat = np.ascontiguousarray(blocks, dtype=complex).view(float)
    flat = flat.reshape(*flat.shape[:-2], -1)
    return np.einsum("...i,...i->...", flat, flat)


def _scaled(core: np.ndarray, col_norms: np.ndarray, valid: np.ndarray,
            matrix: np.ndarray | None = None) -> tuple:
    """``(matrix, core, valid)``: ``core``'s columns at unit power, into
    ``matrix`` when given, and ``valid`` cleared where a column is zero."""
    valid &= np.all(col_norms > 0, axis=-1)
    safe = np.where(col_norms > 0, col_norms, 1.0)
    return np.divide(core, safe[..., None, :], out=matrix), core, valid


def _trial_cores(stacked: np.ndarray) -> np.ndarray:
    """``(C, n, n)`` inverses of one trial's channels.

    With an exactly singular member the trial takes the SVD-based
    pseudo-inverse instead, and that member fails the residual check. A
    non-finite member enters the SVD as the identity, which keeps ``pinv``
    from raising, and gets a NaN core, which marks it invalid.
    """
    try:
        return np.linalg.inv(stacked)
    except np.linalg.LinAlgError:
        finite = np.isfinite(stacked).all(axis=(-2, -1))
        eye = np.eye(stacked.shape[-1])
        core = np.linalg.pinv(np.where(finite[:, None, None], stacked, eye))
        core[~finite] = np.nan
        return core
