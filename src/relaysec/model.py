"""Two-hop multiuser MIMO wiretap network model.

Network geometry, Rayleigh fading generation, zero-forcing precoding and the
phase-1 / phase-2 received-signal composition. Channels are plain complex
ndarrays; shapes follow the dimensions in :class:`SystemConfig`.

Conventions used throughout the package:

* ``N_t = num_users * user_antennas`` active source antennas, and the
  selected relays contribute ``selected_relays * relay_antennas == N_t``
  receive antennas, so the stacked first-hop channel is square.
* Stream ``l`` (a row of the stacked first-hop channel) carries data for
  user ``l // user_antennas``; zero forcing maps stream ``l`` onto relay
  antenna ``l``.
* Symbols are unit power (``E[s s^H] = I``); the transmit power lives in the
  precoder columns, each scaled to power ``signal_power``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Accepting channels up to the usual 1e12 condition bound would let the ZF
# product drift far above 1e-9 in float64, so admission is residual-based.
ZF_RESIDUAL_TOL = 1e-9


class ConfigError(ValueError):
    """Network dimensions violate the model constraints."""


class SingularChannelError(RuntimeError):
    """Stacked source->relay channel too ill-conditioned for zero forcing."""


class EveChannelsUnavailableError(RuntimeError):
    """Eavesdropper channels requested from a stripped realization."""


def db_to_linear(value_db: float) -> float:
    return float(10.0 ** (value_db / 10.0))


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and power levels of one network scenario.

    ``snr_db`` fixes the ratio ``signal_power / noise_power``; the signal
    power is held at ``signal_power`` and the noise power is derived from it.
    """

    num_users: int = 2
    user_antennas: int = 1
    relay_antennas: int = 1
    pool_size: int = 5
    selected_relays: int = 2
    num_eves: int = 2
    eve_antennas: int = 1
    snr_db: float = 10.0
    signal_power: float = 1.0
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
            if int(value) != value or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        # A zero or non-finite power or SNR leaves every rate undefined;
        # reject it here rather than fail inside a sweep.
        if not (0 < self.signal_power < np.inf):
            raise ConfigError(f"signal_power must be positive and finite, got {self.signal_power}")
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
        return self.signal_power * db_to_linear(-self.snr_db)

    def at_snr(self, snr_db: float) -> "SystemConfig":
        return replace(self, snr_db=float(snr_db))

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

# Sub-stream domains; each channel block gets its own keyed seed so draws for
# relay i are identical no matter the pool size, eavesdropper count or the
# order in which blocks are materialized (needed for paired comparisons).
_DOM_SOURCE_RELAY = 0
_DOM_RELAY_USER = 1
_DOM_SOURCE_EVE = 2
_DOM_RELAY_EVE = 3


def _block_rng(seed: int, trial: int, domain: int, a: int, b: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial), domain, int(a), int(b)))
    return np.random.default_rng(seq)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) draws: unit-variance circular complex Gaussians."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


@dataclass
class ChannelRealization:
    """One flat-fading draw of every link in the network.

    ``source_to_relay[i]`` is ``(relay_antennas, N_t)``,
    ``relay_to_user[(i, r)]`` is ``(user_antennas, relay_antennas)``,
    ``source_to_eve[k]`` is ``(eve_antennas, N_t)`` and
    ``relay_to_eve[(i, k)]`` is ``(eve_antennas, relay_antennas)``.
    The eavesdropper maps are ``None`` on a stripped view.
    """

    source_to_relay: dict
    relay_to_user: dict
    source_to_eve: dict | None
    relay_to_eve: dict | None

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

    # -- accessors ----------------------------------------------------------

    def stacked_source_channel(self, combination) -> np.ndarray:
        """First-hop channel of the selected set: member blocks stacked row-wise."""
        return np.vstack([self.source_to_relay[i] for i in combination])

    def user_channel(self, combination, user: int) -> np.ndarray:
        """Second-hop channel to ``user``: member blocks concatenated column-wise."""
        blocks = []
        for i in combination:
            key = (i, user)
            if key not in self.relay_to_user:
                raise ValueError(f"unknown user index {user}")
            blocks.append(self.relay_to_user[key])
        return np.hstack(blocks)

    def all_users_channel(self, combination, num_users: int) -> np.ndarray:
        """Second-hop channels of every user stacked row-wise (square)."""
        # (M, T, N_r, N_i) -> (M * N_r, T * N_i): member blocks side by side
        blocks = np.array([[self.relay_to_user[(i, r)] for i in combination]
                           for r in range(num_users)])
        m, t, n_r, n_i = blocks.shape
        return blocks.swapaxes(1, 2).reshape(m * n_r, t * n_i)

    def _require_eves(self):
        if not self.has_eavesdroppers:
            raise EveChannelsUnavailableError(
                "eavesdropper channels are not available on this realization view"
            )

    def eve_channel(self, eve: int) -> np.ndarray:
        self._require_eves()
        return self.source_to_eve[eve]

    def stacked_eve_channel(self) -> np.ndarray:
        """All eavesdropper source-side blocks stacked row-wise, (K*N_e, N_t)."""
        self._require_eves()
        return np.vstack([self.source_to_eve[k] for k in sorted(self.source_to_eve)])

    def relay_eve_channels(self, combination) -> np.ndarray:
        """Second-hop leakage channels of every eavesdropper, (K, N_e, T*relay_antennas)."""
        self._require_eves()
        # (K, T, N_e, N_i) -> (K, N_e, T * N_i): member blocks side by side
        blocks = np.array([[self.relay_to_eve[(i, k)] for i in combination]
                           for k in sorted(self.source_to_eve)])
        k, t, n_e, n_i = blocks.shape
        return blocks.swapaxes(1, 2).reshape(k, n_e, t * n_i)


def generate_realization(config: SystemConfig, trial: int = 0, seed: int | None = None) -> ChannelRealization:
    """Draw one i.i.d. CN(0,1) fading realization of the whole network.

    Deterministic given ``(seed, trial)``. Each block uses its own keyed
    sub-stream, so enlarging the relay pool or the eavesdropper count leaves
    the draws of existing entities untouched.
    """
    base = config.seed if seed is None else seed
    n_t = config.transmit_antennas
    src = {}
    r2u = {}
    for i in range(config.pool_size):
        rng = _block_rng(base, trial, _DOM_SOURCE_RELAY, i)
        src[i] = complex_normal(rng, (config.relay_antennas, n_t))
        for r in range(config.num_users):
            rng = _block_rng(base, trial, _DOM_RELAY_USER, i, r)
            r2u[(i, r)] = complex_normal(rng, (config.user_antennas, config.relay_antennas))
    s2e = {}
    r2e = {}
    for k in range(config.num_eves):
        rng = _block_rng(base, trial, _DOM_SOURCE_EVE, k)
        s2e[k] = complex_normal(rng, (config.eve_antennas, n_t))
        for i in range(config.pool_size):
            rng = _block_rng(base, trial, _DOM_RELAY_EVE, i, k)
            r2e[(i, k)] = complex_normal(rng, (config.eve_antennas, config.relay_antennas))
    return ChannelRealization(src, r2u, s2e, r2e)


# ---------------------------------------------------------------------------
# zero-forcing precoder
# ---------------------------------------------------------------------------


@dataclass
class Precoder:
    """Column-scaled zero-forcing precoder.

    ``core`` satisfies ``stacked_channel @ core ~= I``; ``matrix`` is ``core``
    with every column normalized and rescaled to power ``signal_power``, so
    the total transmit power is ``signal_power * N_t``.
    """

    matrix: np.ndarray
    core: np.ndarray
    signal_power: float
    user_antennas: int

    @property
    def num_users(self) -> int:
        return self.matrix.shape[1] // self.user_antennas

    def user_block(self, user: int) -> np.ndarray:
        if not 0 <= user < self.num_users:
            raise ValueError(f"unknown user index {user}")
        lo = user * self.user_antennas
        return self.matrix[:, lo:lo + self.user_antennas]


def zf_core_batch(stacked: np.ndarray, signal_power: float):
    """Vectorized ZF construction over a batch of square stacked channels.

    Parameters
    ----------
    stacked : (C, n, n) complex array.
    signal_power : per-column power after normalization.

    Returns
    -------
    matrix : (C, n, n) scaled precoders (garbage where invalid).
    core : (C, n, n) raw inverses.
    valid : (C,) bool, True where the ZF residual meets ``ZF_RESIDUAL_TOL``.
    residual : (C,) Frobenius norms of ``stacked @ core - I``.
    """
    c, n, _ = stacked.shape
    u, s, vh = np.linalg.svd(stacked)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_s = np.where(s > 0, 1.0 / s, 0.0)
    core = vh.conj().transpose(0, 2, 1) @ (inv_s[:, :, None] * u.conj().transpose(0, 2, 1))
    eye = np.eye(n)
    residual = np.linalg.norm(stacked @ core - eye, axis=(1, 2))
    valid = np.isfinite(residual) & (residual < ZF_RESIDUAL_TOL)
    col_norms = np.linalg.norm(core, axis=1)
    valid &= np.all(col_norms > 0, axis=1)
    safe = np.where(col_norms > 0, col_norms, 1.0)
    matrix = np.sqrt(signal_power) * core / safe[:, None, :]
    return matrix, core, valid, residual


def zf_precoder(stacked_channel: np.ndarray, signal_power: float = 1.0,
                user_antennas: int = 1) -> Precoder:
    """Zero-forcing precoder for a square stacked first-hop channel.

    ``user_antennas`` sets the per-user column partition. Raises
    :class:`SingularChannelError` when the inverse cannot reproduce the
    identity within ``ZF_RESIDUAL_TOL``; the caller should redraw the
    realization.
    """
    stacked_channel = np.asarray(stacked_channel)
    if stacked_channel.ndim != 2 or stacked_channel.shape[0] != stacked_channel.shape[1]:
        raise ValueError(f"stacked channel must be square, got {stacked_channel.shape}")
    matrix, core, valid, residual = zf_core_batch(stacked_channel[None], signal_power)
    if not valid[0]:
        raise SingularChannelError(
            f"stacked channel is numerically singular (ZF residual {residual[0]:.3e} "
            f"exceeds {ZF_RESIDUAL_TOL:.0e}); redraw the realization"
        )
    return Precoder(matrix=matrix[0], core=core[0], signal_power=float(signal_power),
                    user_antennas=user_antennas)


# ---------------------------------------------------------------------------
# signal composition
# ---------------------------------------------------------------------------


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
    out = h @ (precoder.matrix @ symbols)
    if noise_power > 0:
        if rng is None:
            raise ValueError("rng is required when noise_power > 0")
        out = out + np.sqrt(noise_power) * complex_normal(rng, out.shape)
    return out


def user_rx_signal(realization: ChannelRealization, combination, relay_signal: np.ndarray,
                   user: int, noise_power: float,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Phase-2 signal at ``user``: the concatenated relay->user channel applied
    to the relay-side vector, plus receiver noise."""
    h_r = realization.user_channel(combination, user)
    relay_signal = np.asarray(relay_signal)
    if relay_signal.shape != (h_r.shape[1], 1):
        raise ValueError(
            f"relay signal must have shape {(h_r.shape[1], 1)}, got {relay_signal.shape}"
        )
    out = h_r @ relay_signal
    if noise_power > 0:
        if rng is None:
            raise ValueError("rng is required when noise_power > 0")
        out = out + np.sqrt(noise_power) * complex_normal(rng, out.shape)
    return out


def relay_precoder(realization: ChannelRealization, combination,
                   config: SystemConfig) -> Precoder:
    """Coordinated zero-forcing precoder applied by the selected relays.

    The selected relays jointly hold exactly ``N_t`` antennas, so stacking
    every user's second-hop channel gives a square matrix and the relays can
    re-transmit the decoded streams interference-free, mirroring the source
    precoder. Column powers are normalized to ``signal_power`` each, keeping
    the second-hop SNR governed by ``snr_db`` instead of the fading scale.
    """
    stacked = realization.all_users_channel(combination, config.num_users)
    return zf_precoder(stacked, config.signal_power, config.user_antennas)


# ---------------------------------------------------------------------------
# signal covariances
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


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize a nominally Hermitian matrix (batched over leading axes)."""
    return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))
