"""End-to-end secrecy-rate evaluation of a chosen relay combination.

This is the measurement side of the simulator: whichever criterion picked
the combination, the achieved rates are computed here from the ground-truth
channels (eavesdropper blocks included). Rates are log-det mutual-information
terms with receiver noise added at the destination antennas; the two-hop
legitimate rate is the bottleneck of the hops, and the half-duplex two-slot
protocol contributes a factor 1/2 unless disabled.

Phase 2 uses the coordinated relay re-transmission: the selected relays
jointly apply a zero-forcing precoder on the stacked user channels, exactly
mirroring the source-side precoding of phase 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .criteria import _rate_bits, split_covariances
from .model import ChannelRealization, Precoder, SystemConfig

EVE_MODELS = ("phase1", "both")
EVE_AGGREGATES = ("sum", "max")


@dataclass(frozen=True)
class SecrecySample:
    """Achieved rates of one (realization, combination) evaluation."""

    criterion: str
    snr_db: float
    secrecy_rate: float
    legit_rate: float
    eve_rate: float
    combination: tuple


def _link_rates(channels: np.ndarray, rd: np.ndarray, ri: np.ndarray,
                noise: float) -> np.ndarray:
    """Clamped log-det rates of receivers against covariance pairs.

    ``channels`` is ``(..., k, n)``, broadcast against ``rd``/``ri`` of shape
    ``(..., n, n)``; receiver noise enters outside the sandwich.
    """
    channels_h = channels.conj().swapaxes(-1, -2)
    gram_num = channels @ rd @ channels_h
    gram_den = channels @ ri @ channels_h + noise * np.eye(channels.shape[-2])
    return np.maximum(_rate_bits(gram_num, gram_den), 0.0)


def _resolve_relay_precoder(realization, combination, config, relay_pre):
    if relay_pre is not None:
        return relay_pre
    return model.relay_precoder(realization, combination, config)


def _hop_covariances(config: SystemConfig, *precoders: Precoder) -> tuple:
    """``(rd, ri)`` of shape ``(P, M, N_t, N_t)``, one row per precoder."""
    matrices = np.array([p.matrix for p in precoders])
    return split_covariances(matrices, config.num_users, config.user_antennas)


def _legit(realization, combination, config, rd, ri, half_duplex) -> float:
    """Two-hop legitimate rate from both hops' covariance splits."""
    m, n_r = config.num_users, config.user_antennas
    channels = np.array([
        realization.stacked_source_channel(combination),
        realization.all_users_channel(combination, m),
    ]).reshape(2, m, n_r, -1)
    per_hop = _link_rates(channels, rd, ri, config.noise_power).sum(axis=1)
    rate = float(per_hop.min())
    return 0.5 * rate if half_duplex else rate


def _eve(realization, combination, config, rd, ri, half_duplex, eve_aggregate) -> float:
    """Eavesdropper rate over the phases in ``rd``/``ri`` (phase 1 first)."""
    n_e, n_t = config.eve_antennas, config.transmit_antennas
    channels = [realization.stacked_eve_channel().reshape(-1, n_e, n_t)]
    if len(rd) == 2:
        channels.append(realization.relay_eve_channels(combination))
    # (P, K, 1, N_e, N_t) against (P, 1, M, N_t, N_t): rates (P, K, M)
    rates = _link_rates(np.array(channels)[:, :, None], rd[:, None], ri[:, None],
                        config.noise_power)
    per_eve = rates.sum(axis=(0, 2))
    rate = float(per_eve.sum() if eve_aggregate == "sum" else per_eve.max())
    return 0.5 * rate if half_duplex else rate


def _check_eve_options(eve_model: str, eve_aggregate: str):
    if eve_model not in EVE_MODELS:
        raise ValueError(f"eve_model must be one of {EVE_MODELS}, got {eve_model!r}")
    if eve_aggregate not in EVE_AGGREGATES:
        raise ValueError(
            f"eve_aggregate must be one of {EVE_AGGREGATES}, got {eve_aggregate!r}"
        )


def legit_rate(realization: ChannelRealization, precoder: Precoder, combination,
               config: SystemConfig, half_duplex: bool = True,
               relay_pre: Precoder | None = None) -> float:
    """Legitimate rate of the two-hop link, bits/s/Hz.

    Sum over users of the per-hop log-det rates, bottlenecked over the hops,
    times the two-slot factor.
    """
    relay_pre = _resolve_relay_precoder(realization, combination, config, relay_pre)
    rd, ri = _hop_covariances(config, precoder, relay_pre)
    return _legit(realization, combination, config, rd, ri, half_duplex)


def eve_rate(realization: ChannelRealization, precoder: Precoder, combination,
             config: SystemConfig, half_duplex: bool = True,
             eve_model: str = "both", eve_aggregate: str = "sum",
             relay_pre: Precoder | None = None) -> float:
    """Total eavesdropper intercept rate, bits/s/Hz.

    Every eavesdropper always overhears phase 1 through its source-side
    channel; with ``eve_model="both"`` it also overhears the relays' phase-2
    transmission. Per eavesdropper the per-user intercept rates accumulate;
    eavesdroppers combine by ``sum`` (default) or worst-case ``max``.
    Evaluation always uses the true eavesdropper channels, even for criteria
    that selected without them.
    """
    _check_eve_options(eve_model, eve_aggregate)
    precoders = [precoder]
    if eve_model == "both":
        precoders.append(_resolve_relay_precoder(realization, combination, config,
                                                 relay_pre))
    rd, ri = _hop_covariances(config, *precoders)
    return _eve(realization, combination, config, rd, ri, half_duplex, eve_aggregate)


def secrecy_rate(realization: ChannelRealization, precoder: Precoder, combination,
                 config: SystemConfig, criterion: str = "",
                 half_duplex: bool = True, clamp: bool = True,
                 eve_model: str = "both", eve_aggregate: str = "sum",
                 relay_pre: Precoder | None = None) -> SecrecySample:
    """Achieved secrecy rate: legitimate rate minus eavesdropper rate.

    Clamped at zero by default (an overheard link conveys no secret bits);
    set ``clamp=False`` for the signed difference. Each precoder is split
    into per-user covariances once, for both the legitimate and the
    eavesdropper side.
    """
    _check_eve_options(eve_model, eve_aggregate)
    relay_pre = _resolve_relay_precoder(realization, combination, config, relay_pre)
    rd, ri = _hop_covariances(config, precoder, relay_pre)
    legit = _legit(realization, combination, config, rd, ri, half_duplex)
    phases = 2 if eve_model == "both" else 1
    eve = _eve(realization, combination, config, rd[:phases], ri[:phases],
               half_duplex, eve_aggregate)
    diff = legit - eve
    if clamp:
        diff = max(diff, 0.0)
    return SecrecySample(
        criterion=str(criterion),
        snr_db=config.snr_db,
        secrecy_rate=float(diff),
        legit_rate=float(legit),
        eve_rate=float(eve),
        combination=tuple(combination),
    )
