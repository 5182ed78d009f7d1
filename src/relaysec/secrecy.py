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

from .criteria import CandidateSet, legit_rates
from .kernels import rate_bits, split_covariances
from .model import ChannelRealization, SingularChannelError, SystemConfig

EVE_MODELS = ("phase1", "both")
EVE_AGGREGATES = ("sum", "max")


@dataclass(frozen=True)
class SecrecySample:
    """Achieved rates of one (realization, combination) evaluation, or
    ``(J,)`` arrays of them for a batch of pairs."""

    criterion: str
    snr_db: float
    secrecy_rate: float
    legit_rate: float
    eve_rate: float
    combination: tuple


def _check_eve_options(eve_model: str, eve_aggregate: str):
    if eve_model not in EVE_MODELS:
        raise ValueError(f"eve_model must be one of {EVE_MODELS}, got {eve_model!r}")
    if eve_aggregate not in EVE_AGGREGATES:
        raise ValueError(
            f"eve_aggregate must be one of {EVE_AGGREGATES}, got {eve_aggregate!r}"
        )


def secrecy_rate(realization: ChannelRealization, candidates: CandidateSet, combination,
                 config: SystemConfig, criterion: str = "",
                 half_duplex: bool = True, clamp: bool = True,
                 eve_model: str = "both", eve_aggregate: str = "sum",
                 noise=None) -> SecrecySample:
    """Achieved secrecy rate of ``combination``: legitimate minus eavesdropper rate.

    The pick's precoders are its rows of ``candidates`` (the set its
    criterion chose from, built from the same realization); the eavesdropper
    channels come from ``realization``. Nothing is built for the other rows.
    ``config`` supplies the dimensions and, for a single combination, the
    noise level. A pick whose candidate is not ``valid`` raises
    :class:`SingularChannelError`.

    Batched form: given a ``(J,)`` ``noise`` array, ``combination`` is a
    ``(J,)`` array of candidate positions (rows of ``candidates``) and pair
    ``j`` is evaluated at noise power ``noise[j]``; the sample's three rates
    are then ``(J,)`` arrays, its ``combination`` the positions and its
    ``snr_db`` None. A single combination is the one-pair batch at
    ``config``'s noise level.

    The legitimate rate of each hop is the ZF closed form
    ``sum_l log2(1 + P / (d_l^2 s))`` (see :class:`CandidateSet`), and the
    weaker hop counts. Every eavesdropper overhears phase 1 through its
    source-side channel; with ``eve_model="both"`` it also overhears the
    relays' phase-2 transmission. Per eavesdropper the per-user intercept
    rates accumulate, and eavesdroppers combine by ``sum`` (default) or
    worst-case ``max``. Both rates carry the two-slot factor 1/2 unless
    ``half_duplex`` is False, and both are reported on the sample.

    The secrecy rate is clamped at zero by default (an overheard link conveys
    no secret bits); set ``clamp=False`` for the signed difference.
    """
    _check_eve_options(eve_model, eve_aggregate)
    if noise is None:
        positions = np.array([candidates.position(combination)])
        levels = np.array([config.noise_power])
    else:
        positions = np.asarray(combination, dtype=np.intp)
        levels = np.asarray(noise, dtype=float)
    singular = ~candidates.valid[positions]
    if singular.any():
        combo = candidates.combinations[positions[singular][0]]
        raise SingularChannelError(f"candidate {combo} has a singular hop channel")
    n_e, n_t = config.eve_antennas, config.transmit_antennas
    legit = legit_rates(candidates.stream_gains(positions), levels).min(axis=0)
    # Every eavesdropper's received blocks B = E W of the picked precoders,
    # (P, J, K, N_e, N_t), phase 1 first.
    source_eve = realization.stacked_eve_channel().reshape(-1, n_e, n_t)
    received = [source_eve @ candidates.precoders[positions, None]]
    if eve_model == "both":
        members = np.array([candidates.combinations[p] for p in positions])
        received.append(realization.relay_eve_channels(members)
                        @ candidates.relay_precoders[positions, None])
    # Per-user grams (P, J, K, M, N_e, N_e): B_u B_u^H and the other users' sum.
    own, others = split_covariances(np.array(received), config.num_users, config.user_antennas)
    noise_in = others + levels[:, None, None, None, None] * np.eye(n_e)
    rates = np.maximum(rate_bits(own, noise_in), 0.0)
    # Users, then phases, in that order whatever the batch size: a multi-axis
    # sum may fuse axes, and so change the order, when K = 1.
    per_eve = rates.sum(axis=3).sum(axis=0)
    eve = per_eve.sum(axis=1) if eve_aggregate == "sum" else per_eve.max(axis=1)
    if half_duplex:
        legit, eve = 0.5 * legit, 0.5 * eve
    diff = legit - eve
    if clamp:
        diff = np.maximum(diff, 0.0)
    if noise is not None:
        return SecrecySample(criterion=str(criterion), snr_db=None, secrecy_rate=diff,
                             legit_rate=legit, eve_rate=eve, combination=positions)
    return SecrecySample(
        criterion=str(criterion),
        snr_db=config.snr_db,
        secrecy_rate=float(diff[0]),
        legit_rate=float(legit[0]),
        eve_rate=float(eve[0]),
        combination=tuple(combination),
    )
