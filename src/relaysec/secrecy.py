"""End-to-end secrecy-rate evaluation of the chosen relay combinations.

This is the measurement side of the simulator: whichever criterion picked
the combination, the achieved rates are computed here from the ground-truth
channels (eavesdropper blocks included). Rates are log-det mutual-information
terms with receiver noise added at the destination antennas; the two-hop
legitimate rate is the bottleneck of the hops, and the half-duplex two-slot
protocol contributes a factor 1/2 unless disabled.

Phase 2 uses the coordinated relay re-transmission: the selected relays
jointly apply a zero-forcing precoder on the stacked user channels, exactly
mirroring the source-side precoding of phase 1.

One call evaluates a batch of picks across a block of trials: every pick is
a ``(trial, candidate, noise level)`` triple, and every pick's rates are the
bytes that pick gets in a batch of its own. The work comes in two stages.
The pair stage runs once per distinct ``(trial, candidate)`` pair of the
batch: the streams' noise-free received powers, every eavesdropper's
received blocks ``E W`` in both phases, and their per-user grams. The
triple stage runs once per pick: it adds the noise level, takes the rates
and sums them over users, phases and eavesdroppers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CandidateSet, _combination_table, legit_rates
from .kernels import received_grams, user_rates
from .model import ChannelRealization, SingularChannelError, SystemConfig

EVE_MODELS = ("phase1", "both")
EVE_AGGREGATES = ("sum", "max")


@dataclass(frozen=True)
class SecrecySample:
    """Achieved rates of a batch of picks, ``(J,)`` arrays."""

    secrecy_rate: np.ndarray
    legit_rate: np.ndarray
    eve_rate: np.ndarray


def _check_eve_options(eve_model: str, eve_aggregate: str):
    if eve_model not in EVE_MODELS:
        raise ValueError(f"eve_model must be one of {EVE_MODELS}, got {eve_model!r}")
    if eve_aggregate not in EVE_AGGREGATES:
        raise ValueError(
            f"eve_aggregate must be one of {EVE_AGGREGATES}, got {eve_aggregate!r}"
        )


def secrecy_rate(realizations: ChannelRealization, candidates: CandidateSet, trials, positions,
                 config: SystemConfig, noise, *, half_duplex: bool = True, clamp: bool = True,
                 eve_model: str = "both", eve_aggregate: str = "sum") -> SecrecySample:
    """Achieved secrecy rates of a batch of picks: legitimate minus eavesdropper rate.

    ``realizations`` and ``candidates`` hold a block of trials, each with a
    leading trial axis (:func:`relaysec.model.generate_realization` given a
    trial sequence, and :func:`relaysec.criteria.prepare_candidates` of it).
    Pick ``j`` is row ``positions[j]`` of trial ``trials[j]``'s candidate
    set, evaluated at noise power ``noise[j]``; the sample's three rates are
    ``(J,)`` arrays. The pick's precoders are its rows of ``candidates``;
    the eavesdropper channels come from ``realizations``. Nothing is built
    for the other rows. ``config`` supplies the dimensions. A pick whose
    candidate is not ``valid`` raises :class:`SingularChannelError`, and an
    empty batch gives empty arrays.

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
    trials = np.asarray(trials, dtype=np.intp)
    positions = np.asarray(positions, dtype=np.intp)
    levels = np.asarray(noise, dtype=float)
    singular = ~candidates.valid[trials, positions]
    if singular.any():
        combo = candidates.combinations[positions[singular][0]]
        raise SingularChannelError(f"candidate {combo} has a singular hop channel")
    # Pair stage, once per distinct (trial, candidate): the noise-free terms.
    slots = np.zeros(candidates.valid.shape, dtype=bool)
    slots[trials, positions] = True
    pair_trials, pair_positions = np.nonzero(slots)
    pair_of = np.cumsum(slots).reshape(slots.shape) - 1
    pairs = pair_of[trials, positions]
    gains = candidates.stream_gains((pair_trials, pair_positions))
    # Every eavesdropper's received blocks B = E W of the picked precoders,
    # (P, pairs, K, N_e, N_t), phase 1 first.
    received = [realizations.source_to_eve[pair_trials]
                @ candidates.precoders[pair_trials, pair_positions][:, None]]
    if eve_model == "both":
        members = _combination_table(config.pool_size, config.selected_relays)[1][pair_positions]
        received.append(realizations.relay_eve_channels(members, pair_trials)
                        @ candidates.relay_precoders[pair_trials, pair_positions][:, None])
    # Per-user grams (P, pairs, K, M, k, k) of B and of the other users' columns.
    total, others, dropped = received_grams(np.array(received), config.num_users,
                                            config.user_antennas)
    # Triple stage, once per pick: the noise level enters.
    legit = legit_rates(gains[:, pairs], levels).min(axis=0)
    rates = np.maximum(user_rates(total[:, pairs], others[:, pairs], dropped,
                                  levels[:, None, None]), 0.0)
    # Users, then phases, in that order whatever the batch size: a multi-axis
    # sum may fuse axes, and so change the order, when K = 1.
    per_eve = rates.sum(axis=3).sum(axis=0)
    eve = per_eve.sum(axis=1) if eve_aggregate == "sum" else per_eve.max(axis=1)
    if half_duplex:
        legit, eve = 0.5 * legit, 0.5 * eve
    diff = legit - eve
    if clamp:
        diff = np.maximum(diff, 0.0)
    return SecrecySample(secrecy_rate=diff, legit_rate=legit, eve_rate=eve)
