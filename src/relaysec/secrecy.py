"""End-to-end secrecy-rate evaluation of the chosen relay combinations.

This is the measurement side of the simulator: whichever criterion picked
the combination, the achieved rates are computed here from the ground-truth
channels, eavesdropper blocks included (:func:`secrecy_rate`). Phase 2 is
the selected relays' coordinated zero-forcing re-transmission on the stacked
user channels, mirroring the source-side precoding of phase 1.

One call evaluates a batch of picks across a block of trials: every pick is
a ``(row, noise level)`` pair, where a row is one candidate of one trial,
gathered out of its candidate set (:class:`relaysec.criteria.CandidateRows`),
and every pick's rates are the bytes that pick gets in a batch of its own.
So the candidate sets need not outlive selection (see
:mod:`relaysec.montecarlo`). The noise-free work runs once per row, and the
noise enters once per pick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CandidateRows, _combination_table, legit_rates
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


def secrecy_rate(realizations: ChannelRealization, rows: CandidateRows, config: SystemConfig,
                 noise, picks=None, *, half_duplex: bool = True, clamp: bool = True,
                 eve_model: str = "both", eve_aggregate: str = "sum") -> SecrecySample:
    """Achieved secrecy rates of a batch of picks: legitimate minus eavesdropper rate.

    ``realizations`` holds a block of trials, with a leading trial axis
    (:func:`relaysec.model.generate_realization` given a trial sequence), and
    ``rows`` candidates of its trials, gathered out of their candidate sets
    (:meth:`relaysec.criteria.CandidateSet.rows`). Pick ``j`` is row
    ``picks[j]`` of ``rows`` (each row once, in order, when None) evaluated
    at noise power ``noise[j]``; the sample's three rates are ``(J,)``
    arrays. A pick's precoders are its row's; the eavesdropper channels come
    from ``realizations`` at the row's trial. ``config`` supplies the
    dimensions. A row that is not ``valid`` raises
    :class:`SingularChannelError`, and an empty batch gives empty arrays.

    The legitimate rate of each hop is the ZF closed form
    ``sum_l log2(1 + 1 / (d_l^2 s))`` (see
    :mod:`relaysec.criteria`), and the weaker hop counts.
    Every eavesdropper overhears phase 1 through its source-side channel;
    with ``eve_model="both"`` it also overhears the relays' phase-2
    transmission. Per eavesdropper the per-user intercept rates accumulate,
    and eavesdroppers combine by ``sum`` (default) or worst-case ``max``.
    Both rates carry the two-slot factor 1/2 unless ``half_duplex`` is
    False, and both are reported on the sample.

    The secrecy rate is clamped at zero by default (an overheard link conveys
    no secret bits); set ``clamp=False`` for the signed difference.
    """
    _check_eve_options(eve_model, eve_aggregate)
    levels = np.asarray(noise, dtype=float)
    picks = np.arange(len(rows.valid)) if picks is None else np.asarray(picks, dtype=np.intp)
    if not rows.valid.all():
        combo = _combination_table(config.pool_size, config.selected_relays)[0][
            rows.positions[~rows.valid][0]]
        raise SingularChannelError(f"candidate {combo} has a singular hop channel")
    # Row stage, once per row: the eavesdroppers' noise-free terms.
    # Every eavesdropper's received blocks B = E W of the rows' precoders,
    # (P, R, K, N_e, N_t), phase 1 first.
    received = [realizations.source_to_eve[rows.trials] @ rows.precoders[:, None]]
    if eve_model == "both":
        members = _combination_table(config.pool_size, config.selected_relays)[1][rows.positions]
        received.append(realizations.relay_eve_channels(members, rows.trials)
                        @ rows.relay_precoders[:, None])
    # Per-user grams (P, R, K, M, k, k) of B and of the other users' columns.
    total, others, dropped = received_grams(np.array(received), config.num_users,
                                            config.user_antennas)
    # Pick stage, once per pick: the noise level enters.
    legit = legit_rates(rows.gains[picks], levels[:, None]).min(axis=1)
    rates = np.maximum(user_rates(total[:, picks], others[:, picks], dropped,
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
