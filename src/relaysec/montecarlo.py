"""Seeded Monte Carlo sweeps of mean secrecy rate versus SNR.

Each trial draws one channel realization keyed by ``(seed, trial)``, and
every requested criterion is evaluated on it (paired comparison). Criteria
take the noise level from noise-free terms (:mod:`relaysec.criteria`), so
the SNR grid is an array axis rather than a loop, as are a block's trials.

:func:`_run_trials` runs the trials in trial blocks, each cut into candidate
blocks (:func:`_block_steps`):

* A trial block makes one ``generate_realization`` call, and one ``select``
  call for each criterion whose pick reads the channels alone
  (``channel-gain``, ``max-ratio``, ``s-sinr``).
* Each candidate block makes one ``prepare_candidates`` call and one
  ``select`` call for each criterion that scores candidates (``sinr``,
  ``sr``, ``s-sr``; the last two read one table, see
  :class:`relaysec.criteria.CandidateSet`). The candidate rows its criteria
  picked are gathered as copies, and the next candidate block of the trial
  block is built into its arrays, a prefix of them for a short last block.
  The arrays are freed when the trial block's candidate blocks are done.
* The trial block ends with one ``secrecy_rate`` call on the distinct (row,
  SNR point) pairs its criteria picked; each sample is gathered from it, and
  the reason for every discard counted.

Every draw, core, pick and rate is byte for byte the one its trial gets
alone, and the reduction runs in fixed trial order, so the results depend
neither on the block sizes nor on the worker count (:func:`run_sweep`).
"""

from __future__ import annotations

import hashlib
import reprlib
import time
import traceback
from dataclasses import dataclass, field, fields
from math import comb

import numpy as np

from . import criteria as crit
from .criteria import CriterionKind
from .model import ConfigError, SystemConfig, _is_integer_at_least, generate_realization
from .secrecy import EVE_AGGREGATES, EVE_MODELS, secrecy_rate

# Bytes the trials of a candidate block, and again of a trial block, may hold
# (``_block_steps``). Temporaries come on top, so a trial block peaks at a few
# budgets (``tests/test_montecarlo.py::TestBlockPeak``). A C(12, 4) pool (760
# KB per trial) runs one trial per candidate block, and 16 per trial block.
BLOCK_BYTES = 256 * 1024

# Largest ``_candidate_bytes``, and ``_trial_bytes``, one trial may need: 64
# MiB, 88 times a C(12, 4) pool's candidate bytes on a grid of up to 12 points.
# A block of one trial peaks at a few times its arrays (``TestBlockPeak``), so
# a trial at the cap needs a few hundred MB; C(24, 6) single-antenna relays
# (0.47 GB) are over it, and so are C(12, 4) on a grid of 1060 points and two
# eavesdroppers of 10^8 antennas (44.8 GB of channels and draws).
TRIAL_BYTES_CAP = 64 * 2 ** 20

# The SNR range a sweep accepts. Every stream's received power over the
# noise, 1 / (d^2 s), is the SNR times a channel gain, and stays finite up to
# 3000 dB; at 3100 dB it overflowed. Below about -3082.5 dB the noise power
# 10 ** (-SNR / 10) overflows; points down to there ran clean with the picks
# of -3000 dB, so the range is symmetric.
MIN_SNR_DB, MAX_SNR_DB = -3000.0, 3000.0

# The most worker processes a sweep accepts, fixed so that no machine decides it.
MAX_WORKERS = 256


def _first_few(values) -> str:
    """The first three of ``values``, and ``...`` if there are more."""
    return ", ".join(map(reprlib.repr, values[:3])) + (", ..." if len(values) > 3 else "")


def _candidate_bytes(config: SystemConfig, points: int) -> int:
    """Bytes of one trial's candidate arrays or, on a ``points``-point grid,
    of the Cholesky factors of its ``s-sr`` term, whichever is more:
    ``8 C N_t^2 max(12, S)``. The arrays are six ``(C, N_t, N_t)`` complex
    ones (two hop channels, two cores, two precoders), 12 ``N_t^2`` floats a
    candidate, and the factors of ``W^H W + s I`` take ``N_t^2`` floats a
    candidate and grid point (:func:`relaysec.kernels.cholesky_factor`)."""
    n_combos = comb(config.pool_size, config.selected_relays)
    return 8 * n_combos * config.transmit_antennas ** 2 * max(12, points)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a scenario, an SNR grid, trial count and criteria list."""

    config: SystemConfig
    snr_grid_db: tuple
    trials: int = 2000
    criteria: tuple = (
        CriterionKind.SECRECY_RATE,
        CriterionKind.S_SR,
        CriterionKind.S_SINR,
        CriterionKind.CHANNEL_GAIN,
    )
    eve_model: str = "both"
    eve_aggregate: str = "sum"
    combine: str = "min"
    half_duplex: bool = True
    clamp: bool = True
    workers: int = 1

    def __post_init__(self):
        grid, bad = [], []
        try:
            for value in self.snr_grid_db:
                try:
                    grid.append(float(value))
                except (TypeError, ValueError):
                    bad.append(value)
        except TypeError:  # not a sequence
            bad = [self.snr_grid_db]
        if bad:
            raise ConfigError(f"snr_grid_db must be a sequence of numbers; {len(bad)} of "
                              f"{len(grid) + len(bad)} entries are not: {_first_few(bad)}")
        grid = tuple(grid)
        object.__setattr__(self, "snr_grid_db", grid)
        kinds = tuple(
            CriterionKind.from_name(k) if isinstance(k, str) else k for k in self.criteria
        )
        object.__setattr__(self, "criteria", kinds)
        if not grid:
            raise ConfigError("snr_grid_db must not be empty")
        # NaN fails the comparison too.
        bad = [s for s in grid if not MIN_SNR_DB <= s <= MAX_SNR_DB]
        if bad:
            raise ConfigError(
                f"snr_grid_db values must be finite and from {MIN_SNR_DB:g} to {MAX_SNR_DB:g} dB; "
                f"{len(bad)} of {len(grid)} points fail: {_first_few(bad)} dB")
        # Checked from math.comb, before any candidate is enumerated or noise level taken.
        cfg, points = self.config, len(grid)
        for what, size in (("candidate arrays", _candidate_bytes(cfg, points)),
                           ("channels, picks and temporaries", _trial_bytes(self))):
            if size > TRIAL_BYTES_CAP:
                raise ConfigError(
                    f"choosing {cfg.selected_relays} of {cfg.pool_size} relays on a "
                    f"{points}-point grid needs {size / 2 ** 20:.4g} MiB of {what} a trial, "
                    f"over the {TRIAL_BYTES_CAP // 2 ** 20} MiB cap")
        if not self.criteria:
            raise ConfigError("criteria must not be empty")
        if len(set(self.criteria)) != len(self.criteria):
            names = ", ".join(k.value for k in self.criteria)
            raise ConfigError(f"criteria must not repeat, got {names}")
        for name in ("trials", "workers"):
            value = getattr(self, name)
            if not _is_integer_at_least(value, 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.workers > MAX_WORKERS:
            raise ConfigError(f"workers must be at most {MAX_WORKERS}, got {self.workers}")
        if self.combine not in ("min", "sum"):
            raise ConfigError(f"combine must be 'min' or 'sum', got {self.combine!r}")
        if self.eve_model not in EVE_MODELS:
            raise ConfigError(f"eve_model must be one of {EVE_MODELS}, got {self.eve_model!r}")
        if self.eve_aggregate not in EVE_AGGREGATES:
            raise ConfigError(f"eve_aggregate must be one of {EVE_AGGREGATES}, "
                              f"got {self.eve_aggregate!r}")
        multi = (self.config.relay_antennas, self.config.user_antennas,
                 self.config.eve_antennas) != (1, 1, 1)
        if CriterionKind.MAX_RATIO in self.criteria and multi:
            raise ConfigError(
                "the max-ratio criterion is defined only for single-antenna "
                "nodes (relay_antennas == user_antennas == eve_antennas == 1)"
            )

    def digest(self) -> str:
        """Hash of every field but ``workers``, which cannot change the results."""
        payload = repr([(f.name, getattr(self, f.name)) for f in fields(self)
                        if f.name != "workers"]).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _nan_mean_stderr(samples: np.ndarray) -> tuple:
    """Count, mean and standard error of the mean over the last axis,
    skipping NaNs, without a warning. The mean has ``np.nanmean``'s bits, or
    is NaN where no sample is finite; the standard error is 0 where fewer
    than two are.
    """
    counts = np.sum(~np.isnan(samples), axis=-1)
    mean, stderr = np.full(counts.shape, np.nan), np.zeros(counts.shape)
    with np.errstate(invalid="ignore"):
        np.divide(np.nansum(samples, axis=-1), counts, out=mean, where=counts > 0)
        dev = samples - mean[..., None]
        ss = np.nansum(dev * dev, axis=-1)
    good = counts > 1
    stderr[good] = np.sqrt(ss[good] / (counts[good] - 1) / counts[good])
    return counts, mean, stderr


@dataclass(frozen=True)
class PairGap:
    """Paired mean gap (first minus second) per SNR point, with its standard
    error, and both averaged over the grid (NaN where no point has a gap)."""

    first: str
    second: str
    mean_gap: np.ndarray
    gap_stderr: np.ndarray
    grid_gap: float
    grid_stderr: float


def _summarize(samples: np.ndarray, names: tuple) -> dict:
    """The fields of :class:`SweepResult` that reduce ``samples``. The gaps
    are taken on paired trials (same realization), which removes the common
    channel variance from the comparison."""
    n_samples, mean, stderr = _nan_mean_stderr(samples)
    first, second = np.triu_indices(len(names), 1)
    _, gaps, gap_stderr = _nan_mean_stderr(samples[first] - samples[second])
    _, (grid_gaps, grid_stderr), _ = _nan_mean_stderr(np.stack([gaps, gap_stderr]))
    pairs = [PairGap(names[a], names[b], *rows) for a, b, *rows in zip(
        first.tolist(), second.tolist(), gaps, gap_stderr, grid_gaps.tolist(),
        grid_stderr.tolist())]
    return dict(n_samples=n_samples, n_discarded=samples.shape[-1] - n_samples,
                mean=mean, stderr=stderr, pairs=pairs)


@dataclass
class SweepResult:
    """Aggregated sweep output plus the per-trial sample matrix.

    ``samples[c, s, t]`` is the secrecy rate of criterion ``c`` at SNR point
    ``s`` in trial ``t`` (NaN where the trial was discarded);
    ``selections[c, s, t]`` indexes into ``combinations`` (-1 on discard).
    The samples are reduced once (:func:`_summarize`): ``n_samples``,
    ``n_discarded``, ``mean`` and ``stderr`` per ``(criterion, SNR point)``,
    and a :class:`PairGap` for every two criteria, in ``criteria`` order.
    ``meta["discards"]`` maps each reason a sample was discarded to its
    ``(criteria, SNR points)`` count (see :func:`_run_trials`).
    """

    spec: SweepSpec
    criteria: tuple
    snr_grid_db: np.ndarray
    samples: np.ndarray
    selections: np.ndarray
    combinations: list
    n_samples: np.ndarray
    n_discarded: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    pairs: list
    meta: dict = field(default_factory=dict)

    def curve(self, criterion) -> tuple:
        """(snr_grid, mean, stderr) arrays for one criterion."""
        name = criterion.value if isinstance(criterion, CriterionKind) else str(criterion)
        idx = list(self.criteria).index(name)
        return self.snr_grid_db, self.mean[idx], self.stderr[idx]


def _block_steps(spec: SweepSpec) -> tuple:
    """``(trial_step, candidate_step)``: the trials of one trial block and of
    one candidate block in :func:`_run_trials`.

    A candidate block holds as many trials as fit ``BLOCK_BYTES`` in
    :func:`_candidate_bytes`, at least one. A trial block holds as many
    trials as fit the same budget in what a trial holds outside its
    candidate arrays (:func:`_trial_bytes`), rounded down to a whole number
    of candidate blocks, at least one.
    """
    candidate_step = max(1, BLOCK_BYTES // _candidate_bytes(spec.config, len(spec.snr_grid_db)))
    blocks = max(1, BLOCK_BYTES // (candidate_step * _trial_bytes(spec)))
    return blocks * candidate_step, candidate_step


def _trial_bytes(spec: SweepSpec) -> int:
    """Bytes one trial holds outside its candidate arrays in a trial block:
    its channels, its picks and the rows they picked, and the largest
    temporary array of a step that needs no candidate set.

    * Channels: every complex entry of the realization.
    * Picks: one for every criterion and SNR point, with its rate and masks.
    * Rows: at most one a pick and one a candidate, each its two
      ``(N_t, N_t)`` complex precoders and ``2 N_t`` stream gains.
    * The largest temporary: the float draws of the channels; ``s-sinr``'s
      member sums, one float a candidate (``N_t`` where rows of eight or
      more are gathered whole, :func:`relaysec.criteria._member_sums`); or
      the per-user grams of every pick in both phases, in evaluation.
    """
    cfg = spec.config
    n_combos = comb(cfg.pool_size, cfg.selected_relays)
    n_t, k, n_e = cfg.transmit_antennas, cfg.num_eves, cfg.eve_antennas
    relay_antennas = cfg.pool_size * cfg.relay_antennas
    entries = 2 * relay_antennas * n_t + k * n_e * (n_t + relay_antennas)
    picks = len(spec.criteria) * len(spec.snr_grid_db)
    rows = min(picks, n_combos) * (32 * n_t ** 2 + 16 * n_t)
    ssinr = 8 * n_combos * (n_t if n_t >= 8 else 1) if CriterionKind.S_SINR in spec.criteria else 0
    own, other = min(n_e, n_t), min(n_e, n_t - cfg.user_antennas)
    grams = picks * 32 * k * max(own ** 2, cfg.num_users * other ** 2)
    return 16 * entries + 40 * picks + rows + max(16 * entries, ssinr, grams)


def _run_trials(spec: SweepSpec, trial_indices) -> tuple:
    """Evaluate a run of trials, a pure function of (spec, indices), by the
    pipeline of the module docstring.

    Returns ``(samples, selections, discards)``: the first two are
    ``(criteria, SNR points, trials)`` arrays, and ``discards`` maps each
    reason a sample is NaN to its ``(criteria, SNR points)`` count: no
    viable candidate (pick -1), an invalid candidate picked (a greedy
    criterion can pick one), or a rate that is not finite.
    """
    cfg0 = spec.config
    n_combos = comb(cfg0.pool_size, cfg0.selected_relays)
    noise = cfg0.noise_powers(spec.snr_grid_db)
    trial_step, candidate_step = _block_steps(spec)
    n_c, n_s = len(spec.criteria), len(noise)
    free = [c for c, kind in enumerate(spec.criteria) if kind in crit.CANDIDATE_FREE_KINDS]
    scored = [c for c in range(n_c) if c not in free]
    samples = np.full((len(trial_indices), n_c, n_s), np.nan)
    selections = np.full((len(trial_indices), n_c, n_s), -1, dtype=np.int32)
    discards = {reason: np.zeros((n_c, n_s), dtype=np.int64)
                for reason in ("no-viable-candidate", "invalid-pick", "non-finite-rate")}
    for first in range(0, len(trial_indices), trial_step):
        realizations = generate_realization(cfg0, trial=trial_indices[first:first + trial_step])
        n_b = len(realizations.source_to_relay)
        picks = np.empty((n_b, n_c, n_s), dtype=np.intp)
        for c in free:
            picks[:, c] = crit.select(spec.criteria[c], realizations, cfg0,
                                      combine=spec.combine, noise=noise)[0]
        usable = np.empty(picks.shape, dtype=bool)
        parts = []
        candidates = None
        for low in range(0, n_b, candidate_step):
            part = slice(low, low + candidate_step)
            members, mine = realizations[part], picks[part]
            if candidates is not None:  # a prefix, for a short last block
                candidates = candidates[:len(mine)]
            candidates = crit.prepare_candidates(members, cfg0, out=candidates)
            for c in scored:
                picks[part, c] = crit.select(spec.criteria[c], members, cfg0,
                                             candidates=candidates, combine=spec.combine,
                                             noise=noise)[0]
            ok = mine >= 0
            trial = np.broadcast_to(np.arange(len(mine))[:, None, None], mine.shape)
            ok[ok] = candidates.valid[trial[ok], mine[ok]]
            usable[part] = ok
            # The distinct (trial, candidate) pairs picked here, as copies,
            # so that the next candidate block is built into this set's arrays.
            slots = np.zeros(candidates.valid.shape, dtype=bool)
            slots[trial[ok], mine[ok]] = True
            parts.append(candidates.rows(*np.nonzero(slots), first=low))
        del candidates
        rows = crit.CandidateRows.concatenate(parts)
        # Each distinct (row, SNR point) pair is evaluated once.
        trial, _, point = np.nonzero(usable)
        row = np.searchsorted(rows.trials * n_combos + rows.positions,
                              trial * n_combos + picks[usable])
        wanted, inverse = np.unique(row * n_s + point, return_inverse=True)
        values = np.full(picks.shape, np.nan)
        values[usable] = secrecy_rate(
            realizations, rows, cfg0, noise[wanted % n_s], wanted // n_s,
            half_duplex=spec.half_duplex, clamp=spec.clamp, eve_model=spec.eve_model,
            eve_aggregate=spec.eve_aggregate,
        ).secrecy_rate[inverse]
        viable, kept = picks >= 0, np.isfinite(values)
        samples[first:first + n_b] = np.where(kept, values, np.nan)
        selections[first:first + n_b] = np.where(kept, picks, -1)
        discards["no-viable-candidate"] += np.sum(~viable, axis=0)
        discards["invalid-pick"] += np.sum(viable & ~usable, axis=0)
        discards["non-finite-rate"] += np.sum(usable & ~kept, axis=0)
    return samples.transpose(1, 2, 0), selections.transpose(1, 2, 0), discards


def _send_trials(conn, spec: SweepSpec, trial_indices):
    """Run :func:`_run_trials` in a child process and send ``(ok, payload)``
    back: its result, or the exception it raised with its formatted
    traceback, which does not survive pickling."""
    try:
        message = (True, _run_trials(spec, trial_indices))
    except Exception as exc:
        message = (False, (exc, traceback.format_exc()))
    conn.send(message)
    conn.close()


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the sweep described by ``spec`` and aggregate the curves.

    With more than one worker (and at least four trials) the trials are cut
    into ``min(workers, trials)`` contiguous chunks. One
    ``multiprocessing.Process`` of the default start method is started for
    each chunk after the first, and this process then runs the first chunk.
    Each chunk runs in its own blocks (:func:`_run_trials`), and each child
    sends back ``(ok, payload)`` over a one-way pipe: its result, or the
    exception it raised, which is raised here with the child's traceback
    as its cause. Every child is joined before the sweep returns, and
    terminated first if the sweep raised.
    """
    start = time.perf_counter()
    n_c, n_s = len(spec.criteria), len(spec.snr_grid_db)
    samples = np.full((n_c, n_s, spec.trials), np.nan)
    selections = np.full((n_c, n_s, spec.trials), -1, dtype=np.int32)
    all_trials = np.arange(spec.trials)
    if spec.workers == 1 or spec.trials < 4:
        samples[:], selections[:], discards = _run_trials(spec, all_trials)
    else:
        # Imported here: serial sweeps never need it, and it adds to every
        # `relaysec` start-up.
        import multiprocessing

        first, *rest = [c for c in np.array_split(all_trials, spec.workers) if c.size]
        children = []
        try:
            for indices in rest:
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(target=_send_trials,
                                                args=(sender, spec, indices))
                child.start()
                children.append((child, receiver))
                sender.close()  # the child's copy alone: a child that dies gives EOFError
            samples[:, :, first], selections[:, :, first], discards = _run_trials(spec, first)
            for indices, (_, receiver) in zip(rest, children):
                ok, payload = receiver.recv()
                if not ok:
                    exc, child_traceback = payload
                    raise exc from RuntimeError(f"in a sweep worker:\n{child_traceback}")
                samples[:, :, indices], selections[:, :, indices], counts = payload
                for reason, count in counts.items():
                    discards[reason] += count
        except BaseException:
            # A child blocked in sending its result would never exit.
            for child, _ in children:
                child.terminate()
            raise
        finally:
            for child, receiver in children:
                child.join()
                receiver.close()
    names = tuple(k.value for k in spec.criteria)
    summary = _summarize(samples, names)
    meta = {
        "seed": spec.config.seed,
        "spec_digest": spec.digest(),
        "elapsed_s": time.perf_counter() - start,
        "workers": spec.workers,
        "discards": discards,
    }
    combos = crit.enumerate_combinations(spec.config.pool_size, spec.config.selected_relays)
    return SweepResult(spec, names, np.asarray(spec.snr_grid_db, dtype=float), samples,
                       selections, combos, meta=meta, **summary)


# ---------------------------------------------------------------------------
# criterion comparison
# ---------------------------------------------------------------------------


@dataclass
class ComparisonReport:
    """The criteria ranked by mean at each SNR point, best first, and the
    paired gaps of every two criteria (:class:`PairGap`)."""

    snr_grid_db: np.ndarray
    rankings: list
    pairs: list

    def render(self) -> str:
        lines = ["ranking per SNR point (best first):"]
        for snr, order in zip(self.snr_grid_db.tolist(), self.rankings):
            lines.append(f"  {snr:6.1f} dB: {', '.join(order)}")
        if self.pairs:
            lines.append("paired mean gaps (first - second, averaged over the grid):")
            for pair in self.pairs:
                lines.append(f"  {pair.first} vs {pair.second}: {pair.grid_gap:+.4f} "
                             f"(typical stderr {pair.grid_stderr:.4f})")
        return "\n".join(lines)


def compare_criteria(result: SweepResult) -> ComparisonReport:
    """The ranking and the paired gaps of ``result``'s criteria."""
    names = result.criteria
    rankings = [[names[c] for c in sorted(range(len(names)), key=lambda c: (-means[c], names[c]))]
                for means in result.mean.T.tolist()]
    return ComparisonReport(result.snr_grid_db, rankings, result.pairs)
