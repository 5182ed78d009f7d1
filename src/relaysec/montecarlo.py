"""Seeded Monte Carlo sweeps of mean secrecy rate versus SNR.

Each trial draws one channel realization from a sub-stream keyed by
``(seed, trial)`` and evaluates every requested criterion on that same
realization (paired comparison). Between two SNR points only the receiver
noise changes, so each trial builds one :class:`CandidateSet`: the
candidate precoders, and lazily the noise-free covariance splits and grams,
are computed once and shared by every criterion and every SNR point. A
selection at one SNR point then costs a noise shift, one batched log-det
or division, and an argmax. Criteria that ignore the noise level select
once per trial. Results are bit-identical for a given spec regardless of
the worker count, because trials are keyed, independent work units and the
reduction runs in fixed trial order.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import criteria as crit
from .criteria import CriterionKind, NoViableCandidateError
from .model import ConfigError, SystemConfig, generate_realization
from .secrecy import EVE_AGGREGATES, EVE_MODELS, secrecy_rate

# Criteria whose choice does not depend on the noise level; selected once per
# trial instead of once per SNR point.
_SNR_FREE = (CriterionKind.CHANNEL_GAIN, CriterionKind.MAX_RATIO, CriterionKind.S_SINR)


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
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        kinds = tuple(
            CriterionKind.from_name(k) if isinstance(k, str) else k for k in self.criteria
        )
        object.__setattr__(self, "criteria", kinds)
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must not be empty")
        if not np.all(np.isfinite(self.snr_grid_db)):
            raise ConfigError(f"snr_grid_db values must be finite, got {self.snr_grid_db}")
        if not self.criteria:
            raise ConfigError("criteria must not be empty")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.combine not in ("min", "sum"):
            raise ConfigError(f"combine must be 'min' or 'sum', got {self.combine!r}")
        if self.eve_model not in EVE_MODELS:
            raise ConfigError(f"eve_model must be one of {EVE_MODELS}")
        if self.eve_aggregate not in EVE_AGGREGATES:
            raise ConfigError(f"eve_aggregate must be one of {EVE_AGGREGATES}")
        multi = (self.config.relay_antennas, self.config.user_antennas,
                 self.config.eve_antennas) != (1, 1, 1)
        if CriterionKind.MAX_RATIO in self.criteria and multi:
            raise ConfigError(
                "the max-ratio criterion is defined only for single-antenna "
                "nodes (relay_antennas == user_antennas == eve_antennas == 1)"
            )

    def digest(self) -> str:
        payload = repr((self.config, self.snr_grid_db, self.trials,
                        tuple(k.value for k in self.criteria), self.eve_model,
                        self.eve_aggregate, self.combine, self.half_duplex,
                        self.clamp)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class SweepResult:
    """Aggregated sweep output plus the per-trial sample matrix.

    ``samples[c, s, t]`` is the secrecy rate of criterion ``c`` at SNR point
    ``s`` in trial ``t`` (NaN where the trial was discarded);
    ``selections[c, s, t]`` indexes into ``combinations`` (-1 on discard).
    """

    spec: SweepSpec
    criteria: tuple
    snr_grid_db: np.ndarray
    samples: np.ndarray
    selections: np.ndarray
    combinations: list
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> np.ndarray:
        return np.sum(~np.isnan(self.samples), axis=2)

    @property
    def n_discarded(self) -> np.ndarray:
        return self.samples.shape[2] - self.n_samples

    @property
    def mean(self) -> np.ndarray:
        out = np.full(self.samples.shape[:2], np.nan)
        counts = self.n_samples
        with np.errstate(invalid="ignore"):
            sums = np.nansum(self.samples, axis=2)
        np.divide(sums, counts, out=out, where=counts > 0)
        return out

    @property
    def stderr(self) -> np.ndarray:
        counts = self.n_samples
        mean = self.mean
        dev = self.samples - mean[:, :, None]
        with np.errstate(invalid="ignore"):
            ss = np.nansum(dev * dev, axis=2)
        out = np.zeros(self.samples.shape[:2])
        good = counts > 1
        out[good] = np.sqrt(ss[good] / (counts[good] - 1) / counts[good])
        return out

    def curve(self, criterion) -> tuple:
        """(snr_grid, mean, stderr) arrays for one criterion."""
        name = criterion.value if isinstance(criterion, CriterionKind) else str(criterion)
        idx = list(self.criteria).index(name)
        return self.snr_grid_db, self.mean[idx], self.stderr[idx]


def _run_trials(spec: SweepSpec, trial_indices) -> tuple:
    """Evaluate a block of trials; pure function of (spec, indices)."""
    cfg0 = spec.config
    configs = [cfg0.at_snr(snr) for snr in spec.snr_grid_db]
    kinds = spec.criteria
    n_c, n_s = len(kinds), len(configs)
    block = len(trial_indices)
    samples = np.full((n_c, n_s, block), np.nan)
    selections = np.full((n_c, n_s, block), -1, dtype=np.int32)
    for b, trial in enumerate(trial_indices):
        realization = generate_realization(cfg0, trial=int(trial))
        cands = crit.prepare_candidates(realization, cfg0)
        fixed_choice = {kind: _try_select(kind, realization, cfg0, cands, spec)
                        for kind in kinds if kind in _SNR_FREE}
        for s, cfg in enumerate(configs):
            evaluated = {}
            for c, kind in enumerate(kinds):
                if kind in _SNR_FREE:
                    combo = fixed_choice[kind]
                else:
                    combo = _try_select(kind, realization, cfg, cands, spec)
                if combo is None:
                    continue
                value = evaluated.get(combo)
                if value is None:
                    precoder = cands.precoder_for(combo)
                    relay_pre = cands.relay_precoder_for(combo)
                    if precoder is None or relay_pre is None:
                        evaluated[combo] = np.nan
                        continue
                    sample = secrecy_rate(
                        realization, precoder, combo, cfg, criterion=kind.value,
                        half_duplex=spec.half_duplex, clamp=spec.clamp,
                        eve_model=spec.eve_model, eve_aggregate=spec.eve_aggregate,
                        relay_pre=relay_pre,
                    )
                    value = sample.secrecy_rate
                    evaluated[combo] = value
                if not np.isfinite(value):
                    continue
                samples[c, s, b] = value
                selections[c, s, b] = cands.position(combo)
    return samples, selections


def _try_select(kind, realization, cfg, cands, spec):
    try:
        combo, _ = crit.select(kind, realization, cfg, candidates=cands,
                               combine=spec.combine)
        return combo
    except NoViableCandidateError:
        return None


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the sweep described by ``spec`` and aggregate the curves."""
    start = time.perf_counter()
    n_c, n_s = len(spec.criteria), len(spec.snr_grid_db)
    samples = np.full((n_c, n_s, spec.trials), np.nan)
    selections = np.full((n_c, n_s, spec.trials), -1, dtype=np.int32)
    all_trials = np.arange(spec.trials)
    if spec.workers == 1 or spec.trials < 4:
        block_samples, block_selections = _run_trials(spec, all_trials)
        samples[:] = block_samples
        selections[:] = block_selections
    else:
        chunks = [c for c in np.array_split(all_trials, spec.workers * 4) if c.size]
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            for indices, (s_blk, sel_blk) in zip(
                chunks, pool.map(_run_trials, repeat(spec), chunks)
            ):
                samples[:, :, indices] = s_blk
                selections[:, :, indices] = sel_blk
    combos = crit.enumerate_combinations(spec.config.pool_size,
                                         spec.config.selected_relays)
    meta = {
        "seed": spec.config.seed,
        "spec_digest": spec.digest(),
        "elapsed_s": time.perf_counter() - start,
        "workers": spec.workers,
    }
    return SweepResult(
        spec=spec,
        criteria=tuple(k.value for k in spec.criteria),
        snr_grid_db=np.asarray(spec.snr_grid_db, dtype=float),
        samples=samples,
        selections=selections,
        combinations=combos,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# criterion comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairGap:
    """Paired mean gap (first minus second) per SNR point."""

    first: str
    second: str
    mean_gap: np.ndarray
    gap_stderr: np.ndarray


@dataclass
class ComparisonReport:
    criteria: tuple
    snr_grid_db: np.ndarray
    means: np.ndarray
    rankings: list
    pairs: list

    def render(self) -> str:
        lines = ["ranking per SNR point (best first):"]
        for s, snr in enumerate(self.snr_grid_db):
            order = ", ".join(self.rankings[s])
            lines.append(f"  {snr:6.1f} dB: {order}")
        if self.pairs:
            lines.append("paired mean gaps (first - second, averaged over the grid):")
            for pair in self.pairs:
                avg = float(np.nanmean(pair.mean_gap))
                se = float(np.nanmean(pair.gap_stderr))
                lines.append(f"  {pair.first} vs {pair.second}: {avg:+.4f} "
                             f"(typical stderr {se:.4f})")
        return "\n".join(lines)


def compare_criteria(result: SweepResult) -> ComparisonReport:
    """Per-SNR ranking plus paired gap statistics between criterion pairs.

    Gaps are computed on paired trials (same realization), which removes the
    common channel variance from the comparison. A single-criterion result
    yields an empty pair table.
    """
    names = list(result.criteria)
    means = result.mean
    rankings = []
    for s in range(len(result.snr_grid_db)):
        order = sorted(range(len(names)), key=lambda c: (-means[c, s], names[c]))
        rankings.append([names[c] for c in order])
    pairs = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            diff = result.samples[a] - result.samples[b]
            counts = np.sum(~np.isnan(diff), axis=1)
            sums = np.nansum(diff, axis=1)
            mean_gap = np.full(counts.shape, np.nan)
            np.divide(sums, counts, out=mean_gap, where=counts > 0)
            dev = diff - mean_gap[:, None]
            ss = np.nansum(dev * dev, axis=1)
            gap_se = np.zeros(counts.shape)
            good = counts > 1
            gap_se[good] = np.sqrt(ss[good] / (counts[good] - 1) / counts[good])
            pairs.append(PairGap(names[a], names[b], mean_gap, gap_se))
    return ComparisonReport(
        criteria=result.criteria,
        snr_grid_db=result.snr_grid_db,
        means=means,
        rankings=rankings,
        pairs=pairs,
    )
