"""Output checks applied to every rep the benchmark times.

The checks read the CSV that ``relaysec run`` writes, plus the selection
matrix of the sweep result for the ``sr``/``s-sr`` agreement count. They do
not compare against a bit-exact golden file: a change to the random draws
keeps the expected curves, so the curves are compared with reference curves
(``bench/reference/<workload>.csv``, recorded at a large trial count) within
``Z_LIMIT`` standard errors of their difference.
"""

from __future__ import annotations

import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Allowed distance between the pooled benchmark curve and the reference, in
# standard errors of their difference. Pooled over every rep of a run
# (hundreds of trials), the means are close to normal, so a correct program
# fails a point with probability below 1e-6.
Z_LIMIT = 5.0

HEADER = "criterion,snr_db,mean_sr,stderr,n_samples,n_discarded"


def parse_csv(data: bytes) -> dict:
    """``{(criterion, snr_db): (mean, stderr, n_samples, n_discarded)}``."""
    lines = data.decode("utf-8").split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        raise ValueError("CSV header or final newline missing")
    rows = {}
    for line in lines[1:-1]:
        name, snr, mean, stderr, n_samples, n_discarded = line.split(",")
        rows[(name, float(snr))] = (float(mean), float(stderr), int(n_samples),
                                    int(n_discarded))
    return rows


def load_reference(workload: str) -> dict:
    return parse_csv((REFERENCE_DIR / f"{workload}.csv").read_bytes())


def check_rows(rows: dict, trials: int) -> list:
    """Sample accounting and finite, non-negative means in one CSV."""
    errors = []
    for (name, snr), (mean, _, n_samples, n_discarded) in rows.items():
        if n_samples + n_discarded != trials:
            errors.append(f"{name} @ {snr:g} dB: n_samples + n_discarded = "
                          f"{n_samples + n_discarded}, expected {trials}")
        if not (math.isfinite(mean) and mean >= 0.0):
            errors.append(f"{name} @ {snr:g} dB: mean {mean!r} is not finite and >= 0")
    return errors


def pool_rows(row_sets: list) -> dict:
    """``{(criterion, snr_db): (mean, sum_sq, n_samples)}`` over reps of independent trials.

    ``sum_sq`` is the sum of squared deviations from the pooled mean; each
    rep's own part is recovered from its stderr, ``stderr**2 * n * (n - 1)``.
    """
    pooled = {}
    for key in row_sets[0]:
        parts = [rows[key][:3] for rows in row_sets if rows[key][2]]
        n_total = sum(n for _, _, n in parts)
        mean = sum(m * n for m, _, n in parts) / n_total if n_total else math.nan
        sum_sq = sum(_sum_sq(se, n) + n * (m - mean) ** 2 for m, se, n in parts)
        pooled[key] = (mean, sum_sq, n_total)
    return pooled


def _sum_sq(stderr: float, n: int) -> float:
    return stderr ** 2 * n * (n - 1)


def check_curves(pooled: dict, reference: dict, z_limit: float = Z_LIMIT) -> list:
    """Every mean of ``pool_rows`` within ``z_limit`` standard errors of the reference.

    A two-sample test with the per-trial variance pooled from both sides: a
    point whose rare non-zero rates one side never drew still gets the
    spread the other side saw, so neither a short run nor a reference of
    all zeros makes the tolerance 0.
    """
    if set(pooled) != set(reference):
        return [f"curve points {sorted(pooled)} differ from the reference's {sorted(reference)}"]
    errors = []
    for key, (mean, sum_sq, n) in pooled.items():
        ref_mean, ref_stderr, ref_n, _ = reference[key]
        if n == 0:
            errors.append(f"{key[0]} @ {key[1]:g} dB: no samples")
            continue
        variance = (sum_sq + _sum_sq(ref_stderr, ref_n)) / (n + ref_n - 2)
        tolerance = z_limit * math.sqrt(variance * (1.0 / n + 1.0 / ref_n))
        if not abs(mean - ref_mean) <= tolerance:
            errors.append(f"{key[0]} @ {key[1]:g} dB: mean {mean:.6g} vs reference "
                          f"{ref_mean:.6g} (tolerance {tolerance:.3g})")
    return errors


def sr_ssr_mismatches(result) -> tuple:
    """``(compared, mismatched)`` trials of ``sr`` against ``s-sr``.

    A trial is compared when both criteria picked a subset at some SNR point,
    and mismatched when their picks differ at any such point. Returns
    ``(0, 0)`` when the sweep does not run both criteria.
    """
    names = list(result.criteria)
    if "sr" not in names or "s-sr" not in names:
        return 0, 0
    full = result.selections[names.index("sr")]
    reduced = result.selections[names.index("s-sr")]
    both = (full >= 0) & (reduced >= 0)
    compared = int(both.any(axis=0).sum())
    mismatched = int((both & (full != reduced)).any(axis=0).sum())
    return compared, mismatched


def sr_equals_ssr(config) -> bool:
    """True where the paper's reduced rule is exact: ``K * N_e == N_t``."""
    return config.num_eves * config.eve_antennas == config.transmit_antennas
