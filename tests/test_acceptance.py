"""Acceptance gate: the seven package-level criteria, at fixed tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s``). The
figure-shape sweep is shared between the criteria that consume it.
"""

import time

import numpy as np
import pytest

from relaysec.cli import (
    PRESETS,
    build_spec,
    emit_csv,
    verify_detident,
    verify_ssinr_diag,
    verify_ssr_oracle,
    verify_zf,
)
from relaysec.criteria import CriterionKind, prepare_candidates
from relaysec.model import SystemConfig, generate_realization
from relaysec.montecarlo import SweepSpec, run_sweep
from relaysec.reference import interference_covariance, pair_secrecy_rate, zf_precoder

GRID = tuple(float(s) for s in range(0, 21, 2))


def figure_config(**kw):
    base = dict(num_users=2, user_antennas=1, relay_antennas=1, pool_size=5,
                selected_relays=2, num_eves=2, eve_antennas=1, snr_db=0.0, seed=2024)
    base.update(kw)
    return SystemConfig(**base)


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} ({detail})")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def _paired_gap(samples_a, samples_b):
    """Per-SNR mean and standard error of the paired difference a - b."""
    diff = samples_a - samples_b
    mean = diff.mean(axis=1)
    se = diff.std(axis=1, ddof=1) / np.sqrt(diff.shape[1])
    return mean, se


@pytest.fixture(scope="module")
def figure_sweep():
    spec = SweepSpec(
        config=figure_config(),
        snr_grid_db=GRID,
        trials=2000,
        criteria=(CriterionKind.SECRECY_RATE, CriterionKind.S_SR,
                  CriterionKind.S_SINR, CriterionKind.CHANNEL_GAIN),
    )
    start = time.perf_counter()
    result = run_sweep(spec)
    return result, time.perf_counter() - start


def test_acceptance_1_reduced_secrecy_oracle():
    start = time.perf_counter()
    ok, lines = verify_ssr_oracle(draws=1000)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, "reduced secrecy-term oracle", ok,
            f"{'; '.join(lines)}; {elapsed:.1f} s (budget 10 s)")


def test_acceptance_2_reduced_sinr_exactness():
    start = time.perf_counter()
    ok, lines = verify_ssinr_diag(draws=1000)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(2, "reduced SINR exactness without interference", ok,
            f"{'; '.join(lines)}; {elapsed:.1f} s (budget 10 s)")


def test_acceptance_3_figure_shape(figure_sweep):
    result, elapsed = figure_sweep
    names = list(result.criteria)
    chain = ["sr", "s-sr", "s-sinr", "channel-gain"]
    problems = []
    # ordering: each link of the chain within one standard error, per SNR
    for upper, lower in zip(chain, chain[1:]):
        a, b = names.index(upper), names.index(lower)
        gap, se = _paired_gap(result.samples[a], result.samples[b])
        if not np.all(gap >= -se):
            worst = float(np.min(gap + se))
            problems.append(f"{upper} < {lower} (worst slack {worst:.4f})")
    # every curve non-decreasing in SNR within one standard error per step
    for c, name in enumerate(names):
        step = result.samples[c, 1:] - result.samples[c, :-1]
        mean = step.mean(axis=1)
        se = step.std(axis=1, ddof=1) / np.sqrt(step.shape[1])
        if not np.all(mean >= -se):
            problems.append(f"{name} not non-decreasing")
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f} s over budget")
    _report(3, "figure-shape reproduction", not problems,
            f"2000 trials x {len(GRID)} SNR points, {elapsed:.1f} s (budget 60 s)"
            + ("; " + "; ".join(problems) if problems else ""))


def test_acceptance_4_eavesdropper_count_monotonicity():
    start = time.perf_counter()
    sweeps = {}
    for eves in (1, 2):
        spec = SweepSpec(config=figure_config(num_eves=eves), snr_grid_db=GRID,
                         trials=2000, criteria=(CriterionKind.S_SR,))
        sweeps[eves] = run_sweep(spec)
    gap, se = _paired_gap(sweeps[1].samples[0], sweeps[2].samples[0])
    ok = bool(np.all(gap >= -se))
    elapsed = time.perf_counter() - start
    _report(4, "fewer eavesdroppers raise the mean secrecy rate", ok,
            f"min gap {gap.min():+.4f}, every point within one stderr; "
            f"{elapsed:.1f} s")


def test_acceptance_5_relay_pool_monotonicity():
    start = time.perf_counter()
    sweeps = {}
    for pool in (3, 5, 7):
        spec = SweepSpec(config=figure_config(pool_size=pool), snr_grid_db=GRID,
                         trials=2000, criteria=(CriterionKind.S_SR,))
        sweeps[pool] = run_sweep(spec)
    ok = True
    details = []
    for small, large in ((3, 5), (5, 7)):
        gap, se = _paired_gap(sweeps[large].samples[0], sweeps[small].samples[0])
        details.append(f"{small}->{large} min gap {gap.min():+.4f}")
        ok &= bool(np.all(gap >= -se))
    elapsed = time.perf_counter() - start
    _report(5, "larger relay pools never hurt the reduced secrecy rule", ok,
            f"{', '.join(details)}; {elapsed:.1f} s")


def test_acceptance_6_numerical_kernels(figure_sweep):
    problems = []
    ok_zf, zf_lines = verify_zf(draws=100)
    if not ok_zf:
        problems.append(zf_lines[0])
    ok_det, det_lines = verify_detident(draws=100)
    if not ok_det:
        problems.append(det_lines[0])

    # Hermitian PSD covariances over 100 draws
    cfg = figure_config()
    worst_eig = 0.0
    for t in range(100):
        real = generate_realization(cfg, trial=t)
        pre = zf_precoder(real.stacked_source_channel((0, 1)), user_antennas=cfg.user_antennas)
        for u in range(cfg.num_users):
            r_in = interference_covariance(pre, u, cfg.noise_power)
            if not np.array_equal(r_in, r_in.conj().T):
                problems.append("covariance not exactly Hermitian")
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(r_in).min()))
    if worst_eig < -1e-12:
        problems.append(f"covariance eigenvalue {worst_eig:.2e} below -1e-12")

    # nonnegative secrecy rates: the shared sweep holds well over 1e4 samples
    result, _ = figure_sweep
    finite = result.samples[~np.isnan(result.samples)]
    if finite.size < 10_000 or not np.all(finite >= 0.0):
        problems.append("negative or missing secrecy-rate samples in sweep")
    # plus direct evaluations on arbitrary (not criterion-chosen) combinations
    rng = np.random.default_rng(99)
    cands = None
    for t in range(500):
        real = generate_realization(cfg, trial=t)
        cands = prepare_candidates(real, cfg)
        row = int(rng.integers(len(cands.combinations)))
        if not cands.valid[row]:
            continue
        combo = cands.combinations[row]
        sample = pair_secrecy_rate(real, cands, combo, cfg.at_snr(float(rng.uniform(0, 20))))
        if min(sample.secrecy_rate, sample.legit_rate, sample.eve_rate) < 0:
            problems.append("negative rate in direct evaluation")
            break
    _report(6, "numerical kernel suites", not problems,
            f"{zf_lines[0]}; {det_lines[0]}; min covariance eigenvalue "
            f"{worst_eig:.2e}; {finite.size} nonnegative sweep samples"
            + ("; " + "; ".join(problems) if problems else ""))


def test_acceptance_7_reproducible_csv(tmp_path):
    values = dict(PRESETS["fig2-single"])
    values.update({"trials": 150, "seed": 424242})
    spec_serial = build_spec(values)
    values["workers"] = 4
    spec_parallel = build_spec(values)

    paths = []
    for tag, spec in (("a", spec_serial), ("b", spec_serial), ("par", spec_parallel)):
        result = run_sweep(spec)
        path = tmp_path / f"run-{tag}.csv"
        emit_csv(result, str(path))
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1] == paths[2]
    _report(7, "byte-identical CSV across reruns and workers", ok,
            f"{len(paths[0])} bytes, serial rerun and 4-worker run compared")
