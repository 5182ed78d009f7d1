"""Smoke test of the benchmark itself, at a tiny trial count.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced layers account for the run_sweep span, that the count
metrics repeat exactly, and that the output check can fail.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, workload in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, replace(workload, trials=4, trace_reps=2))


def bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out.strip().splitlines()[-1])
    out["stderr"] = captured.err
    return out


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    out = bench(capsys, workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics", "stderr"}
    assert out["correct"] is True, out["stderr"]
    assert out["attempted"] >= 1 and out["failed"] == 0
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in named)
    for metric in named:
        printed = out["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
    if trace:
        metrics = {k: v["value"] for k, v in out["metrics"].items()}
        layers = sum(metrics[name] for name in (
            "model.generate_realization.ms_per_trial", "criteria.prepare_candidates.ms_per_trial",
            "criteria.select.ms_per_trial", "secrecy.secrecy_rate.ms_per_trial",
            "montecarlo.run_sweep.self_ms_per_trial"))
        assert math.isclose(layers, metrics["montecarlo.run_sweep.ms_per_trial"], rel_tol=1e-9)
        assert metrics["criteria.sr_ssr_mismatches"] == 0
    else:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in named)


def test_counts_repeat_and_names_are_restored(capsys):
    modules = run.load_relaysec()
    before = {(key, attr): getattr(modules[key], attr) for key, attr, _ in run.spans.TARGETS}
    counts = []
    for _ in range(2):
        metrics = bench(capsys, "pool12-select4", 1)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(".calls") or k in (
                           "secrecy.evals_per_sample", "criteria.candidate_bytes",
                           "criteria.sr_ssr_mismatches")})
    assert counts[0] == counts[1]
    assert counts[0]["criteria.candidate_bytes"] > 700_000  # C(12, 4) = 495 candidates
    for (key, attr), original in before.items():
        assert getattr(modules[key], attr) is original


def test_perturbed_curve_is_rejected():
    reference = checks.load_reference("fig2-single")
    pooled = checks.pool_rows([reference, reference])
    assert checks.check_curves(pooled, reference) == []
    key = ("sr", 20.0)
    mean, stderr, n, discarded = reference[key]
    # Twice the tolerance: 2n pooled trials against n give 5 * sqrt(1.5) * stderr.
    pooled[key] = (mean + 2 * 6.2 * stderr, *pooled[key][1:])
    errors = checks.check_curves(pooled, reference)
    assert len(errors) == 1 and errors[0].startswith("sr @ 20 dB")
    assert checks.check_rows({key: (mean, stderr, n - 1, discarded)}, n)
    assert checks.check_rows({key: (-0.5, stderr, n, discarded)}, n)


def test_rare_rate_missing_from_reference_passes():
    # One non-zero rate in 2000 trials at a point where the reference drew none.
    reference = {("sr", 0.0): (0.0, 0.0, 2000, 0)}
    rows = {("sr", 0.0): (2.0 / 2000, 2.0 / 2000, 2000, 0)}
    assert checks.check_curves(checks.pool_rows([rows]), reference) == []


def test_run_with_perturbed_reference_is_incorrect(capsys, monkeypatch):
    reference = checks.load_reference("pool12-select4")
    key = ("s-sr", 20.0)
    mean, stderr, n, discarded = reference[key]
    # About ten times the tolerance at 12 trials (three reps of four).
    reference[key] = (mean + 3.0, stderr, n, discarded)
    monkeypatch.setattr(checks, "load_reference", lambda name: reference)
    out = bench(capsys, "pool12-select4", 0)
    assert out["correct"] is False


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig2-single", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
