"""Benchmark of relaysec's Monte Carlo sweeps.

    python3 bench/run.py --workload fig2-single --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; relaysec is imported from ``src/``.
Each rep runs the pipeline of ``relaysec run`` (see ``workloads.py``) on a
fresh spec and is checked (``checks.py``); failing reps count as failed.

``--trace 0`` measures the workload as defined:

- ``trials_per_kernel``: median over reps of the trials a rep completes in
  the time of the calibration kernel timed around it (``calibration.py``),
  after a warm-up, over reps repeated for ``--seconds``. The raw
  ``trials_per_s`` (trials per rep over the median rep time) is printed
  on the lines before the result;
- ``setup_s``: median wall time of fresh interpreters that import relaysec,
  resolve the workload into a ``SweepSpec`` and run a two-trial warm-up,
  each scaled to the nominal speed of the calibration kernel timed around
  it. The raw times are printed on the lines before the result;
- ``peak_rss_mb``: largest resident set of this process or any process it
  waited for (set-up probes, pool workers), from ``getrusage``.

``--trace 1`` gives the per-layer numbers: serial untraced reps, reps at
two workers, then a fixed number of serial reps with the public functions
rebound to record spans (``spans.py``). The spans are written to
``.bench_out/<workload>.spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
(criterion, SNR, trial) samples; ``failed`` counts discarded samples plus
every sample of a rep that failed its check.
"""

from __future__ import annotations

import os

from workloads import PIN_THREADS

# Before numpy is imported, here and in every process started from here.
os.environ.update(PIN_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from hashlib import sha256  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, rep_values, run_pipeline, warmup_values  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
MIN_REPS = 3
ALL_KINDS = ("channel-gain", "max-ratio", "sinr", "sr", "s-sinr", "s-sr")
# Kinds every workload runs; only their times are metrics of every workload.
COMMON_KINDS = ("channel-gain", "s-sinr", "s-sr")


def load_relaysec() -> dict:
    """relaysec's modules, imported from this checkout's sources only."""
    package = SRC / "relaysec"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no relaysec sources at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from relaysec import cli, criteria, montecarlo

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported relaysec from {cli.__file__}, not from {package}")
    return {"cli": cli, "criteria": criteria, "montecarlo": montecarlo}


@dataclass
class Rep:
    """One checked rep: timing, CSV and sample counts.

    ``kernel_s`` is the mean calibration-kernel time just before and just
    after the rep.
    """

    index: int
    seconds: float
    kernel_s: float
    trials: int
    csv: bytes
    rows: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    attempted: int = 0
    discarded: int = 0
    compared: int = 0
    mismatched: int = 0

    @property
    def failed(self) -> int:
        return self.attempted if self.errors else self.discarded


def check_rep(index, seconds, kernel_s, result, csv, trials) -> Rep:
    rep = Rep(index, seconds, kernel_s, trials, csv)
    try:
        rep.rows = checks.parse_csv(csv)
    except ValueError as exc:
        rep.errors.append(f"rep {index}: unreadable CSV: {exc}")
        rep.attempted = trials * len(result.criteria) * len(result.snr_grid_db)
        return rep
    rep.errors = [f"rep {index}: {e}" for e in checks.check_rows(rep.rows, trials)]
    rep.attempted = trials * len(rep.rows)
    rep.discarded = sum(row[3] for row in rep.rows.values())
    rep.compared, rep.mismatched = checks.sr_ssr_mismatches(result)
    if rep.mismatched and checks.sr_equals_ssr(result.spec.config):
        rep.errors.append(f"rep {index}: sr and s-sr picked different subsets in "
                          f"{rep.mismatched} of {rep.compared} trials with K*N_e == N_t")
    return rep


def run_reps(cli, workload, seed, workers=None, seconds=None, reps=None) -> list:
    """Reps 0, 1, ... until ``seconds`` have passed (at least ``MIN_REPS``),
    or exactly ``reps`` reps."""
    done = []
    start = time.perf_counter()
    kernel_before = calibration.kernel_seconds()
    while True:
        if reps is not None:
            if len(done) == reps:
                break
        elif len(done) >= MIN_REPS and time.perf_counter() - start >= seconds:
            break
        values = rep_values(workload, seed, len(done), workers)
        elapsed, result, csv = run_pipeline(cli, values, OUT / f"{workload.name}.csv")
        kernel_after = calibration.kernel_seconds()
        done.append(check_rep(len(done), elapsed, (kernel_before + kernel_after) / 2,
                              result, csv, workload.trials))
        kernel_before = kernel_after
    return done


def trials_per_s(reps: list) -> float:
    return reps[0].trials / statistics.median(r.seconds for r in reps)


def trials_per_kernel(reps: list) -> float:
    return statistics.median(r.trials * r.kernel_s / r.seconds for r in reps)


def describe(label: str, reps: list) -> str:
    ms = [1e3 * r.seconds / r.trials for r in reps]
    q1, q2, q3 = statistics.quantiles(ms, n=4)
    return (f"{label}: {len(reps)} reps x {reps[0].trials} trials, ms/trial median "
            f"{q2:.3f} (quartiles {q1:.3f}, {q3:.3f})")


def curve_errors(reps: list, reference: dict) -> list:
    good = [r.rows for r in reps if r.rows]
    if not good:
        return ["no readable CSV"]
    return [f"pooled curves: {e}" for e in checks.check_curves(checks.pool_rows(good), reference)]


def same_csv_errors(label: str, first: list, second: list) -> list:
    """Reps with equal index (equal spec) must write byte-identical CSV."""
    return [f"{label}: rep {a.index} CSV differs" for a, b in zip(first, second) if a.csv != b.csv]


def measure_setup(workload, seed) -> tuple:
    """Wall times of fresh interpreters running ``setup_probe.py``: raw, and
    scaled to ``calibration.NOMINAL_KERNEL_S`` by the kernel timed around each."""
    command = [sys.executable, str(BENCH / "setup_probe.py"),
               json.dumps(warmup_values(workload, seed)),
               str(OUT / f"{workload.name}.probe.csv")]
    raw, scaled = [], []
    kernel_before = calibration.kernel_seconds()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run(command, check=True)
        elapsed = time.perf_counter() - start
        kernel_after = calibration.kernel_seconds()
        raw.append(elapsed)
        scaled.append(elapsed * calibration.NOMINAL_KERNEL_S * 2 / (kernel_before + kernel_after))
        kernel_before = kernel_after
    return raw, scaled


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_run(modules, workload, args):
    cli = modules["cli"]
    raw_setup, setup = measure_setup(workload, args.seed)
    run_pipeline(cli, warmup_values(workload, args.seed), OUT / f"{workload.name}.csv")
    reps = run_reps(cli, workload, args.seed, seconds=args.seconds)
    # Rerun rep 0 serially: the same spec must give the same bytes, at any
    # worker count.
    rerun = run_reps(cli, workload, args.seed, workers=1, reps=1)
    errors = [e for r in reps + rerun for e in r.errors]
    errors += same_csv_errors("serial rerun", reps, rerun)
    errors += curve_errors(reps, checks.load_reference(workload.name))
    lines = [describe("timed", reps),
             f"trials_per_s: {trials_per_s(reps):.6g} 1/s; calibration kernel median "
             f"{1e3 * statistics.median(r.kernel_s for r in reps):.4f} ms",
             f"set-up probes, raw s: {', '.join(f'{t:.4f}' for t in raw_setup)}",
             f"discard_frac: {sum(r.discarded for r in reps) / sum(r.attempted for r in reps):.6g}",
             f"csv sha256 (rep 0): {sha256(reps[0].csv).hexdigest()}"]
    metrics = {
        "trials_per_kernel": (trials_per_kernel(reps), "trials/kernel"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, reps, errors, lines


def traced_run(modules, workload, args):
    cli = modules["cli"]
    run_pipeline(cli, warmup_values(workload, args.seed), OUT / f"{workload.name}.csv")
    serial = run_reps(cli, workload, args.seed, workers=1, seconds=args.seconds / 3)
    parallel = run_reps(cli, workload, args.seed, workers=2, seconds=args.seconds / 3)
    tracer = spans.Tracer()
    with tracer.installed(modules):
        traced = run_reps(cli, workload, args.seed, workers=1, reps=workload.trace_reps)
    (OUT / f"{workload.name}.spans.json").write_text(json.dumps(tracer.to_json()))

    reps = serial + parallel + traced
    errors = [e for r in reps for e in r.errors]
    errors += same_csv_errors("workers=2", serial, parallel)
    errors += same_csv_errors("traced", serial, traced)
    errors += curve_errors(serial, checks.load_reference(workload.name))
    metrics, lines = layer_metrics(tracer, traced, workload.values["criteria"].split(","))
    metrics["montecarlo.parallel_efficiency"] = (
        trials_per_kernel(parallel) / (2 * trials_per_kernel(serial)), "ratio")
    metrics["trace.overhead_frac"] = (
        trials_per_kernel(serial) / trials_per_kernel(traced) - 1.0, "ratio")
    lines = [describe("serial", serial), describe("workers=2", parallel),
             describe("traced", traced), *lines,
             f"csv sha256 (rep 0): {sha256(serial[0].csv).hexdigest()}"]
    return metrics, reps, errors, lines


def layer_metrics(tracer, traced: list, kinds: list) -> tuple:
    """Per-layer metrics of the traced reps; a layer never called reads ``None``."""
    n_trials = sum(r.trials for r in traced)
    totals = spans.layer_totals(tracer.spans)
    metrics, absent, kind_lines = {}, [], []

    def layer(name, expected=True):
        calls, total_s, self_s = totals.get(name, (0, 0.0, 0.0))
        if calls == 0 and expected:
            absent.append(name)
        return calls, (1e3 * self_s / n_trials if calls else None), total_s

    for name in (spans.GENERATE, spans.PREPARE, spans.SECRECY):
        calls, ms, _ = layer(name)
        metrics[f"{name}.ms_per_trial"] = (ms, "ms")
        metrics[f"{name}.calls"] = (calls, "count")
    select_calls, select_ms = 0, 0.0
    for kind in ALL_KINDS:
        name = f"{spans.SELECT}.{kind}"
        calls, ms, _ = layer(name, expected=kind in kinds)
        select_calls += calls
        select_ms += ms or 0.0
        metrics[f"{name}.calls"] = (calls, "count")
        if kind in COMMON_KINDS:
            metrics[f"{name}.ms_per_trial"] = (ms, "ms")
        kind_lines.append(f"  {name}: " + (f"{ms:.4f} ms/trial, {calls} calls" if calls
                                           else "absent" if kind in kinds else "not run"))
    metrics[f"{spans.SELECT}.ms_per_trial"] = (select_ms if select_calls else None, "ms")
    metrics[f"{spans.SELECT}.calls"] = (select_calls, "count")
    metrics["criteria.candidate_bytes"] = (tracer.candidate_bytes, "B")
    metrics["criteria.sr_ssr_mismatches"] = (sum(r.mismatched for r in traced), "count")
    filled = sum(r.attempted - r.discarded for r in traced)
    secrecy_calls = metrics[f"{spans.SECRECY}.calls"][0]
    metrics["secrecy.evals_per_sample"] = (secrecy_calls / filled if filled else None, "ratio")

    calls, self_ms, total_s = layer(spans.SWEEP)
    metrics[f"{spans.SWEEP}.ms_per_trial"] = (1e3 * total_s / n_trials if calls else None, "ms")
    metrics[f"{spans.SWEEP}.self_ms_per_trial"] = (self_ms, "ms")
    for name in (spans.COMPARE, spans.EMIT):
        calls, _, total_s = layer(name)
        metrics[f"{name}.ms"] = (1e3 * total_s / calls if calls else None, "ms")
    metrics["discard_frac"] = (
        sum(r.discarded for r in traced) / sum(r.attempted for r in traced), "ratio")
    lines = [f"sr/s-sr trials compared: {sum(r.compared for r in traced)}",
             "select by kind:", *kind_lines,
             f"absent layers: {', '.join(absent) or 'none'}"]
    return metrics, lines


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {k: os.environ[k] for k in PIN_THREADS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relaysec sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    modules = load_relaysec()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    calibration.kernel_seconds()  # the first call pays numpy's lazy set-up
    run = traced_run if args.trace else timed_run
    metrics, reps, errors, lines = run(modules, workload, args)

    print(f"workload {workload.name}, seed {args.seed}, env {json.dumps(environment())}")
    for line in lines:
        print(line)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
