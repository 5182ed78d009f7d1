"""Workload definitions and the sweep pipeline every benchmark phase times.

A workload is a set of ``relaysec run`` settings. Each timed repetition
("rep") of a workload runs the pipeline of ``relaysec run`` on one spec:
``cli.build_spec`` -> ``run_sweep`` -> ``emit_csv`` -> ``compare_criteria``.
Rep ``k`` of a run with benchmark seed ``s`` uses a spec seed derived from
``(workload, s, k)``, so the same benchmark seed gives the same inputs, and
no two reps share a channel draw that a cache in the program could reuse.

This module imports neither numpy nor relaysec, so the set-up probe can
load it without adding to the cold-start time it measures.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

PIN_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    """``values`` are ``relaysec run`` settings; ``trials`` is the trials per rep.

    ``trace_reps`` fixes the work of the traced pass, so its counts repeat
    exactly for a given benchmark seed.
    """

    name: str
    values: dict
    trials: int
    trace_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        # Per-call Python/numpy overhead in secrecy and criteria.select: three
        # noise-dependent criteria re-selected at 11 SNR points on 2x2 channels.
        Workload(
            name="fig2-single",
            values={
                "users": 2, "user-antennas": 1, "relay-antennas": 1, "relays": 5,
                "select": 2, "eves": 2, "eve-antennas": 1,
                "criteria": "channel-gain,max-ratio,sinr,sr,s-sinr,s-sr",
                "snr": "0:2:20", "workers": 1,
            },
            trials=40,
            trace_reps=4,
        ),
        # The only workload on the process-pool path of run_sweep; largest
        # generation share (37 keyed blocks per trial); no sr, sinr, max-ratio.
        Workload(
            name="fig5-relays-mimo-w2",
            values={
                "users": 2, "user-antennas": 2, "relay-antennas": 2, "relays": 7,
                "select": 2, "eves": 2, "eve-antennas": 2,
                "criteria": "channel-gain,s-sinr,s-sr",
                "snr": "0:2:20", "workers": 2,
            },
            trials=64,
            trace_reps=3,
        ),
        # Batched array work over C(12, 4) = 495 candidates with K*N_e = N_t:
        # sr scoring and prepare_candidates dominate, evaluation is small.
        Workload(
            name="pool12-select4",
            values={
                "users": 4, "user-antennas": 1, "relay-antennas": 1, "relays": 12,
                "select": 4, "eves": 4, "eve-antennas": 1,
                "criteria": "channel-gain,s-sinr,sr,s-sr",
                "snr": "0:10:20", "workers": 1,
            },
            trials=16,
            trace_reps=5,
        ),
    )
}

WARMUP_TRIALS = 2


def rep_seed(workload: str, seed: int, rep: int) -> int:
    """Spec seed of rep ``rep`` in a run with benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def rep_values(workload: Workload, seed: int, rep: int, workers: int | None = None) -> dict:
    values = dict(workload.values, trials=workload.trials,
                  seed=rep_seed(workload.name, seed, rep))
    if workers is not None:
        values["workers"] = workers
    return values


def warmup_values(workload: Workload, seed: int) -> dict:
    """A serial two-trial sweep of the workload's scenario."""
    return dict(rep_values(workload, seed, -1, workers=1), trials=WARMUP_TRIALS)


def run_pipeline(cli, values: dict, csv_path) -> tuple:
    """One ``relaysec run``: returns ``(seconds, result, csv_bytes)``.

    ``run_sweep`` and ``compare_criteria`` are looked up on ``cli`` at call
    time, where ``relaysec run`` finds them, so the traced pass can rebind
    them there.
    """
    start = time.perf_counter()
    spec = cli.build_spec(values)
    result = cli.run_sweep(spec)
    cli.emit_csv(result, str(csv_path))
    cli.compare_criteria(result).render()
    elapsed = time.perf_counter() - start
    with open(csv_path, "rb") as fh:
        return elapsed, result, fh.read()
