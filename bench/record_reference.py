"""Record the reference curves the benchmark's output check compares against.

    python3 bench/record_reference.py [workload ...]

Writes ``bench/reference/<workload>.csv``: the CSV of one sweep of the
workload's scenario at ``REFERENCE_TRIALS`` trials and a seed that no
benchmark rep uses. Only re-record when the expected curves change, never
to make a failing check pass.
"""

import os
import sys
from pathlib import Path

from workloads import PIN_THREADS, WORKLOADS

os.environ.update(PIN_THREADS)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relaysec import cli  # noqa: E402

from checks import REFERENCE_DIR  # noqa: E402

REFERENCE_TRIALS = {"fig2-single": 2000, "fig5-relays-mimo-w2": 2000, "pool12-select4": 1000}
REFERENCE_SEED = 7


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        values = dict(WORKLOADS[name].values, trials=REFERENCE_TRIALS[name],
                      seed=REFERENCE_SEED, workers=2)
        result = cli.run_sweep(cli.build_spec(values))
        path = cli.emit_csv(result, str(REFERENCE_DIR / f"{name}.csv"))
        print(f"wrote {path} in {result.meta['elapsed_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
