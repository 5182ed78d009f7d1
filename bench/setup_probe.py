"""Cold start of one workload: import relaysec, resolve the spec, warm up.

    python3 bench/setup_probe.py '<relaysec run settings as JSON>' <csv path>

``run.py`` times this whole process, interpreter start included, as the
``setup_s`` metric. It prints nothing.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relaysec import cli  # noqa: E402
from workloads import run_pipeline  # noqa: E402

run_pipeline(cli, json.loads(sys.argv[1]), sys.argv[2])
