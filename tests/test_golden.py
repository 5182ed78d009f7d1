"""Golden CSV output of every preset.

The files under ``tests/golden/`` hold the bytes ``relaysec run`` wrote for
each preset at seed 5, 60 trials and one worker. A change that is meant to
leave results unchanged must reproduce them exactly; a change that
deliberately alters the channel draws or the numerics re-records them.
"""

from pathlib import Path

import pytest

from relaysec.cli import PRESETS, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_csv_matches_golden_bytes(preset, tmp_path, capsys):
    out = tmp_path / f"{preset}.csv"
    argv = ["run", "--preset", preset, "--seed", "5", "--trials", "60",
            "--workers", "1", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()
