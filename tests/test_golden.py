"""Golden CSV output and comparison report of every preset, and of two
high-SNR runs.

The files under ``tests/golden/`` hold the bytes ``relaysec run`` wrote for
each preset at seed 5, 60 trials and one worker: ``<name>.csv`` the CSV, and
``<name>-report.txt`` its standard output after the first line, which
carries the elapsed time; that is ``compare_criteria(result).render()``. A
change that is meant to leave results unchanged must reproduce them exactly;
a change that deliberately alters the channel draws or the numerics
re-records them.

The high-SNR runs take explicit flags on top of a preset, at the same seed,
trial count and worker count, up to 200 dB, where no preset's grid goes:
``fig3-rank`` has one single-antenna eavesdropper against two transmit
antennas, so every trial's ``sr`` scores on its own eavesdropper basis;
``fig2-single`` with two-antenna eavesdroppers has more eavesdropper
antennas than transmit antennas (N_e > N_t - N_r). Its rates are negative,
so it runs unclamped: clamped at 0, every sample would read 0 whatever
each criterion picked.
"""

from pathlib import Path

import pytest

from relaysec.cli import PRESETS, main

GOLDEN = Path(__file__).parent / "golden"

HIGH_SNR = {
    "fig3-rank-200db": ["--preset", "fig3-rank", "--snr", "0:50:200"],
    "fig2-single-eve2-200db": ["--preset", "fig2-single", "--eve-antennas", "2",
                               "--criteria", "channel-gain,sinr,sr,s-sinr,s-sr",
                               "--snr", "0:50:200", "--clamp", "false"],
}


def run(flags, out, capsys) -> tuple:
    """The CSV bytes and the report text of one ``relaysec run``."""
    argv = ["run", *flags, "--seed", "5", "--trials", "60", "--workers", "1",
            "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    return out.read_bytes(), stdout.split("\n", 1)[1]


RUNS = {**{preset: ["--preset", preset] for preset in PRESETS}, **HIGH_SNR}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_csv_matches_golden_bytes(preset, tmp_path, capsys):
    got, _ = run(RUNS[preset], tmp_path / f"{preset}.csv", capsys)
    assert got == (GOLDEN / f"{preset}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(HIGH_SNR))
def test_high_snr_csv_matches_golden_bytes(name, tmp_path, capsys):
    got, _ = run(RUNS[name], tmp_path / f"{name}.csv", capsys)
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden_bytes(name, tmp_path, capsys):
    _, got = run(RUNS[name], tmp_path / f"{name}.csv", capsys)
    assert got.encode() == (GOLDEN / f"{name}-report.txt").read_bytes()
