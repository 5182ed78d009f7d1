"""CLI tests: config resolution, CSV output, verification suites, exit codes."""

import pytest

from relaysec.cli import (
    PRESETS,
    UsageError,
    build_spec,
    emit_csv,
    format_config,
    main,
    parse_config,
    parse_snr_grid,
    read_config_file,
    verify_detident,
    verify_ssinr_diag,
    verify_ssr_oracle,
    verify_zf,
)
from relaysec.criteria import CriterionKind
from relaysec.model import SystemConfig
from relaysec.montecarlo import SweepSpec, run_sweep


class TestSnrGrid:
    def test_inclusive_range(self):
        assert parse_snr_grid("0:2:20") == tuple(float(v) for v in range(0, 21, 2))

    def test_single_value(self):
        assert parse_snr_grid("12.5") == (12.5,)

    def test_fractional_step(self):
        grid = parse_snr_grid("0:0.5:2")
        assert grid == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_bad_grid_rejected(self):
        with pytest.raises(UsageError):
            parse_snr_grid("0;2;20")
        with pytest.raises(UsageError, match="step"):
            parse_snr_grid("0:0:20")
        with pytest.raises(UsageError, match="stop"):
            parse_snr_grid("20:2:0")
        for text in ("0:nan:20", "nan:2:20", "0:2:inf"):
            with pytest.raises(UsageError, match="invalid snr grid"):
                parse_snr_grid(text)


class TestParseConfig:
    def test_preset_with_seed_override(self):
        spec = parse_config(["--preset", "fig2-single", "--seed", "42"])
        assert spec.config.pool_size == 5
        assert spec.config.relay_antennas == 1
        assert spec.config.user_antennas == 1
        assert spec.config.seed == 42
        assert CriterionKind.MAX_RATIO in spec.criteria

    def test_valid_antenna_budget(self):
        spec = parse_config(["--relays", "5", "--select", "2", "--users", "2",
                             "--user-antennas", "2", "--relay-antennas", "2",
                             "--criteria", "sr,s-sr"])
        assert spec.config.transmit_antennas == 4
        assert spec.config.selected_relays == 2

    def test_violated_antenna_budget_cites_equation(self):
        with pytest.raises(Exception, match=r"T\*N_i = M\*N_r"):
            parse_config(["--relays", "5", "--select", "3", "--relay-antennas", "2",
                          "--users", "2", "--user-antennas", "2",
                          "--criteria", "sr"])

    def test_unknown_criterion_rejected(self):
        with pytest.raises(UsageError, match="unknown criterion"):
            parse_config(["--criteria", "sr,bogus"])

    def test_flags_override_file_override_preset(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("trials = 77\nseed = 5\n", encoding="utf-8")
        spec = parse_config(["--preset", "fig2-single", "--config", str(path),
                             "--seed", "9"])
        assert spec.trials == 77       # file beats preset default
        assert spec.config.seed == 9   # flag beats file

    def test_every_preset_resolves(self):
        for name in PRESETS:
            spec = build_spec(dict(PRESETS[name]))
            assert spec.trials >= 1
            assert spec.snr_grid_db[0] == 0.0


class TestConfigFile:
    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("relays = 5\nturbo = yes\n", encoding="utf-8")
        with pytest.raises(UsageError, match="turbo"):
            read_config_file(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just-some-noise\n", encoding="utf-8")
        with pytest.raises(UsageError, match="key = value"):
            read_config_file(str(path))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\ntrials = 5\n", encoding="utf-8")
        assert read_config_file(str(path)) == {"trials": "5"}

    def test_round_trip(self, tmp_path):
        spec = build_spec({"users": 2, "user-antennas": 2, "relay-antennas": 2,
                           "relays": 6, "select": 2, "eves": 2, "eve-antennas": 2,
                           "trials": 123, "seed": 31, "snr": "2:4:18",
                           "criteria": "sr,s-sr,s-sinr", "combine": "sum",
                           "eve-model": "phase1", "eve-aggregate": "max",
                           "workers": 2})
        path = tmp_path / "spec.cfg"
        path.write_text(format_config(spec), encoding="utf-8")
        reparsed = build_spec(read_config_file(str(path)))
        assert reparsed == spec


class TestCsv:
    def _result(self, **kw):
        base = dict(config=SystemConfig(
            num_users=2, user_antennas=1, relay_antennas=1, pool_size=5,
            selected_relays=2, num_eves=2, eve_antennas=1, seed=8),
            snr_grid_db=(0.0, 10.0), trials=25, criteria=("s-sr",))
        base.update(kw)
        return run_sweep(SweepSpec(**base))

    def test_row_count_and_header(self, tmp_path):
        res = self._result()
        path = tmp_path / "out.csv"
        emit_csv(res, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "criterion,snr_db,mean_sr,stderr,n_samples,n_discarded"
        assert len(lines) == 3  # header + one criterion x two SNR points

    def test_reemission_byte_identical(self, tmp_path):
        res = self._result(criteria=("sr", "channel-gain"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(res, str(p1))
        emit_csv(res, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_ordered_by_criterion_then_snr(self, tmp_path):
        res = self._result(criteria=("sr", "channel-gain"))
        path = tmp_path / "out.csv"
        emit_csv(res, str(path))
        rows = [line.split(",") for line in
                path.read_text(encoding="utf-8").splitlines()[1:]]
        keys = [(r[0], float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_unwritable_path_reports_cause(self):
        res = self._result()
        with pytest.raises(UsageError, match="cannot write"):
            emit_csv(res, "/nonexistent-dir/out.csv")


class TestVerifySuites:
    def test_zf_suite(self):
        ok, lines = verify_zf(draws=20)
        assert ok and "residual" in lines[0]

    def test_detident_suite(self):
        ok, lines = verify_detident(draws=20)
        assert ok

    def test_ssr_oracle_suite(self):
        ok, lines = verify_ssr_oracle(draws=20)
        assert ok
        assert "mismatches 0/20" in lines[1]

    def test_ssinr_diag_suite(self):
        ok, lines = verify_ssinr_diag(draws=20)
        assert ok


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["run", "--trials", "8", "--snr", "0:10:10", "--seed", "3",
                     "--criteria", "s-sr,channel-gain", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "ranking" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(["run", "--relays", "5", "--select", "3",
                     "--relay-antennas", "2", "--users", "2",
                     "--user-antennas", "2", "--criteria", "sr",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "T*N_i = M*N_r" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["inf", "nan", "-inf", "0:nan:20"])
    def test_non_finite_snr_exits_2(self, tmp_path, snr, capsys):
        code = main(["run", "--trials", "2", f"--snr={snr}", "--criteria", "s-sr",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "snr" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nope = 1\n", encoding="utf-8")
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_verify_pass_exit_0(self, capsys):
        assert main(["verify", "zf"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert f"[{name}]" in out
