"""Sweep engine tests: reproducibility, pairing, aggregation statistics."""

import csv
import math
import multiprocessing
import signal
import tracemalloc
import traceback
import warnings

import numpy as np
import pytest

from relaysec import criteria, kernels, montecarlo
from relaysec.cli import emit_csv, parse_snr_grid
from relaysec.criteria import CriterionKind
from relaysec.model import ConfigError, SystemConfig
from relaysec.montecarlo import SweepSpec, compare_criteria, run_sweep


def pair_config(**kw):
    base = dict(num_users=2, user_antennas=1, relay_antennas=1, pool_size=5,
                selected_relays=2, num_eves=2, eve_antennas=1, snr_db=0.0, seed=3)
    base.update(kw)
    return SystemConfig(**base)


def small_spec(**kw):
    base = dict(config=pair_config(), snr_grid_db=(0.0, 10.0, 20.0), trials=60,
                criteria=(CriterionKind.SECRECY_RATE, CriterionKind.S_SR,
                          CriterionKind.CHANNEL_GAIN))
    base.update(kw)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="snr_grid"):
            SweepSpec(config=pair_config(), snr_grid_db=(), trials=1)

    def test_empty_criteria_rejected(self):
        with pytest.raises(ConfigError, match="criteria"):
            SweepSpec(config=pair_config(), snr_grid_db=(0.0,), trials=1, criteria=())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_grid_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec(config=pair_config(), snr_grid_db=(0.0, bad), trials=1)

    @pytest.mark.parametrize("field", ["trials", "workers"])
    @pytest.mark.parametrize("bad", [2.5, 0])
    def test_non_integer_or_small_counts_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be a positive integer"):
            small_spec(**{field: bad})

    @pytest.mark.parametrize("field, bad, message", [
        ("trials", float("nan"), "trials must be a positive integer"),
        ("trials", float("inf"), "trials must be a positive integer"),
        ("trials", None, "trials must be a positive integer"),
        ("workers", float("inf"), "workers must be a positive integer"),
        ("snr_grid_db", 5.0, "snr_grid_db must be a sequence of numbers"),
        ("snr_grid_db", ("a",), "snr_grid_db must be a sequence of numbers"),
        ("criteria", ("s-sr", "s-sr"), "criteria must not repeat"),
    ])
    def test_malformed_values_rejected_with_config_error(self, field, bad, message):
        with pytest.raises(ConfigError, match=message):
            small_spec(**{field: bad})

    @pytest.mark.parametrize("grid", [
        (0.0, 1e6),  # the noise power underflows to 0
        (-1e6,),  # 10 ** 1e5 is past the float range
        (-3084.0,),  # 10 ** 308.4 is just past it
        (-3000.5,),  # just below the range; ran clean down to -3082.5
        (3100.0,),  # 1 / (d^2 s) overflowed
        (-10.0, 3000.5),  # one point just above the range among valid ones
    ])
    def test_grid_outside_the_snr_range_rejected(self, grid):
        with pytest.raises(ConfigError, match="from -3000 to 3000 dB"):
            SweepSpec(config=pair_config(), snr_grid_db=grid, trials=1)

    @pytest.mark.parametrize("bad", [3000.0, -4000.0, float("nan")])
    def test_a_long_grid_is_rejected_with_a_short_message(self, bad):
        # 100 051 points, 0:0.03:3001.5 at the CLI: the message names the
        # first bad point and counts the rest, where it printed the grid (1 MB).
        grid = parse_snr_grid("0:0.03:3001.5")
        if bad == 3000.0:  # every point past it, the first 3000.03
            first = next(s for s in grid if s > bad)
        else:  # one point, in the middle
            grid = grid[:50_000] + (bad,) + grid[50_000:100_001]
            first = bad
        with pytest.raises(ConfigError, match="from -3000 to 3000 dB") as info:
            SweepSpec(config=pair_config(), snr_grid_db=grid, trials=1)
        assert len(str(info.value)) <= 1000
        assert repr(first) in str(info.value)

    @pytest.mark.parametrize("grid", [(3000.0,), (-3000.0,), (-400.0, 400.0)])
    def test_edges_of_the_accepted_powers_run_clean(self, grid):
        spec = small_spec(config=pair_config(user_antennas=2, relay_antennas=2, eve_antennas=2),
                          snr_grid_db=grid, trials=3, criteria=("sinr", "sr", "s-sr"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
        assert np.all(result.n_discarded == 0)

    def test_far_but_representable_noise_powers_run_clean(self):
        spec = small_spec(snr_grid_db=(-330.0, 330.0, 400.0), trials=3,
                          criteria=("sinr", "sr", "s-sr"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
        assert result.samples.shape == (3, 3, 3)

    @pytest.mark.parametrize("pool, select, points, within", [
        (40, 8, 1, False),  # 76.9e6 candidates, 473 GB a trial
        (24, 6, 1, False),  # 0.47 GB a trial
        (12, 4, 1, True),  # pool12-select4: 0.76 MB a trial
        (12, 4, 1060, False),  # s-sr's Cholesky factors: 67.2e6 B a trial
    ])
    def test_candidate_bytes_a_trial_are_capped_before_anything_is_allocated(
            self, monkeypatch, pool, select, points, within):
        config = SystemConfig(num_users=select, user_antennas=1, relay_antennas=1,
                              pool_size=pool, selected_relays=select, num_eves=4,
                              eve_antennas=1, seed=0)
        assert (8 * math.comb(pool, select) * select ** 2 * max(12, points)
                <= montecarlo.TRIAL_BYTES_CAP) == within
        grid = tuple(range(points))
        tracemalloc.start()
        try:
            if within:
                SweepSpec(config=config, snr_grid_db=grid, trials=1)
            else:
                # Nor is a noise level taken.
                monkeypatch.setattr(SystemConfig, "noise_powers", None)
                with pytest.raises(ConfigError, match=f"choosing {select} of {pool} relays"):
                    SweepSpec(config=config, snr_grid_db=grid, trials=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_integral_float_count_runs(self):
        result = run_sweep(small_spec(trials=2.0, workers=1.0, criteria=("s-sr",)))
        assert result.samples.shape == (1, 3, 2)

    def test_unknown_criterion_rejected_with_names(self):
        with pytest.raises(ConfigError, match="unknown criterion 'bogus'; expected one of: .*s-sr"):
            small_spec(criteria=("s-sr", "bogus"))

    def test_criteria_accept_names(self):
        spec = SweepSpec(config=pair_config(), snr_grid_db=(0.0,), trials=1,
                         criteria=("sr", "s-sinr"))
        assert spec.criteria == (CriterionKind.SECRECY_RATE, CriterionKind.S_SINR)

    def test_max_ratio_needs_single_antennas(self):
        cfg = SystemConfig(num_users=2, user_antennas=2, relay_antennas=2,
                           pool_size=5, selected_relays=2, num_eves=2,
                           eve_antennas=2, seed=0)
        with pytest.raises(ConfigError, match="max-ratio"):
            SweepSpec(config=cfg, snr_grid_db=(0.0,), trials=1,
                      criteria=("max-ratio",))


class TestReproducibility:
    def test_single_trial_bit_exact_rerun(self):
        spec = small_spec(trials=1, snr_grid_db=(10.0,))
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.selections, b.selections)
        assert a.meta["spec_digest"] == b.meta["spec_digest"]

    def test_rerun_bit_exact(self):
        spec = small_spec()
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.selections, b.selections)

    def test_workers_do_not_change_results(self):
        serial = run_sweep(small_spec(workers=1))
        parallel = run_sweep(small_spec(workers=3))
        assert np.array_equal(serial.samples, parallel.samples)
        assert np.array_equal(serial.selections, parallel.selections)

    def test_seed_changes_results(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec(config=pair_config(seed=4)))
        assert not np.array_equal(a.samples, b.samples)


class TestWorkerPool:
    def test_one_chunk_per_process_and_this_process_runs_one(self, monkeypatch):
        started = []
        original = multiprocessing.Process.start

        def counted(process):
            started.append(process)
            original(process)

        monkeypatch.setattr(multiprocessing.Process, "start", counted)
        serial = run_sweep(small_spec(trials=4))
        sizes = []
        for workers in (2, 5):
            before = len(started)
            result = run_sweep(small_spec(workers=workers, trials=4))
            sizes.append(len(started) - before)
            assert result.samples.tobytes() == serial.samples.tobytes()
            assert result.selections.tobytes() == serial.selections.tobytes()
            # Every child the sweep started has been joined.
            assert multiprocessing.active_children() == []
        # Two workers fork one process; five workers on four trials fork three.
        assert sizes == [1, 3]

    @staticmethod
    def patch_chunks(monkeypatch, chunk):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched chunk reaches the worker only through fork")
        monkeypatch.setattr(montecarlo, "_run_trials", chunk)

    def test_a_child_error_is_raised_here_and_no_child_is_left(self, monkeypatch):
        original = montecarlo._run_trials

        def chunk(spec, indices):
            if 2 in indices:
                raise ArithmeticError(f"chunk {indices.tolist()}")
            return original(spec, indices)

        self.patch_chunks(monkeypatch, chunk)
        with pytest.raises(ArithmeticError, match=r"chunk \[2\]") as raised:
            run_sweep(small_spec(workers=4, trials=4))
        # The child's frames come along as the cause.
        assert ", in chunk\n" in "".join(traceback.format_exception(raised.value))
        assert multiprocessing.active_children() == []

    def test_an_error_here_stops_a_child_blocked_in_sending(self, monkeypatch):
        # The child's 1 MiB result fills the pipe's 64 KiB buffer, so its send
        # waits for a receive that never comes.
        def chunk(spec, indices):
            if 0 in indices:
                raise ArithmeticError("first chunk")
            return np.zeros(1 << 17), None, {}

        self.patch_chunks(monkeypatch, chunk)

        def hung(signum, frame):
            # Not an OSError, which multiprocessing's join would swallow.
            pytest.fail("run_sweep left a child blocked in sending for 30 s")

        # A sweep that no longer stops its children would wait for this one
        # forever; the alarm makes that a failure, and the child is killed.
        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        try:
            with pytest.raises(ArithmeticError, match="first chunk"):
                run_sweep(small_spec(workers=2, trials=4))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            leftover = multiprocessing.active_children()
            for child in leftover:
                child.kill()
                child.join()
        assert leftover == []


class TestPairing:
    def test_full_and_reduced_secrecy_pick_identically_on_square_stack(self):
        spec = small_spec(trials=120, criteria=("sr", "s-sr"))
        res = run_sweep(spec)
        assert np.array_equal(res.selections[0], res.selections[1])
        assert np.array_equal(res.samples[0], res.samples[1])

    def test_sample_counts_account_for_discards(self):
        res = run_sweep(small_spec())
        assert np.all(res.n_samples + res.n_discarded == res.spec.trials)
        assert np.all(res.n_samples > 0)
        assert np.all(np.isfinite(res.mean))

    def test_curve_accessor(self):
        res = run_sweep(small_spec())
        snr, mean, stderr = res.curve("sr")
        assert snr.shape == mean.shape == stderr.shape == (3,)
        assert np.all(stderr >= 0)
        with pytest.raises(ValueError):
            res.curve("max-ratio")


class TestCallsPerTrial:
    # A C(12, 4) pool of one-antenna nodes: a trial's candidate arrays take
    # 8 * 495 * 4**2 * 12 = 760320 bytes, over every budget here, so each
    # candidate block holds one trial. What a trial holds outside them, 22864
    # bytes with all six criteria on three points, sets the trial blocks: 11
    # trials at the default budget, 2 at 50000 bytes and 1 at 1 byte.
    FREE = ("channel-gain", "max-ratio", "s-sinr")
    SCORED = ("sinr", "sr", "s-sr")

    @pytest.mark.parametrize("budget, trial_blocks", [(None, 1), (50_000, 3), (1, 5)])
    def test_one_draw_pick_and_evaluation_per_trial_block(self, monkeypatch, budget,
                                                          trial_blocks):
        if budget is not None:
            monkeypatch.setattr(montecarlo, "BLOCK_BYTES", budget)
        calls = []
        for module, name in ((criteria, "select"), (criteria, "prepare_candidates"),
                             (montecarlo, "secrecy_rate"), (montecarlo, "generate_realization")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(f"{_name}.{args[0].value}" if _name == "select" else _name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        config = SystemConfig(seed=5, **TestBlockPeak.POOL12)
        spec = SweepSpec(config=config, snr_grid_db=(0.0, 10.0, 20.0), trials=5,
                         criteria=self.FREE + self.SCORED)
        result = run_sweep(spec)
        assert calls.count("generate_realization") == trial_blocks
        assert calls.count("secrecy_rate") == trial_blocks
        assert calls.count("prepare_candidates") == 5
        for kind in self.FREE:
            assert calls.count(f"select.{kind}") == trial_blocks, kind
        for kind in self.SCORED:
            assert calls.count(f"select.{kind}") == 5, kind
        assert np.all(result.n_discarded == 0)


class TestBlockBytes:
    def test_long_grid_keeps_the_cholesky_factors_within_the_budget(self, monkeypatch):
        # Two-antenna nodes on 41 points: a trial's Cholesky factors of the
        # s-sr term, 41 * C(5, 2) * 4**2 * 8 = 52480 bytes, outweigh its 15360
        # bytes of candidate arrays, so the grid length sets the block size.
        config = pair_config(user_antennas=2, relay_antennas=2, eve_antennas=2)
        spec = small_spec(config=config, snr_grid_db=tuple(np.linspace(0.0, 200.0, 41)),
                          trials=12, criteria=("sr", "s-sr"))
        sizes = []
        original = kernels.cholesky_factor

        def measured(grams, noise):
            factor = original(grams, noise)
            sizes.append(sum(array.nbytes for array in factor))
            return factor

        monkeypatch.setattr(kernels, "cholesky_factor", measured)
        result = run_sweep(spec)
        assert sizes and max(sizes) <= montecarlo.BLOCK_BYTES
        assert max(sizes) == 4 * 52480  # four trials a block
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 1)
        alone = run_sweep(spec)
        assert result.samples.tobytes() == alone.samples.tobytes()
        assert np.array_equal(result.selections, alone.selections)


class TestBlockPeak:
    # The traced peak of one trial block of _run_trials, in BLOCK_BYTES: the
    # budget scales a block's memory without bounding it, since it counts
    # only the largest arrays. Before this bound was fixed, the peaks read
    # 6.8, 3.8, 5.6 and 2.5 budgets on the fig2-single, fig5-relays-mimo,
    # pool12-select4 and fig5-101-points shapes; the fig3-rank block, whose
    # sr takes every trial's eavesdropper basis, read 4.9 per trial and 5.1
    # with sr scored per block, when it was added. On the other shapes a
    # trial block is one candidate block; the pool12-select4-16 block, added
    # with the trial blocks, is the workload's 16 trials in one trial block
    # of 16 one-trial candidate blocks.
    PEAK_BUDGETS = 8
    FIG2 = dict(num_users=2, user_antennas=1, relay_antennas=1, pool_size=5,
                selected_relays=2, num_eves=2, eve_antennas=1)
    FIG3 = dict(FIG2, num_eves=1)
    FIG5 = dict(num_users=2, user_antennas=2, relay_antennas=2, pool_size=7,
                selected_relays=2, num_eves=2, eve_antennas=2)
    POOL12 = dict(num_users=4, user_antennas=1, relay_antennas=1, pool_size=12,
                  selected_relays=4, num_eves=4, eve_antennas=1)
    PRESET_GRID = tuple(range(0, 21, 2))

    @pytest.mark.parametrize("dims, grid, kinds, block, candidate_blocks", [
        (FIG2, PRESET_GRID, ("channel-gain", "max-ratio", "sinr", "sr", "s-sinr", "s-sr"), 68, 1),
        (FIG3, PRESET_GRID, ("channel-gain", "sr", "s-sinr", "s-sr"), 68, 1),
        (FIG5, PRESET_GRID, ("channel-gain", "s-sinr", "s-sr"), 8, 1),
        (POOL12, (0, 10, 20), ("channel-gain", "s-sinr", "sr", "s-sr"), 1, 1),
        (POOL12, (0, 10, 20), ("channel-gain", "s-sinr", "sr", "s-sr"), 16, 16),
        (FIG5, tuple(range(0, 201, 2)), ("channel-gain", "s-sinr", "s-sr"), 1, 1),
    ], ids=["fig2-single", "fig3-rank", "fig5-relays-mimo", "pool12-select4",
            "pool12-select4-16", "fig5-101-points"])
    def test_one_block_peaks_within_a_fixed_multiple_of_the_budget(
            self, monkeypatch, dims, grid, kinds, block, candidate_blocks):
        spec = SweepSpec(config=SystemConfig(seed=11, **dims), snr_grid_db=grid,
                         trials=block, criteria=kinds)
        montecarlo._run_trials(spec, np.arange(1))  # fills the combination table's cache
        calls = []
        for module, name in ((criteria, "prepare_candidates"),
                             (montecarlo, "generate_realization")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        tracemalloc.start()
        try:
            floor = tracemalloc.get_traced_memory()[0]
            montecarlo._run_trials(spec, np.arange(block))
            peak = tracemalloc.get_traced_memory()[1] - floor
        finally:
            tracemalloc.stop()
        # The workload's block sizes, or larger.
        assert calls.count("generate_realization") == 1
        assert calls.count("prepare_candidates") == candidate_blocks
        assert peak <= self.PEAK_BUDGETS * montecarlo.BLOCK_BYTES

    def test_candidate_blocks_of_a_trial_block_share_one_set_of_arrays(self, monkeypatch):
        # pool12-select4's trial block of 16 one-trial candidate blocks: each
        # block is built into the arrays of the first, not into new ones. The
        # mechanism is pinned, not the page faults it saves, which depend on
        # the allocator.
        spec = SweepSpec(config=SystemConfig(seed=11, **self.POOL12), snr_grid_db=(0, 10, 20),
                         trials=16, criteria=("channel-gain", "s-sinr", "sr", "s-sr"))
        sets = []
        original = criteria.prepare_candidates

        def recorded(*args, **kwargs):
            sets.append(original(*args, **kwargs))
            return sets[-1]

        monkeypatch.setattr(criteria, "prepare_candidates", recorded)
        montecarlo._run_trials(spec, np.arange(16))
        assert len(sets) == 16
        names = ("hop1", "hop2", "cores", "precoders", "relay_cores", "relay_precoders")
        for later in sets[1:]:
            for name in names:
                assert np.shares_memory(getattr(later, name), getattr(sets[0], name)), name


class TestDiscardReasons:
    # Trial 1's first hop is all zero, so every candidate is invalid: s-sr
    # finds no viable one, while the two greedy rules and s-sinr (which
    # reads channel norms only) pick an invalid one. Trial 3's source-side
    # eavesdropper channels are NaN: every pick is valid, and its rate is
    # not finite, clamped or not.
    KINDS = ("channel-gain", "max-ratio", "s-sinr", "s-sr")
    EXPECTED = {  # per criterion of KINDS, at every SNR point
        "no-viable-candidate": [0, 0, 0, 1],
        "invalid-pick": [1, 1, 1, 0],
        "non-finite-rate": [1, 1, 1, 1],
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_by_reason_equal_the_csv_discards(self, monkeypatch, tmp_path, workers):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched draw reaches the worker only through fork")
        self.check_counts(monkeypatch, tmp_path, pair_config(), self.KINDS, workers)

    def test_counts_hold_with_two_antenna_eavesdroppers(self, monkeypatch, tmp_path):
        # 2x2 eavesdropper grams, whose log-determinants take the closed form:
        # a NaN gram is still a non-finite rate. max-ratio needs one antenna.
        kinds = tuple(k for k in self.KINDS if k != "max-ratio")
        self.check_counts(monkeypatch, tmp_path, pair_config(eve_antennas=2), kinds, 1)

    def check_counts(self, monkeypatch, tmp_path, config, kinds, workers):
        expected = {reason: [counts[self.KINDS.index(k)] for k in kinds]
                    for reason, counts in self.EXPECTED.items()}
        original = montecarlo.generate_realization

        def broken(config, trial):
            block = original(config, trial=trial)
            trials = list(trial)
            if 1 in trials:
                block.source_to_relay[trials.index(1)] = 0.0
            if 3 in trials:
                block.source_to_eve[trials.index(3)] = np.nan
            return block

        monkeypatch.setattr(montecarlo, "generate_realization", broken)
        for clamp in (False, True):
            result = run_sweep(small_spec(config=config, trials=5, criteria=kinds, clamp=clamp,
                                          workers=workers))
            discards = result.meta["discards"]
            assert sorted(discards) == sorted(expected)
            for reason, counts in expected.items():
                want = np.repeat(np.array(counts)[:, None], len(result.snr_grid_db), axis=1)
                assert np.array_equal(discards[reason], want), (reason, clamp)
            path = tmp_path / f"run-{clamp}.csv"
            emit_csv(result, str(path))
            with path.open() as handle:
                written = {(row["criterion"], float(row["snr_db"])): int(row["n_discarded"])
                           for row in csv.DictReader(handle)}
            total = sum(discards.values())
            for c, name in enumerate(result.criteria):
                for s, snr in enumerate(result.snr_grid_db):
                    assert written[name, snr] == total[c, s]


class TestHighSnrSlope:
    def test_mean_rate_keeps_its_slope_up_to_200_db(self):
        # Above 100 dB each stream's legitimate rate and eavesdropper term
        # grow by log2(10^5) per 50 dB; no rounding may flatten the curve.
        # The CI job runs the same check on the `relaysec run` CSV.
        spec = SweepSpec(config=SystemConfig(), snr_grid_db=(0, 50, 100, 150, 200), trials=20,
                         criteria=("sinr", "sr", "s-sr"))
        result = run_sweep(spec)
        assert np.all(result.n_discarded == 0)
        rise_mid = result.mean[:, 3] - result.mean[:, 2]
        rise_high = result.mean[:, 4] - result.mean[:, 3]
        assert np.all(np.abs(rise_high - rise_mid) <= 0.1 * rise_mid)

    def test_two_antenna_users_keep_every_trial_far_above_200_db(self):
        # At 2000 dB the 2x2 determinants of the sr/s-sr eavesdropper term
        # (entries near the noise power 1e-200) underflow in closed form.
        config = pair_config(user_antennas=2, relay_antennas=2, eve_antennas=2)
        spec = SweepSpec(config=config, snr_grid_db=(200.0, 2000.0), trials=5,
                         criteria=("sr", "s-sr"))
        assert np.all(run_sweep(spec).n_discarded == 0)


class TestStatistics:
    def test_doubling_trials_halves_mean_variance(self):
        # CLT oracle: the variance of the sample mean scales as 1/n
        base = dict(config=pair_config(seed=5), snr_grid_db=(16.0,),
                    criteria=(CriterionKind.S_SR,))
        small = run_sweep(SweepSpec(trials=400, **base))
        large = run_sweep(SweepSpec(trials=800, **base))
        ratio = (large.stderr[0, 0] / small.stderr[0, 0]) ** 2
        assert ratio == pytest.approx(0.5, rel=0.2)

    def test_stderr_matches_manual_computation(self):
        res = run_sweep(small_spec(trials=50))
        samples = res.samples[0, 1]
        want = samples.std(ddof=1) / np.sqrt(len(samples))
        assert res.stderr[0, 1] == pytest.approx(want)


class TestComparison:
    def test_equivalent_criteria_gap_zero(self):
        res = run_sweep(small_spec(trials=100, criteria=("sr", "s-sr")))
        report = compare_criteria(res)
        (pair,) = report.pairs
        assert np.allclose(pair.mean_gap, 0.0)
        assert np.allclose(pair.gap_stderr, 0.0)

    def test_single_criterion_empty_pair_table(self):
        res = run_sweep(small_spec(criteria=("sr",)))
        report = compare_criteria(res)
        assert report.pairs == []
        assert len(report.rankings) == 3

    def test_full_knowledge_dominates_channel_gain_at_high_snr(self):
        spec = small_spec(trials=500, snr_grid_db=(20.0,),
                          criteria=("sr", "channel-gain"))
        res = run_sweep(spec)
        report = compare_criteria(res)
        (pair,) = report.pairs
        assert pair.first == "sr"
        assert pair.mean_gap[0] >= -pair.gap_stderr[0]

    def test_render_mentions_every_criterion(self):
        res = run_sweep(small_spec(trials=30))
        text = compare_criteria(res).render()
        for name in res.criteria:
            assert name in text
