"""Sweep engine tests: reproducibility, pairing, aggregation statistics."""

import numpy as np
import pytest

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
