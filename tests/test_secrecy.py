"""Evaluator tests: closed-form scalar oracles, clamping, monotonicity."""

import numpy as np
import pytest

from relaysec.criteria import channel_gain_select, gamma_rate_bits, sr_select, ssinr_select
from relaysec.model import (
    SystemConfig,
    desired_covariance,
    generate_realization,
    interference_covariance,
    relay_precoder,
    zf_precoder,
)
from relaysec.secrecy import eve_rate, legit_rate, secrecy_rate


def scalar_config(**kw):
    base = dict(num_users=1, user_antennas=1, relay_antennas=1, pool_size=1,
                selected_relays=1, num_eves=1, eve_antennas=1, snr_db=10.0, seed=2)
    base.update(kw)
    return SystemConfig(**base)


def pair_config(**kw):
    base = dict(num_users=2, user_antennas=1, relay_antennas=1, pool_size=5,
                selected_relays=2, num_eves=2, eve_antennas=1, snr_db=10.0, seed=2)
    base.update(kw)
    return SystemConfig(**base)


def build(cfg, trial=0):
    real = generate_realization(cfg, trial=trial)
    combo = tuple(range(cfg.selected_relays))
    pre = zf_precoder(real.stacked_source_channel(combo), cfg.signal_power,
                      cfg.user_antennas)
    return real, combo, pre


class TestScalarClosedForms:
    def test_legit_rate_matches_hand_formula(self):
        cfg = scalar_config()
        real, combo, pre = build(cfg)
        h1 = abs(real.source_to_relay[0][0, 0]) ** 2
        h2 = abs(real.relay_to_user[(0, 0)][0, 0]) ** 2
        snr = cfg.signal_power / cfg.noise_power
        want = 0.5 * min(np.log2(1 + h1 * snr), np.log2(1 + h2 * snr))
        assert legit_rate(real, pre, combo, cfg) == pytest.approx(want)

    def test_eve_rate_matches_hand_formula_phase1(self):
        cfg = scalar_config()
        real, combo, pre = build(cfg)
        he = abs(real.source_to_eve[0][0, 0]) ** 2
        snr = cfg.signal_power / cfg.noise_power
        want = 0.5 * np.log2(1 + he * snr)
        got = eve_rate(real, pre, combo, cfg, eve_model="phase1")
        assert got == pytest.approx(want)

    def test_both_phases_adds_relay_leakage(self):
        cfg = scalar_config()
        real, combo, pre = build(cfg)
        he1 = abs(real.source_to_eve[0][0, 0]) ** 2
        he2 = abs(real.relay_to_eve[(0, 0)][0, 0]) ** 2
        snr = cfg.signal_power / cfg.noise_power
        want = 0.5 * (np.log2(1 + he1 * snr) + np.log2(1 + he2 * snr))
        got = eve_rate(real, pre, combo, cfg, eve_model="both")
        assert got == pytest.approx(want)

    def test_secrecy_rate_is_clamped_difference(self):
        cfg = scalar_config()
        real, combo, pre = build(cfg)
        sample = secrecy_rate(real, pre, combo, cfg, criterion="sr")
        want = max(legit_rate(real, pre, combo, cfg)
                   - eve_rate(real, pre, combo, cfg), 0.0)
        assert sample.secrecy_rate == pytest.approx(want)
        assert sample.combination == combo
        assert sample.snr_db == cfg.snr_db


class TestEdgeCases:
    def test_zero_eavesdropper_channels_leak_nothing(self):
        cfg = pair_config()
        real, combo, pre = build(cfg)
        for k in range(cfg.num_eves):
            real.source_to_eve[k] = np.zeros((1, 2), dtype=complex)
            for i in range(cfg.pool_size):
                real.relay_to_eve[(i, k)] = np.zeros((1, 1), dtype=complex)
        assert eve_rate(real, pre, combo, cfg) == 0.0
        sample = secrecy_rate(real, pre, combo, cfg)
        assert sample.secrecy_rate == pytest.approx(sample.legit_rate)

    def test_clamp_when_eavesdropper_dominates(self):
        cfg = pair_config()
        real, combo, pre = build(cfg)
        for k in range(cfg.num_eves):
            real.source_to_eve[k] = 40.0 * real.source_to_eve[k]
        sample = secrecy_rate(real, pre, combo, cfg)
        assert sample.secrecy_rate == 0.0
        signed = secrecy_rate(real, pre, combo, cfg, clamp=False)
        assert signed.secrecy_rate < 0.0
        assert signed.secrecy_rate == pytest.approx(
            signed.legit_rate - signed.eve_rate)

    def test_half_duplex_factor_flag(self):
        cfg = scalar_config()
        real, combo, pre = build(cfg)
        half = legit_rate(real, pre, combo, cfg, half_duplex=True)
        full = legit_rate(real, pre, combo, cfg, half_duplex=False)
        assert full == pytest.approx(2.0 * half)

    def test_rates_nonnegative(self):
        cfg = pair_config()
        for t in range(50):
            real, combo, pre = build(cfg, trial=t)
            sample = secrecy_rate(real, pre, combo, cfg)
            assert sample.secrecy_rate >= 0.0
            assert sample.legit_rate >= 0.0
            assert sample.eve_rate >= 0.0


class TestMonotonicity:
    def test_more_signal_power_never_hurts_legit(self):
        cfg = pair_config()
        for t in range(20):
            real, combo, _ = build(cfg, trial=t)
            low_cfg = cfg
            high_cfg = SystemConfig(**{**low_cfg.__dict__, "signal_power": 2.0})
            low = legit_rate(real, zf_precoder(
                real.stacked_source_channel(combo), 1.0, 1), combo, low_cfg)
            high = legit_rate(real, zf_precoder(
                real.stacked_source_channel(combo), 2.0, 1), combo, high_cfg)
            assert high >= low - 1e-12

    def test_extra_eavesdropper_never_lowers_eve_rate(self):
        small = pair_config(num_eves=1)
        large = pair_config(num_eves=2)
        for t in range(20):
            real_l = generate_realization(large, trial=t)
            combo = (0, 1)
            pre = zf_precoder(real_l.stacked_source_channel(combo), 1.0, 1)
            # keyed draws make the first eavesdropper identical in both
            real_s = generate_realization(small, trial=t)
            assert np.array_equal(real_s.source_to_eve[0], real_l.source_to_eve[0])
            low = eve_rate(real_s, pre, combo, small)
            high = eve_rate(real_l, pre, combo, large)
            assert high >= low - 1e-12

    def test_both_phases_at_least_phase1(self):
        cfg = pair_config()
        for t in range(20):
            real, combo, pre = build(cfg, trial=t)
            p1 = eve_rate(real, pre, combo, cfg, eve_model="phase1")
            both = eve_rate(real, pre, combo, cfg, eve_model="both")
            assert both >= p1 - 1e-12

    def test_worstcase_aggregate_bounded_by_sum(self):
        cfg = pair_config()
        real, combo, pre = build(cfg, trial=3)
        worst = eve_rate(real, pre, combo, cfg, eve_aggregate="max")
        total = eve_rate(real, pre, combo, cfg, eve_aggregate="sum")
        assert worst <= total + 1e-12

    def test_vanishing_eavesdropper_scale_recovers_legit(self):
        cfg = pair_config()
        real, combo, pre = build(cfg, trial=4)
        legit = legit_rate(real, pre, combo, cfg)
        gaps = []
        for scale in (1e-3, 1e-6):
            scaled = generate_realization(cfg, trial=4)
            for k in range(cfg.num_eves):
                scaled.source_to_eve[k] = scale * scaled.source_to_eve[k]
                for i in range(cfg.pool_size):
                    scaled.relay_to_eve[(i, k)] = scale * scaled.relay_to_eve[(i, k)]
            sample = secrecy_rate(scaled, pre, combo, cfg)
            gaps.append(abs(sample.secrecy_rate - legit))
        assert gaps[0] < 1e-3
        assert gaps[1] < 1e-9
        assert gaps[1] <= gaps[0]


class TestCriterionAgnostic:
    def test_same_combination_same_sample(self):
        cfg = pair_config()
        real = generate_realization(cfg, trial=6)
        picks = set()
        samples = {}
        for select_fn in (channel_gain_select, ssinr_select, sr_select):
            combo, _ = select_fn(real, cfg)
            pre = zf_precoder(real.stacked_source_channel(combo), cfg.signal_power,
                              cfg.user_antennas)
            sample = secrecy_rate(real, pre, combo, cfg)
            picks.add(combo)
            samples.setdefault(combo, []).append(sample.secrecy_rate)
        for combo, values in samples.items():
            assert len(set(values)) == 1

    def test_explicit_relay_precoder_matches_internal(self):
        cfg = pair_config()
        real, combo, pre = build(cfg, trial=7)
        v = relay_precoder(real, combo, cfg)
        a = secrecy_rate(real, pre, combo, cfg)
        b = secrecy_rate(real, pre, combo, cfg, relay_pre=v)
        assert a.secrecy_rate == b.secrecy_rate


class TestMimoAgainstComposedCovariances:
    @pytest.mark.parametrize("eve_model", ["phase1", "both"])
    @pytest.mark.parametrize("eve_aggregate", ["sum", "max"])
    def test_rates_match_hand_composition(self, eve_model, eve_aggregate):
        cfg = pair_config(user_antennas=2, relay_antennas=2, eve_antennas=2, snr_db=6.0)
        users = range(cfg.num_users)

        def rate(channel, precoder, user):
            rd = desired_covariance(precoder, user)
            ri = interference_covariance(precoder, user, include_noise=False)
            return max(gamma_rate_bits(channel, rd, ri, cfg.noise_power), 0.0)

        for t in range(5):
            real, combo, u = build(cfg, trial=t)
            v = relay_precoder(real, combo, cfg)
            h1 = real.stacked_source_channel(combo)
            h2 = real.all_users_channel(combo, cfg.num_users)
            legit = 0.5 * min(sum(rate(h1[cfg.user_streams(r)], u, r) for r in users),
                              sum(rate(h2[cfg.user_streams(r)], v, r) for r in users))
            per_eve = []
            for k in range(cfg.num_eves):
                leak = sum(rate(real.source_to_eve[k], u, r) for r in users)
                if eve_model == "both":
                    e2 = np.hstack([real.relay_to_eve[(i, k)] for i in combo])
                    leak += sum(rate(e2, v, r) for r in users)
                per_eve.append(leak)
            eve = 0.5 * (sum(per_eve) if eve_aggregate == "sum" else max(per_eve))
            options = dict(eve_model=eve_model, eve_aggregate=eve_aggregate)
            signed = secrecy_rate(real, u, combo, cfg, clamp=False, **options)
            assert signed.legit_rate == pytest.approx(legit, rel=1e-9)
            assert signed.eve_rate == pytest.approx(eve, rel=1e-9)
            assert signed.secrecy_rate == pytest.approx(legit - eve, rel=1e-9)
            clamped = secrecy_rate(real, u, combo, cfg, **options)
            assert clamped.secrecy_rate == pytest.approx(max(legit - eve, 0.0), rel=1e-9)
