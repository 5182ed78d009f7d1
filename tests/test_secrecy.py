"""Evaluator tests: closed-form scalar oracles, clamping, monotonicity."""

import numpy as np
import pytest

from relaysec.criteria import prepare_candidates
from relaysec.model import SingularChannelError, SystemConfig, generate_realization
from relaysec.reference import (
    gamma_rate_bits,
    pair_secrecy_rate,
    position,
    relay_precoder,
    zf_precoder,
)
from relaysec.secrecy import secrecy_rate


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
    return real, combo, prepare_candidates(real, cfg)


class TestScalarClosedForms:
    def test_legit_rate_matches_hand_formula(self):
        cfg = scalar_config()
        real, combo, cands = build(cfg)
        h1 = abs(real.source_to_relay[0][0, 0]) ** 2
        h2 = abs(real.relay_to_user[(0, 0)][0, 0]) ** 2
        snr = 1.0 / cfg.noise_power
        want = 0.5 * min(np.log2(1 + h1 * snr), np.log2(1 + h2 * snr))
        assert pair_secrecy_rate(real, cands, combo, cfg).legit_rate == pytest.approx(want)

    def test_eve_rate_matches_hand_formula_phase1(self):
        cfg = scalar_config()
        real, combo, cands = build(cfg)
        he = abs(real.source_to_eve[0][0, 0]) ** 2
        snr = 1.0 / cfg.noise_power
        want = 0.5 * np.log2(1 + he * snr)
        got = pair_secrecy_rate(real, cands, combo, cfg, eve_model="phase1").eve_rate
        assert got == pytest.approx(want)

    def test_both_phases_adds_relay_leakage(self):
        cfg = scalar_config()
        real, combo, cands = build(cfg)
        he1 = abs(real.source_to_eve[0][0, 0]) ** 2
        he2 = abs(real.relay_to_eve[(0, 0)][0, 0]) ** 2
        snr = 1.0 / cfg.noise_power
        want = 0.5 * (np.log2(1 + he1 * snr) + np.log2(1 + he2 * snr))
        got = pair_secrecy_rate(real, cands, combo, cfg, eve_model="both").eve_rate
        assert got == pytest.approx(want)

    def test_secrecy_rate_is_clamped_difference(self):
        cfg = scalar_config()
        real, combo, cands = build(cfg)
        sample = pair_secrecy_rate(real, cands, combo, cfg)
        assert sample.secrecy_rate == pytest.approx(max(sample.legit_rate - sample.eve_rate, 0.0))


class TestEdgeCases:
    def test_zero_eavesdropper_channels_leak_nothing(self):
        cfg = pair_config()
        real, combo, cands = build(cfg)
        for k in range(cfg.num_eves):
            real.source_to_eve[k] = np.zeros((1, 2), dtype=complex)
            for i in range(cfg.pool_size):
                real.relay_to_eve[(i, k)] = np.zeros((1, 1), dtype=complex)
        assert pair_secrecy_rate(real, cands, combo, cfg).eve_rate == 0.0
        sample = pair_secrecy_rate(real, cands, combo, cfg)
        assert sample.secrecy_rate == pytest.approx(sample.legit_rate)

    def test_clamp_when_eavesdropper_dominates(self):
        cfg = pair_config()
        real, combo, cands = build(cfg)
        for k in range(cfg.num_eves):
            real.source_to_eve[k] = 40.0 * real.source_to_eve[k]
        sample = pair_secrecy_rate(real, cands, combo, cfg)
        assert sample.secrecy_rate == 0.0
        signed = pair_secrecy_rate(real, cands, combo, cfg, clamp=False)
        assert signed.secrecy_rate < 0.0
        assert signed.secrecy_rate == pytest.approx(
            signed.legit_rate - signed.eve_rate)

    def test_half_duplex_factor_flag(self):
        cfg = scalar_config()
        real, combo, cands = build(cfg)
        half = pair_secrecy_rate(real, cands, combo, cfg, half_duplex=True).legit_rate
        full = pair_secrecy_rate(real, cands, combo, cfg, half_duplex=False).legit_rate
        assert full == pytest.approx(2.0 * half)

    def test_singular_pick_raises(self):
        cfg = pair_config()
        real = generate_realization(cfg)
        real.source_to_relay[1] = real.source_to_relay[0]  # rank-one first hop
        cands = prepare_candidates(real, cfg)
        assert not cands.valid[position(cfg, (0, 1))]
        with pytest.raises(SingularChannelError):
            pair_secrecy_rate(real, cands, (0, 1), cfg)

    @pytest.mark.parametrize("eve_model", ["phase1", "both"])
    def test_empty_batch_gives_empty_rates(self, eve_model):
        # A block whose criteria found nothing viable still makes its call.
        cfg = pair_config(user_antennas=2, relay_antennas=2, eve_antennas=2)
        real = generate_realization(cfg, trial=[0, 1])
        none = np.zeros(0, dtype=int)
        sample = secrecy_rate(real, prepare_candidates(real, cfg).rows(none, none), cfg,
                              np.zeros(0), eve_model=eve_model)
        for rates in (sample.secrecy_rate, sample.legit_rate, sample.eve_rate):
            assert rates.shape == (0,)

    def test_rates_nonnegative(self):
        cfg = pair_config()
        for t in range(50):
            real, combo, cands = build(cfg, trial=t)
            sample = pair_secrecy_rate(real, cands, combo, cfg)
            assert sample.secrecy_rate >= 0.0
            assert sample.legit_rate >= 0.0
            assert sample.eve_rate >= 0.0


class TestMonotonicity:
    def test_extra_eavesdropper_never_lowers_eve_rate(self):
        small = pair_config(num_eves=1)
        large = pair_config(num_eves=2)
        for t in range(20):
            real_l = generate_realization(large, trial=t)
            combo = (0, 1)
            cands = prepare_candidates(real_l, large)
            # keyed draws make the first eavesdropper identical in both
            real_s = generate_realization(small, trial=t)
            assert np.array_equal(real_s.source_to_eve[0], real_l.source_to_eve[0])
            low = pair_secrecy_rate(real_s, cands, combo, small).eve_rate
            high = pair_secrecy_rate(real_l, cands, combo, large).eve_rate
            assert high >= low - 1e-12

    def test_both_phases_at_least_phase1(self):
        cfg = pair_config()
        for t in range(20):
            real, combo, cands = build(cfg, trial=t)
            p1 = pair_secrecy_rate(real, cands, combo, cfg, eve_model="phase1").eve_rate
            both = pair_secrecy_rate(real, cands, combo, cfg, eve_model="both").eve_rate
            assert both >= p1 - 1e-12

    def test_worstcase_aggregate_bounded_by_sum(self):
        cfg = pair_config()
        real, combo, cands = build(cfg, trial=3)
        worst = pair_secrecy_rate(real, cands, combo, cfg, eve_aggregate="max").eve_rate
        total = pair_secrecy_rate(real, cands, combo, cfg, eve_aggregate="sum").eve_rate
        assert worst <= total + 1e-12

    def test_vanishing_eavesdropper_scale_recovers_legit(self):
        cfg = pair_config()
        real, combo, cands = build(cfg, trial=4)
        legit = pair_secrecy_rate(real, cands, combo, cfg).legit_rate
        gaps = []
        for scale in (1e-3, 1e-6):
            scaled = generate_realization(cfg, trial=4)
            for k in range(cfg.num_eves):
                scaled.source_to_eve[k] = scale * scaled.source_to_eve[k]
                for i in range(cfg.pool_size):
                    scaled.relay_to_eve[(i, k)] = scale * scaled.relay_to_eve[(i, k)]
            sample = pair_secrecy_rate(scaled, cands, combo, cfg)
            gaps.append(abs(sample.secrecy_rate - legit))
        assert gaps[0] < 1e-3
        assert gaps[1] < 1e-9
        assert gaps[1] <= gaps[0]


class TestCriterionAgnostic:
    def test_same_combination_same_sample(self):
        # The achieved rates of a combination do not depend on which
        # criterion picked it: where several criteria pick the same
        # candidate of the same trial at the same SNR, every copy of that
        # pick in one batch gets the same bits.
        cfg = pair_config()
        real = generate_realization(cfg, trial=[6, 7])
        cands = prepare_candidates(real, cfg)
        trials, rows = np.nonzero(cands.valid)
        assert len(rows) > 2
        copies = 3
        noise = np.full(copies * len(rows), cfg.noise_power)
        sample = secrecy_rate(real, cands.rows(np.tile(trials, copies), np.tile(rows, copies)),
                              cfg, noise)
        for rates in (sample.secrecy_rate, sample.legit_rate, sample.eve_rate):
            first, *others = rates.reshape(copies, -1)
            assert all(other.tobytes() == first.tobytes() for other in others)

    def test_explicit_relay_precoder_matches_internal(self):
        # The evaluation reads the relay precoder from the candidate set; it
        # must be the scalar oracle's matrix, bit for bit.
        cfg = pair_config()
        real, _, cands = build(cfg, trial=7)
        for pos, combo in enumerate(cands.combinations):
            v = relay_precoder(real, combo, cfg)
            assert np.array_equal(cands.relay_precoders[pos], v.matrix)


def composed_rates(real, combo, cfg, eve_model, eve_aggregate):
    """(legit, eve) of one pair, composed from the scalar precoders and the
    rate oracle, one receiver at a time."""
    users = range(cfg.num_users)

    def rate(channel, precoder, user):
        return max(gamma_rate_bits(channel, precoder.user_block(user),
                                   precoder.other_columns(user), cfg.noise_power), 0.0)

    u = zf_precoder(real.stacked_source_channel(combo), user_antennas=cfg.user_antennas)
    v = relay_precoder(real, combo, cfg)
    h1 = real.stacked_source_channel(combo)
    h2 = real.all_users_channel(combo)
    legit = 0.5 * min(sum(rate(h1[cfg.user_streams(r)], u, r) for r in users),
                      sum(rate(h2[cfg.user_streams(r)], v, r) for r in users))
    per_eve = []
    for k in range(cfg.num_eves):
        leak = sum(rate(real.source_to_eve[k], u, r) for r in users)
        if eve_model == "both":
            e2 = np.hstack([real.relay_to_eve[(i, k)] for i in combo])
            leak += sum(rate(e2, v, r) for r in users)
        per_eve.append(leak)
    return legit, 0.5 * (sum(per_eve) if eve_aggregate == "sum" else max(per_eve))


class TestMimoAgainstComposedCovariances:
    @pytest.mark.parametrize("eve_model", ["phase1", "both"])
    @pytest.mark.parametrize("eve_aggregate", ["sum", "max"])
    def test_rates_match_hand_composition(self, eve_model, eve_aggregate):
        cfg = pair_config(user_antennas=2, relay_antennas=2, eve_antennas=2, snr_db=6.0)
        for t in range(5):
            real, combo, cands = build(cfg, trial=t)
            legit, eve = composed_rates(real, combo, cfg, eve_model, eve_aggregate)
            options = dict(eve_model=eve_model, eve_aggregate=eve_aggregate)
            signed = pair_secrecy_rate(real, cands, combo, cfg, clamp=False, **options)
            assert signed.legit_rate == pytest.approx(legit, rel=1e-9)
            assert signed.eve_rate == pytest.approx(eve, rel=1e-9)
            assert signed.secrecy_rate == pytest.approx(legit - eve, rel=1e-9)
            clamped = pair_secrecy_rate(real, cands, combo, cfg, **options)
            assert clamped.secrecy_rate == pytest.approx(max(legit - eve, 0.0), rel=1e-9)

    # Every eavesdropper has more antennas than the other users have
    # streams (N_e > N_t - N_r), where a gram on its side is singular and
    # the noise, 1e-10 to 1e-20 here, lies far below that gram's rounding.
    # At N_r = 2, N_t = 4 and N_e = 3 a user's two streams keep one
    # dimension clear of the others' span: the oracle takes that part's
    # 1 / s terms in a factor of their own.
    @pytest.mark.parametrize("dims", [
        dict(eve_antennas=2),
        dict(user_antennas=2, relay_antennas=2, eve_antennas=4),
        dict(user_antennas=2, relay_antennas=2, eve_antennas=3),
    ], ids=["single-antenna-users", "two-antenna-users", "two-antenna-users-three-eve-antennas"])
    @pytest.mark.parametrize("snr_db", [100.0, 150.0, 200.0])
    @pytest.mark.parametrize("eve_model", ["phase1", "both"])
    def test_rates_match_woodbury_oracle_at_high_snr(self, dims, snr_db, eve_model):
        cfg = pair_config(snr_db=snr_db, **dims)
        for t in range(5):
            real, combo, cands = build(cfg, trial=t)
            legit, eve = composed_rates(real, combo, cfg, eve_model, "sum")
            signed = pair_secrecy_rate(real, cands, combo, cfg, clamp=False, eve_model=eve_model)
            assert signed.legit_rate == pytest.approx(legit, rel=1e-9)
            assert signed.eve_rate == pytest.approx(eve, rel=1e-9)
            assert signed.secrecy_rate == pytest.approx(legit - eve, rel=1e-9,
                                                        abs=1e-9 * (legit + eve))
