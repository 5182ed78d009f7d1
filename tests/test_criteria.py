"""Criteria tests: per-candidate metrics against independent oracles, and the
exhaustive selections against brute-force evaluation through the public ops."""

import numpy as np
import pytest

from relaysec.criteria import (
    CriterionKind,
    NotSingleAntennaError,
    SingularGramError,
    channel_gain_select,
    combine_metrics,
    enumerate_combinations,
    gamma_rate_bits,
    max_ratio_select,
    prepare_candidates,
    score_candidates,
    secrecy_gamma,
    select,
    sinr_relay_metric,
    sinr_select,
    sinr_user_metric,
    sr_select,
    ssinr_metric,
    ssinr_select,
    ssr_eve_term,
    ssr_select,
)
from relaysec.model import (
    EveChannelsUnavailableError,
    Precoder,
    SystemConfig,
    complex_normal,
    desired_covariance,
    generate_realization,
    interference_covariance,
    relay_precoder,
    zf_precoder,
)
from relaysec.montecarlo import SweepSpec, run_sweep


def single_antenna_config(**kw):
    base = dict(num_users=2, user_antennas=1, relay_antennas=1, pool_size=5,
                selected_relays=2, num_eves=2, eve_antennas=1, snr_db=10.0, seed=0)
    base.update(kw)
    return SystemConfig(**base)


def scalar_config(**kw):
    base = dict(num_users=1, user_antennas=1, relay_antennas=1, pool_size=5,
                selected_relays=1, num_eves=1, eve_antennas=1, snr_db=10.0, seed=0)
    base.update(kw)
    return SystemConfig(**base)


def mimo_config(**kw):
    base = dict(num_users=2, user_antennas=2, relay_antennas=2, pool_size=5,
                selected_relays=2, num_eves=2, eve_antennas=2, snr_db=10.0, seed=0)
    base.update(kw)
    return SystemConfig(**base)


class TestEnumeration:
    def test_singletons(self):
        assert enumerate_combinations(5, 1) == [(0,), (1,), (2,), (3,), (4,)]

    def test_pairs_lexicographic(self):
        combos = enumerate_combinations(5, 2)
        assert len(combos) == 10
        assert combos[0] == (0, 1)
        assert combos[-1] == (3, 4)
        assert combos == sorted(set(combos))

    def test_full_pool(self):
        assert enumerate_combinations(4, 4) == [(0, 1, 2, 3)]

    def test_oversized_selection_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            enumerate_combinations(3, 4)


class TestChannelGain:
    def test_dominant_relay_selected_first(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg)
        for i in range(cfg.pool_size):
            real.source_to_relay[i] = np.zeros((1, 2), dtype=complex)
        real.source_to_relay[3] = np.ones((1, 2), dtype=complex)
        combo, score = channel_gain_select(real, cfg)
        assert 3 in combo
        assert score.eta1 == pytest.approx(2.0)  # others contribute zero

    def test_symmetric_tie_breaks_to_lowest_indices(self):
        cfg = mimo_config()
        real = generate_realization(cfg)
        for i in range(cfg.pool_size):
            real.source_to_relay[i] = np.eye(2, 4, dtype=complex)
        combo, _ = channel_gain_select(real, cfg)
        assert combo == (0, 1)

    def test_matches_trace_sort_oracle(self):
        cfg = single_antenna_config()
        for t in range(25):
            real = generate_realization(cfg, trial=t)
            traces = {i: np.sum(np.abs(real.source_to_relay[i]) ** 2)
                      for i in range(cfg.pool_size)}
            expect = tuple(sorted(sorted(traces, key=lambda i: (-traces[i], i))[:2]))
            combo, score = channel_gain_select(real, cfg)
            assert combo == expect
            assert score.eta1 == pytest.approx(sum(traces[i] for i in combo))


class TestMaxRatio:
    def test_requires_single_antennas(self):
        cfg = mimo_config()
        real = generate_realization(cfg)
        with pytest.raises(NotSingleAntennaError):
            max_ratio_select(real, cfg)

    def test_requires_eavesdropper_channels(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg).without_eavesdroppers()
        with pytest.raises(EveChannelsUnavailableError):
            max_ratio_select(real, cfg)

    def test_dominant_relay_wins_eta1(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg)
        for k in range(cfg.num_eves):
            real.source_to_eve[k] = np.full((1, 2), np.sqrt(0.5), dtype=complex)
        for i in range(cfg.pool_size):
            real.source_to_relay[i] = np.full((1, 2), 0.1, dtype=complex)
        real.source_to_relay[2] = np.ones((1, 2), dtype=complex)
        combo, score = max_ratio_select(real, cfg)
        assert 2 in combo
        assert score.eta1 == pytest.approx(2.0 / 2.0)  # gain 2 over eve gain 2

    def test_uniform_channels_tie_break(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg)
        one = np.ones((1, 2), dtype=complex)
        for i in range(cfg.pool_size):
            real.source_to_relay[i] = one.copy()
            for r in range(cfg.num_users):
                real.relay_to_user[(i, r)] = np.ones((1, 1), dtype=complex)
            for k in range(cfg.num_eves):
                real.relay_to_eve[(i, k)] = np.ones((1, 1), dtype=complex)
        combo, _ = max_ratio_select(real, cfg)
        assert combo == (0, 1)

    def test_matches_ratio_oracle(self):
        cfg = single_antenna_config()
        for t in range(25):
            real = generate_realization(cfg, trial=t)
            se = sum(np.sum(np.abs(real.source_to_eve[k]) ** 2)
                     for k in range(cfg.num_eves))
            ratios = {}
            for i in range(cfg.pool_size):
                m1 = np.sum(np.abs(real.source_to_relay[i]) ** 2) / se
                up = sum(np.sum(np.abs(real.relay_to_user[(i, r)]) ** 2)
                         for r in range(cfg.num_users))
                down = sum(np.sum(np.abs(real.relay_to_eve[(i, k)]) ** 2)
                           for k in range(cfg.num_eves))
                ratios[i] = min(m1, up / down)
            expect = tuple(sorted(sorted(ratios, key=lambda i: (-ratios[i], i))[:2]))
            combo, _ = max_ratio_select(real, cfg)
            assert combo == expect


class TestSinrMetrics:
    def test_no_interference_aligned_value(self):
        # unit-norm channel row, rank-one aligned signal covariance
        cfg = scalar_config(num_users=1)
        real = generate_realization(cfg)
        row = np.array([[0.6 + 0.8j]])  # |h| = 1
        real.source_to_relay[0] = row
        u = np.sqrt(cfg.signal_power) * row.conj().T
        pre = Precoder(matrix=u, core=u, signal_power=cfg.signal_power, user_antennas=1)
        got = sinr_relay_metric(real, pre, (0,), cfg)
        assert got == pytest.approx(cfg.signal_power / cfg.noise_power)

    def test_matches_quadratic_form_oracle(self):
        cfg = mimo_config()
        for t in range(10):
            real = generate_realization(cfg, trial=t)
            combo = (1, 4)
            pre = zf_precoder(real.stacked_source_channel((0, 2)), cfg.signal_power,
                              cfg.user_antennas)
            got = sinr_relay_metric(real, pre, combo, cfg)
            # independent per-stream evaluation
            h = real.stacked_source_channel(combo)
            total = pre.matrix @ pre.matrix.conj().T
            values = []
            for stream in range(4):
                u = cfg.stream_user(stream)
                block = pre.user_block(u)
                rd = block @ block.conj().T
                row = h[stream]
                num = np.real(row @ rd @ row.conj())
                den = np.real(row @ (total - rd) @ row.conj()) + cfg.noise_power
                values.append(num / den)
            per_relay = [np.mean(values[:2]), np.mean(values[2:])]
            assert got == pytest.approx(min(per_relay))

    def test_numerator_linearity(self):
        # scaling the desired covariance scales the no-interference metric
        cfg = scalar_config(num_users=1)
        real = generate_realization(cfg, trial=1)
        u = np.array([[1.0 + 0j]])
        pre1 = Precoder(matrix=u, core=u, signal_power=1.0, user_antennas=1)
        pre2 = Precoder(matrix=np.sqrt(2.0) * u, core=u, signal_power=2.0,
                        user_antennas=1)
        m1 = sinr_relay_metric(real, pre1, (0,), cfg)
        m2 = sinr_relay_metric(real, pre2, (0,), cfg)
        assert m2 == pytest.approx(2.0 * m1)

    def test_user_metric_scalar_ratio(self):
        # single user, scalar second hop: SINR = |h|^2 * power / noise
        cfg = scalar_config(num_users=1)
        real = generate_realization(cfg, trial=2)
        h2 = real.relay_to_user[(0, 0)]
        got = sinr_user_metric(real, (0,), cfg)
        want = np.abs(h2[0, 0]) ** 2 * cfg.signal_power / cfg.noise_power
        assert got == pytest.approx(want)

    def test_user_metric_numerator_override(self):
        cfg = scalar_config(num_users=1)
        real = generate_realization(cfg, trial=3)
        h2 = real.relay_to_user[(0, 0)]
        r_out = np.array([[4.0 + 0j]])
        got = sinr_user_metric(real, (0,), cfg, relay_output_covariance=r_out)
        assert got == pytest.approx(np.abs(h2[0, 0]) ** 2 * 4.0 / cfg.noise_power)

    def test_stronger_channels_raise_user_metric(self):
        cfg = scalar_config(num_users=1)
        real = generate_realization(cfg, trial=4)
        base = sinr_user_metric(real, (0,), cfg)
        real.relay_to_user[(0, 0)] = 2.0 * real.relay_to_user[(0, 0)]
        assert sinr_user_metric(real, (0,), cfg) == pytest.approx(4.0 * base)


class TestSecrecyGamma:
    def test_identity_sandwich_returns_numerator(self):
        rng = np.random.default_rng(3)
        a = complex_normal(rng, (3, 3))
        a = a @ a.conj().T
        got = secrecy_gamma(np.eye(3, dtype=complex), a, np.eye(3, dtype=complex))
        assert np.allclose(got, a, atol=1e-12)

    def test_self_ratio_is_identity(self):
        rng = np.random.default_rng(4)
        h = complex_normal(rng, (2, 4))
        r = complex_normal(rng, (4, 4))
        r = r @ r.conj().T + 0.1 * np.eye(4)
        got = secrecy_gamma(h, r, r)
        assert np.allclose(got, np.eye(2), atol=1e-10)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = complex_normal(rng, (2, 4))
            a = complex_normal(rng, (4, 4))
            b = complex_normal(rng, (4, 4))
            r_num = a @ a.conj().T
            r_den = b @ b.conj().T + 0.05 * np.eye(4)
            got = secrecy_gamma(h, r_num, r_den)
            want = np.linalg.inv(h @ r_den @ h.conj().T) @ (h @ r_num @ h.conj().T)
            assert np.allclose(got, want, atol=1e-9)

    def test_outside_noise_term(self):
        rng = np.random.default_rng(6)
        h = complex_normal(rng, (2, 4))
        r_num = np.eye(4, dtype=complex)
        got = secrecy_gamma(h, r_num, np.zeros((4, 4), dtype=complex), noise_power=0.5)
        want = np.linalg.inv(0.5 * np.eye(2)) @ (h @ h.conj().T)
        assert np.allclose(got, want, atol=1e-10)

    def test_singular_gram_rejected(self):
        h = np.zeros((2, 4), dtype=complex)
        with pytest.raises(SingularGramError):
            secrecy_gamma(h, np.eye(4, dtype=complex), np.eye(4, dtype=complex))

    def test_rate_bits_zero_numerator_dead_link(self):
        h = np.zeros((2, 4), dtype=complex)
        zero = np.zeros((4, 4), dtype=complex)
        assert gamma_rate_bits(h, zero, zero) == 0.0

    def test_rate_monotone_in_numerator_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = complex_normal(rng, (2, 4))
            a = complex_normal(rng, (4, 2))
            r_num = a @ a.conj().T
            b = complex_normal(rng, (4, 4))
            r_den = b @ b.conj().T + 0.2 * np.eye(4)
            low = gamma_rate_bits(h, r_num, r_den)
            high = gamma_rate_bits(h, 3.0 * r_num, r_den)
            assert high >= low - 1e-12


class TestSsinr:
    def test_orthonormal_columns_metric_one(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(complex_normal(rng, (4, 3)))
        assert ssinr_metric(q) == pytest.approx(1.0)

    def test_zero_column_metric_zero(self):
        block = np.ones((3, 3), dtype=complex)
        block[:, 1] = 0.0
        assert ssinr_metric(block) == 0.0

    def test_matches_columnwise_oracle(self):
        rng = np.random.default_rng(9)
        block = complex_normal(rng, (4, 6))
        want = min(sum(abs(block[i, j]) ** 2 for i in range(4)) for j in range(6))
        assert ssinr_metric(block) == pytest.approx(want)

    def test_single_pick_matches_sort_oracle(self):
        cfg = scalar_config(num_users=1)
        for t in range(25):
            real = generate_realization(cfg, trial=t)
            combo, score = ssinr_select(real, cfg)
            # weakest-stream metric on both hops, combined by the bottleneck
            values = {}
            for i in range(cfg.pool_size):
                m1 = ssinr_metric(real.source_to_relay[i].conj().T)
                m2 = ssinr_metric(real.relay_to_user[(i, 0)].conj().T)
                values[i] = min(m1, m2)
            best = max(sorted(values), key=lambda i: values[i])
            assert combo == (best,)
            assert score.combined == pytest.approx(values[best])

    def test_identical_channels_tie_break(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg)
        for i in range(cfg.pool_size):
            real.source_to_relay[i] = np.ones((1, 2), dtype=complex)
            for r in range(cfg.num_users):
                real.relay_to_user[(i, r)] = np.ones((1, 1), dtype=complex)
        combo, _ = ssinr_select(real, cfg)
        assert combo == (0, 1)

    def test_runs_without_eavesdropper_channels(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg).without_eavesdroppers()
        combo, _ = ssinr_select(real, cfg)
        assert len(combo) == 2


class TestSsrEveTerm:
    def test_zero_symbol_covariance_gives_zero(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(complex_normal(rng, (4, 4)))
        pre = Precoder(matrix=q, core=q, signal_power=1.0, user_antennas=2)
        zero = np.zeros((2, 2), dtype=complex)
        got = ssr_eve_term(pre, 0, np.eye(4, dtype=complex), symbol_covariance=zero)
        assert got == 0.0

    def test_constructed_identity_argument(self):
        # orthonormal user block against identity interference: term = N_r
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(complex_normal(rng, (4, 4)))
        pre = Precoder(matrix=q, core=q, signal_power=1.0, user_antennas=2)
        got = ssr_eve_term(pre, 0, np.eye(4, dtype=complex))
        assert got == pytest.approx(2.0)

    def test_matches_full_knowledge_oracle(self):
        # square, full-rank stacked eavesdropper channel: the reduced term
        # equals the log-det computed from the eavesdropper gammas
        cfg = single_antenna_config()
        worst = 0.0
        for t in range(50):
            real = generate_realization(cfg, trial=t)
            eve_stack = real.stacked_eve_channel()
            combo = (0, 1)
            pre = zf_precoder(real.stacked_source_channel(combo), cfg.signal_power,
                              cfg.user_antennas)
            for user in range(cfg.num_users):
                r_in = interference_covariance(pre, user, cfg.noise_power)
                reduced = ssr_eve_term(pre, user, r_in)
                full = gamma_rate_bits(eve_stack, desired_covariance(pre, user), r_in)
                worst = max(worst, abs(reduced - full) / max(1.0, abs(full)))
        assert worst < 1e-8


class TestSecrecySelection:
    def test_degenerate_eavesdropper_reduces_to_legit_argmax(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=1)
        for k in range(cfg.num_eves):
            real.source_to_eve[k] = np.zeros((1, 2), dtype=complex)
        cs = prepare_candidates(real, cfg)
        combo, score = sr_select(real, cfg, candidates=cs)
        _, eta1, eta2, combined = score_candidates(
            CriterionKind.SECRECY_RATE, real, cfg, candidates=cs)
        # zero leakage: the secrecy score is the pure legitimate bottleneck
        assert score.combined == pytest.approx(min(score.eta1, score.eta2))
        assert score.combined >= 0.0
        assert combined.max() == pytest.approx(score.combined)

    def test_sr_matches_bruteforce_through_public_ops(self):
        cfg = single_antenna_config()
        for t in range(10):
            real = generate_realization(cfg, trial=t)
            eve_stack = real.stacked_eve_channel()
            best_combo, best_score = None, -np.inf
            for combo in enumerate_combinations(cfg.pool_size, cfg.selected_relays):
                u = zf_precoder(real.stacked_source_channel(combo), cfg.signal_power,
                                cfg.user_antennas)
                v = relay_precoder(real, combo, cfg)
                hop1 = hop2 = eve = 0.0
                h1 = real.stacked_source_channel(combo)
                h2_all = real.all_users_channel(combo, cfg.num_users)
                for user in range(cfg.num_users):
                    rows = h1[cfg.user_streams(user), :]
                    rd = desired_covariance(u, user)
                    ri = interference_covariance(u, user, include_noise=False)
                    hop1 += gamma_rate_bits(rows, rd, ri, cfg.noise_power)
                    rows2 = h2_all[cfg.user_streams(user), :]
                    rd2 = desired_covariance(v, user)
                    ri2 = interference_covariance(v, user, include_noise=False)
                    hop2 += gamma_rate_bits(rows2, rd2, ri2, cfg.noise_power)
                    r_in = interference_covariance(u, user, cfg.noise_power)
                    eve += gamma_rate_bits(eve_stack, rd, r_in)
                value = min(hop1 - eve, hop2 - eve)
                if value > best_score:
                    best_combo, best_score = combo, value
            combo, score = sr_select(real, cfg)
            assert combo == best_combo
            assert score.combined == pytest.approx(best_score)

    def test_ssr_never_reads_eavesdropper_channels(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=2).without_eavesdroppers()
        combo, _ = ssr_select(real, cfg)
        assert len(combo) == 2
        with pytest.raises(EveChannelsUnavailableError):
            sr_select(real, cfg)

    def test_ssr_matches_sr_on_square_eavesdropper_stack(self):
        cfg = single_antenna_config()  # K * N_e == N_t
        for t in range(30):
            real = generate_realization(cfg, trial=t)
            cs = prepare_candidates(real, cfg)
            a, sa = sr_select(real, cfg, candidates=cs)
            b, sb = ssr_select(real, cfg, candidates=cs)
            assert a == b
            assert sa.combined == pytest.approx(sb.combined, rel=1e-8)

    def test_sinr_matches_bruteforce_through_public_ops(self):
        cfg = single_antenna_config()
        for t in range(10):
            real = generate_realization(cfg, trial=t)
            best_combo, best_score = None, -np.inf
            for combo in enumerate_combinations(cfg.pool_size, cfg.selected_relays):
                pre = zf_precoder(real.stacked_source_channel(combo),
                                  cfg.signal_power, cfg.user_antennas)
                eta1 = sinr_relay_metric(real, pre, combo, cfg)
                eta2 = sinr_user_metric(real, combo, cfg)
                value = min(eta1, eta2)
                if value > best_score:
                    best_combo, best_score = combo, value
            combo, score = sinr_select(real, cfg)
            assert combo == best_combo
            assert score.combined == pytest.approx(best_score)

    def test_pareto_dominant_relay_selected(self):
        cfg = scalar_config(num_users=1, pool_size=3)
        real = generate_realization(cfg, trial=5)
        for i in range(3):
            scale = 3.0 if i == 1 else 0.3
            real.source_to_relay[i] = np.array([[scale + 0j]])
            real.relay_to_user[(i, 0)] = np.array([[scale + 0j]])
        combo, _ = sinr_select(real, cfg)
        assert combo == (1,)

    def test_forced_single_candidate(self):
        cfg = single_antenna_config(pool_size=2)
        real = generate_realization(cfg)
        for kind in CriterionKind:
            combo, score = select(kind, real, cfg)
            assert combo == (0, 1)
            assert np.isfinite(score.combined)

    def test_exhaustiveness_and_returned_maximum(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=7)
        for kind in (CriterionKind.SINR, CriterionKind.SECRECY_RATE,
                     CriterionKind.S_SINR, CriterionKind.S_SR):
            cs, _, _, combined = score_candidates(kind, real, cfg)
            assert len(cs.combinations) == 10
            combo, score = select(kind, real, cfg)
            assert score.combined == pytest.approx(np.max(combined))
            assert combo == cs.combinations[int(np.argmax(combined))]

    def test_sum_combine_rule(self):
        assert combine_metrics(2.0, 3.0, "sum") == 5.0
        assert combine_metrics(2.0, 3.0, "min") == 2.0
        with pytest.raises(ValueError, match="combine"):
            combine_metrics(1.0, 1.0, "prod")

    def test_paired_sinr_ssinr_agreement_without_interference(self):
        # single-user single-antenna draws: interference-free, both rules
        # reduce to the same weakest-link channel ordering
        cfg = scalar_config(num_users=1)
        for t in range(50):
            real = generate_realization(cfg, trial=t)
            a, _ = sinr_select(real, cfg)
            b, _ = ssinr_select(real, cfg)
            assert a == b

    def test_select_accepts_names(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=8)
        combo_enum, _ = select(CriterionKind.S_SINR, real, cfg)
        combo_name, _ = select("s-sinr", real, cfg)
        assert combo_enum == combo_name
        with pytest.raises(ValueError, match="unknown criterion"):
            select("bogus", real, cfg)


def scalar_scores(kind, real, cfg):
    """Combined sr, s-sr or sinr score of every candidate, from the scalar oracles."""
    scores = []
    for combo in enumerate_combinations(cfg.pool_size, cfg.selected_relays):
        u = zf_precoder(real.stacked_source_channel(combo), cfg.signal_power,
                        cfg.user_antennas)
        if kind is CriterionKind.SINR:
            scores.append(min(sinr_relay_metric(real, u, combo, cfg),
                              sinr_user_metric(real, combo, cfg)))
            continue
        v = relay_precoder(real, combo, cfg)
        h1 = real.stacked_source_channel(combo)
        h2 = real.all_users_channel(combo, cfg.num_users)
        hop1 = hop2 = eve = 0.0
        for user in range(cfg.num_users):
            rows = cfg.user_streams(user)
            rd = desired_covariance(u, user)
            hop1 += gamma_rate_bits(h1[rows], rd, interference_covariance(
                u, user, include_noise=False), cfg.noise_power)
            hop2 += gamma_rate_bits(h2[rows], desired_covariance(v, user),
                                    interference_covariance(v, user, include_noise=False),
                                    cfg.noise_power)
            r_in = interference_covariance(u, user, cfg.noise_power)
            if kind is CriterionKind.SECRECY_RATE:
                eve += gamma_rate_bits(real.stacked_eve_channel(), rd, r_in)
            else:
                eve += ssr_eve_term(u, user, r_in)
        scores.append(min(hop1 - eve, hop2 - eve))
    return np.array(scores)


class TestCandidateSetAcrossSnr:
    # sr with K * N_e > N_t is left out: its eavesdropper gram is singular
    # there, so its score is set by rounding error.
    CONFIGS = {
        "single-antenna": single_antenna_config(),
        "two-antenna-users": mimo_config(),
        "fewer-eve-antennas": single_antenna_config(num_eves=1),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("kind", [CriterionKind.SINR, CriterionKind.SECRECY_RATE,
                                      CriterionKind.S_SR])
    def test_one_set_serves_every_snr_point(self, name, kind):
        cfg0 = self.CONFIGS[name]
        for trial in range(3):
            real = generate_realization(cfg0, trial=trial)
            shared = prepare_candidates(real, cfg0)
            # 0 dB again last: the noise-free terms filled at other points
            # must not carry a noise level over.
            for snr in (0.0, 20.0, 7.5, 0.0):
                cfg = cfg0.at_snr(snr)
                fresh = prepare_candidates(real, cfg)
                _, _, _, reused_scores = score_candidates(kind, real, cfg, candidates=shared)
                _, _, _, fresh_scores = score_candidates(kind, real, cfg, candidates=fresh)
                oracle = scalar_scores(kind, real, cfg)
                np.testing.assert_allclose(reused_scores, fresh_scores, rtol=1e-9)
                np.testing.assert_allclose(reused_scores, oracle, rtol=1e-9, atol=1e-12)
                pick, _ = select(kind, real, cfg, candidates=shared)
                assert pick == select(kind, real, cfg, candidates=fresh)[0]
                assert pick == shared.combinations[int(np.argmax(oracle))]

    def test_ssr_sweep_at_200_db_matches_scalar_oracle(self):
        # cond(R_I + s I) ~ 1e20 here, so every candidate takes the ridge.
        cfg = single_antenna_config(snr_db=200.0)
        result = run_sweep(SweepSpec(config=cfg, snr_grid_db=(200.0,), trials=8,
                                     criteria=("s-sr",)))
        assert np.all(np.isfinite(result.samples))
        for trial in range(8):
            real = generate_realization(cfg, trial=trial)
            oracle = scalar_scores(CriterionKind.S_SR, real, cfg)
            picked = result.combinations[result.selections[0, 0, trial]]
            assert picked == result.combinations[int(np.argmax(oracle))]
