"""Criteria tests: per-candidate metrics against independent oracles, and the
exhaustive selections against brute-force evaluation through the public ops."""

import math
import warnings

import numpy as np
import pytest

from relaysec import criteria
from relaysec.criteria import (
    CRITERION_NAMES,
    CriterionKind,
    NotSingleAntennaError,
    combine_metrics,
    enumerate_combinations,
    legit_rates,
    max_ratio_select,
    prepare_candidates,
    select,
)
from relaysec.model import (
    EveChannelsUnavailableError,
    SystemConfig,
    complex_normal,
    generate_realization,
)
from relaysec.reference import (
    NoViableCandidateError,
    Precoder,
    SingularGramError,
    channel_gain_select,
    gamma_rate_bits,
    pair_secrecy_rate,
    relay_precoder,
    row_basis,
    score_candidates,
    secrecy_gamma,
    select_one,
    sinr_relay_metric,
    sinr_user_metric,
    ssinr_metric,
    ssinr_scores,
    ssr_eve_term,
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

    @pytest.mark.parametrize("pool, selected", [(1, 1), (5, 1), (5, 2), (6, 3), (7, 7),
                                                (8, 5), (12, 4)])
    def test_rank_is_the_enumeration_index(self, pool, selected):
        combos = np.array(enumerate_combinations(pool, selected))
        rows = criteria._combination_rows(combos, pool, selected)
        assert rows.tolist() == list(range(len(combos)))
        # One combination alone, as a (T,) row, gives its index too.
        assert criteria._combination_rows(combos[-1], pool, selected) == len(combos) - 1


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
        u = row.conj().T
        pre = Precoder(matrix=u, core=u, user_antennas=1)
        got = sinr_relay_metric(real, pre, (0,), cfg)
        assert got == pytest.approx(1.0 / cfg.noise_power)

    def test_matches_quadratic_form_oracle(self):
        cfg = mimo_config()
        for t in range(10):
            real = generate_realization(cfg, trial=t)
            combo = (1, 4)
            pre = zf_precoder(real.stacked_source_channel((0, 2)), user_antennas=cfg.user_antennas)
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
        pre1 = Precoder(matrix=u, core=u, user_antennas=1)
        pre2 = Precoder(matrix=np.sqrt(2.0) * u, core=u, user_antennas=1)
        m1 = sinr_relay_metric(real, pre1, (0,), cfg)
        m2 = sinr_relay_metric(real, pre2, (0,), cfg)
        assert m2 == pytest.approx(2.0 * m1)

    def test_user_metric_scalar_ratio(self):
        # single user, scalar second hop, unit power: SINR = |h|^2 / noise
        cfg = scalar_config(num_users=1)
        real = generate_realization(cfg, trial=2)
        h2 = real.relay_to_user[(0, 0)]
        got = sinr_user_metric(real, (0,), cfg)
        want = np.abs(h2[0, 0]) ** 2 / cfg.noise_power
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
        h = complex_normal(np.random.default_rng(6), (2, 4))
        zero = np.zeros((4, 1), dtype=complex)
        assert gamma_rate_bits(h, zero, np.eye(4, 3), 0.1) == 0.0
        assert gamma_rate_bits(np.zeros((2, 4)), np.eye(4, 1), np.eye(4, 3), 0.1) == 0.0

    def test_rate_monotone_in_numerator_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = complex_normal(rng, (2, 4))
            own = complex_normal(rng, (4, 2))
            others = complex_normal(rng, (4, 3))
            low = gamma_rate_bits(h, own, others, 0.2)
            high = gamma_rate_bits(h, np.sqrt(3.0) * own, others, 0.2)
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
            combo, score = select_one(CriterionKind.S_SINR, real, cfg)
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
        combo, _ = select_one(CriterionKind.S_SINR, real, cfg)
        assert combo == (0, 1)

    @pytest.mark.parametrize("dims", [
        dict(num_users=8, pool_size=10, selected_relays=8),
        dict(num_users=4, user_antennas=2, relay_antennas=2, pool_size=6, selected_relays=4),
        dict(num_users=3, user_antennas=3, relay_antennas=3, pool_size=5, selected_relays=3),
        dict(num_users=12, pool_size=13, selected_relays=12),
    ], ids=["T8-Ni1", "T4-Ni2", "T3-Ni3", "T12-Ni1"])
    def test_wide_rows_match_the_stacked_channels(self, dims):
        # Rows of 8 or more entries, where numpy's sum order depends on the
        # layout: the block's gather sums each stacked row as the oracle does.
        cfg = scalar_config(num_eves=1, **dims)
        block = generate_realization(cfg, trial=range(4))
        positions, score = select(CriterionKind.S_SINR, block, cfg)
        for b in range(4):
            scores = criteria._score_ssinr(block[b], cfg, "min")
            want = ssinr_scores(block[b], cfg)
            for got, value in zip(scores, want):
                assert got.tobytes() == value.tobytes()
            assert positions[b, 0] == np.argmax(want[2])
            assert score.eta2[b, 0] == want[1][positions[b, 0]]

    # select hands these criteria a stripped realization, so none may need
    # the eavesdropper channels.
    @pytest.mark.parametrize("kind", ["channel-gain", "sinr", "s-sinr", "s-sr"])
    def test_runs_without_eavesdropper_channels(self, kind):
        cfg = single_antenna_config()
        real = generate_realization(cfg).without_eavesdroppers()
        combo, _ = select_one(kind, real, cfg)
        assert len(combo) == 2


class TestSsrEveTerm:
    def test_zero_symbol_covariance_gives_zero(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(complex_normal(rng, (4, 4)))
        pre = Precoder(matrix=q, core=q, user_antennas=2)
        zero = np.zeros((2, 2), dtype=complex)
        got = ssr_eve_term(pre, 0, 1.0, symbol_covariance=zero)
        assert got == 0.0

    def test_constructed_identity_argument(self):
        # unitary precoder at unit noise: each of the N_r streams adds log2(1 + 1/1)
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(complex_normal(rng, (4, 4)))
        pre = Precoder(matrix=q, core=q, user_antennas=2)
        got = ssr_eve_term(pre, 0, 1.0)
        assert got == pytest.approx(2.0)

    @pytest.mark.parametrize("noise", [1e-10, 1e-15, 1e-20])
    def test_keeps_growing_at_high_snr(self, noise):
        # A unitary precoder's term is log2(1 + 1/s) a stream, 66.44 bits at
        # 200 dB, where R_I + s I is singular to float precision.
        pre = Precoder(matrix=np.eye(2), core=np.eye(2), user_antennas=1)
        assert ssr_eve_term(pre, 0, noise) == pytest.approx(math.log2(1.0 + 1.0 / noise),
                                                          rel=1e-12)

    @pytest.mark.parametrize("snr_db", [10.0, 100.0, 150.0, 200.0])
    def test_matches_full_knowledge_oracle(self, snr_db):
        # square, full-rank stacked eavesdropper channel: the reduced term
        # equals the log-det computed from the eavesdropper gammas
        cfg = single_antenna_config(snr_db=snr_db)
        worst = 0.0
        for t in range(50):
            real = generate_realization(cfg, trial=t)
            eve_stack = real.stacked_eve_channel()
            combo = (0, 1)
            pre = zf_precoder(real.stacked_source_channel(combo), user_antennas=cfg.user_antennas)
            for user in range(cfg.num_users):
                reduced = ssr_eve_term(pre, user, cfg.noise_power)
                full = gamma_rate_bits(row_basis(eve_stack), pre.user_block(user),
                                       pre.other_columns(user), cfg.noise_power)
                worst = max(worst, abs(reduced - full) / max(1.0, abs(full)))
        assert worst < 1e-8

    def test_mimo_ssr_scores_match_oracle_at_high_snr(self):
        # Two-antenna users: each candidate's s-sr term takes logdet's 2x2
        # closed form; the oracle takes slogdet of its Woodbury form.
        cfg = mimo_config()
        noise = cfg.noise_powers((150.0, 200.0))
        checked = 0
        for trial in range(4):
            real = generate_realization(cfg, trial=trial)
            cs, eta1, eta2, _ = score_candidates(CriterionKind.S_SR, real, cfg, noise=noise)
            legit = legit_rates(cs.stream_gains(), noise[:, None, None])
            for pos, combo in enumerate(cs.combinations):
                if not cs.valid[pos]:
                    continue
                pre = zf_precoder(real.stacked_source_channel(combo), user_antennas=cfg.user_antennas)
                for s, level in enumerate(noise):
                    eve = sum(ssr_eve_term(pre, user, level) for user in range(cfg.num_users))
                    for hop, eta in enumerate((eta1, eta2)):
                        size = legit[s, hop, pos] + eve
                        assert abs(eta[s, pos] - (legit[s, hop, pos] - eve)) <= 1e-9 * size
                checked += 1
        assert checked > 0


class TestSecrecySelection:
    def test_degenerate_eavesdropper_reduces_to_legit_argmax(self):
        cfg0 = single_antenna_config()
        real = generate_realization(cfg0, trial=1)
        for k in range(cfg0.num_eves):
            real.source_to_eve[k] = np.zeros((1, 2), dtype=complex)
        cs = prepare_candidates(real, cfg0)
        # E = 0 has rank 0, at 10 dB and at 200 dB.
        for cfg in (cfg0, cfg0.at_snr(200.0)):
            combo, score = select_one(CriterionKind.SECRECY_RATE, real, cfg, candidates=cs)
            _, eta1, eta2, combined = score_candidates(
                CriterionKind.SECRECY_RATE, real, cfg, candidates=cs)
            # zero leakage: the secrecy score is the pure legitimate bottleneck
            assert score.combined == pytest.approx(min(score.eta1, score.eta2))
            assert score.combined >= 0.0
            assert combined.max() == pytest.approx(score.combined)

    def test_kept_ssr_scores_follow_grid_and_combine(self):
        # The set keeps s-sr's scores for sr to reuse; a kept result must
        # never answer a call with another grid or combine rule.
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=2)
        shared = prepare_candidates(real, cfg)
        for combine in ("min", "sum"):
            for grid in ((0.0, 10.0), (10.0,), (10.0, 0.0)):
                noise = cfg.noise_powers(grid)
                for kind in (CriterionKind.S_SR, CriterionKind.SECRECY_RATE):
                    got = score_candidates(kind, real, cfg, candidates=shared,
                                           combine=combine, noise=noise)[1:]
                    want = score_candidates(kind, real, cfg, combine=combine, noise=noise)[1:]
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)

    def test_sr_matches_bruteforce_through_public_ops(self):
        cfg = single_antenna_config()
        for t in range(10):
            real = generate_realization(cfg, trial=t)
            eve_stack = real.stacked_eve_channel()
            best_combo, best_score = None, -np.inf
            for combo in enumerate_combinations(cfg.pool_size, cfg.selected_relays):
                u = zf_precoder(real.stacked_source_channel(combo), user_antennas=cfg.user_antennas)
                v = relay_precoder(real, combo, cfg)
                hop1 = hop2 = eve = 0.0
                h1 = real.stacked_source_channel(combo)
                h2_all = real.all_users_channel(combo)
                for user in range(cfg.num_users):
                    rows = cfg.user_streams(user)
                    own, others = u.user_block(user), u.other_columns(user)
                    hop1 += gamma_rate_bits(h1[rows], own, others, cfg.noise_power)
                    hop2 += gamma_rate_bits(h2_all[rows], v.user_block(user),
                                            v.other_columns(user), cfg.noise_power)
                    eve += gamma_rate_bits(row_basis(eve_stack), own, others, cfg.noise_power)
                value = min(hop1 - eve, hop2 - eve)
                if value > best_score:
                    best_combo, best_score = combo, value
            combo, score = select_one(CriterionKind.SECRECY_RATE, real, cfg)
            assert combo == best_combo
            assert score.combined == pytest.approx(best_score)

    @pytest.mark.parametrize("reader", ["sr", "max-ratio"])
    def test_ssr_never_reads_eavesdropper_channels(self, reader):
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=2).without_eavesdroppers()
        combo, _ = select_one(CriterionKind.S_SR, real, cfg)
        assert len(combo) == 2
        with pytest.raises(EveChannelsUnavailableError):
            select(reader, real, cfg)

    def test_ssr_matches_sr_on_square_eavesdropper_stack(self):
        cfg = single_antenna_config()  # K * N_e == N_t
        for t in range(30):
            real = generate_realization(cfg, trial=t)
            cs = prepare_candidates(real, cfg)
            a, sa = select_one(CriterionKind.SECRECY_RATE, real, cfg, candidates=cs)
            b, sb = select_one(CriterionKind.S_SR, real, cfg, candidates=cs)
            assert a == b
            assert sa.combined == pytest.approx(sb.combined, rel=1e-8)

    def test_sinr_matches_bruteforce_through_public_ops(self):
        cfg = single_antenna_config()
        for t in range(10):
            real = generate_realization(cfg, trial=t)
            best_combo, best_score = None, -np.inf
            for combo in enumerate_combinations(cfg.pool_size, cfg.selected_relays):
                pre = zf_precoder(real.stacked_source_channel(combo),
                                  user_antennas=cfg.user_antennas)
                eta1 = sinr_relay_metric(real, pre, combo, cfg)
                eta2 = sinr_user_metric(real, combo, cfg)
                value = min(eta1, eta2)
                if value > best_score:
                    best_combo, best_score = combo, value
            combo, score = select_one(CriterionKind.SINR, real, cfg)
            assert combo == best_combo
            assert score.combined == pytest.approx(best_score)

    def test_pareto_dominant_relay_selected(self):
        cfg = scalar_config(num_users=1, pool_size=3)
        real = generate_realization(cfg, trial=5)
        for i in range(3):
            scale = 3.0 if i == 1 else 0.3
            real.source_to_relay[i] = np.array([[scale + 0j]])
            real.relay_to_user[(i, 0)] = np.array([[scale + 0j]])
        combo, _ = select_one(CriterionKind.SINR, real, cfg)
        assert combo == (1,)

    def test_forced_single_candidate(self):
        cfg = single_antenna_config(pool_size=2)
        real = generate_realization(cfg)
        for kind in CriterionKind:
            combo, score = select_one(kind, real, cfg)
            assert combo == (0, 1)
            assert np.isfinite(score.combined)

    def test_exhaustiveness_and_returned_maximum(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=7)
        for kind in (CriterionKind.SINR, CriterionKind.SECRECY_RATE,
                     CriterionKind.S_SINR, CriterionKind.S_SR):
            cs, _, _, combined = score_candidates(kind, real, cfg)
            assert len(cs.combinations) == 10
            combo, score = select_one(kind, real, cfg)
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
            a, _ = select_one(CriterionKind.SINR, real, cfg)
            b, _ = select_one(CriterionKind.S_SINR, real, cfg)
            assert a == b

    def test_select_accepts_names(self):
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=8)
        combo_enum, _ = select_one(CriterionKind.S_SINR, real, cfg)
        combo_name, _ = select_one("s-sinr", real, cfg)
        assert combo_enum == combo_name
        with pytest.raises(ValueError, match="unknown criterion"):
            select("bogus", real, cfg)


class TestOneShape:
    """Every criterion returns one pick and one score per noise level."""

    @pytest.mark.parametrize("kind", CRITERION_NAMES)
    def test_select_returns_one_pick_per_noise_level(self, kind):
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=4)
        cands = prepare_candidates(real, cfg)
        for noise, points in ((None, 1), (cfg.noise_powers((0.0, 10.0, 20.0)), 3)):
            positions, score = select(kind, real, cfg, candidates=cands, noise=noise)
            assert positions.shape == (points,)
            assert np.issubdtype(positions.dtype, np.integer)
            assert np.all((positions >= 0) & (positions < len(cands.combinations)))
            for array in (score.eta1, score.eta2, score.combined):
                assert array.shape == (points,)
        positions, score = select(kind, real, cfg, candidates=cands)
        combo, one = select_one(kind, real, cfg, candidates=cands)
        assert combo == cands.combinations[positions[0]]
        assert (one.eta1, one.eta2, one.combined) == (
            score.eta1[0], score.eta2[0], score.combined[0])

    @pytest.mark.parametrize("kind", ["sinr", "sr", "s-sr"])
    def test_no_viable_candidate_picks_minus_one(self, kind):
        # A zero first hop leaves every candidate singular.
        cfg = single_antenna_config()
        real = generate_realization(cfg, trial=4)
        real.source_to_relay[:] = 0.0
        positions, score = select(kind, real, cfg, noise=cfg.noise_powers((0.0, 10.0, 20.0)))
        assert positions.tolist() == [-1] * 3
        for array in (score.eta1, score.eta2, score.combined):
            assert np.all(np.isnan(array))
        with pytest.raises(NoViableCandidateError):
            select_one(kind, real, cfg)


class TestBlockSelect:
    """A block of trials in one call gives each trial's pick alone, byte for byte."""

    GRID = (0.0, 10.0, 20.0, 100.0, 200.0)

    @pytest.mark.parametrize("dims, rank_one, ranks", [
        # K N_e = N_t: trials 1 and 4 rank one, the rest full rank.
        (dict(), (1, 4), {1, 2}),
        (dict(user_antennas=2, relay_antennas=2, eve_antennas=2), (0, 3), {1, 4}),
        # K N_e < N_t: generic rank 2 and rank one, neither the full space.
        (dict(user_antennas=2, relay_antennas=2, num_eves=1, eve_antennas=2), (2,), {1, 2}),
        # fig3-rank: one eavesdropper antenna, every trial one group of rank 1.
        (dict(num_eves=1), (), {1}),
    ], ids=["single-antenna", "mimo", "below-n_t", "fig3-rank"])
    @pytest.mark.parametrize("combine", ["min", "sum"])
    def test_block_select_equals_each_trial_alone(self, monkeypatch, dims, rank_one, ranks,
                                                  combine):
        cfg = single_antenna_config(**dims)
        block = generate_realization(cfg, trial=range(20, 26))
        for b in rank_one:
            eves = block.source_to_eve[b]
            eves[:] = eves[0, 0] * np.arange(1, cfg.num_eves * cfg.eve_antennas + 1).reshape(
                cfg.num_eves, cfg.eve_antennas, 1)
        stacks = block.stacked_eve_channel()
        assert {int(np.linalg.matrix_rank(stack)) for stack in stacks} == ranks
        noise = cfg.noise_powers(self.GRID)
        single = (cfg.relay_antennas, cfg.user_antennas, cfg.eve_antennas) == (1, 1, 1)
        kinds = [k for k in CRITERION_NAMES if k != "max-ratio" or single]
        scored = []
        original = criteria._score_secrecy

        def counted(*args, **kwargs):
            scored.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(criteria, "_score_secrecy", counted)
        for kind in kinds:
            cands = prepare_candidates(block, cfg)
            scored.clear()
            positions, score = select(kind, block, cfg, candidates=cands, combine=combine,
                                      noise=noise)
            if kind == "sr":  # s-sr's table, if a trial has full rank, and one call a rank
                assert len(scored) == len(ranks)
            assert positions.shape == (len(stacks), len(self.GRID))
            for b in range(len(stacks)):
                want = select(kind, block[b], cfg, candidates=prepare_candidates(block[b], cfg),
                              combine=combine, noise=noise)
                assert positions[b].tobytes() == want[0].tobytes(), (kind, b)
                for name in ("eta1", "eta2", "combined"):
                    got = getattr(score, name)
                    assert got.shape == positions.shape
                    assert got[b].tobytes() == getattr(want[1], name).tobytes(), (kind, b, name)


def scalar_scores(kind, real, cfg):
    """Combined sr, s-sr or sinr score of every candidate, from the scalar oracles."""
    scores = []
    for combo in enumerate_combinations(cfg.pool_size, cfg.selected_relays):
        u = zf_precoder(real.stacked_source_channel(combo), user_antennas=cfg.user_antennas)
        if kind is CriterionKind.SINR:
            scores.append(min(sinr_relay_metric(real, u, combo, cfg),
                              sinr_user_metric(real, combo, cfg)))
            continue
        v = relay_precoder(real, combo, cfg)
        h1 = real.stacked_source_channel(combo)
        h2 = real.all_users_channel(combo)
        hop1 = hop2 = eve = 0.0
        for user in range(cfg.num_users):
            rows = cfg.user_streams(user)
            own, others = u.user_block(user), u.other_columns(user)
            hop1 += gamma_rate_bits(h1[rows], own, others, cfg.noise_power)
            hop2 += gamma_rate_bits(h2[rows], v.user_block(user), v.other_columns(user),
                                    cfg.noise_power)
            if kind is CriterionKind.SECRECY_RATE:
                # The noise inside sr's covariance is white noise at an
                # orthonormal basis of E's row space.
                eve += gamma_rate_bits(row_basis(real.stacked_eve_channel()), own, others,
                                       cfg.noise_power)
            else:
                eve += ssr_eve_term(u, user, cfg.noise_power)
        scores.append(min(hop1 - eve, hop2 - eve))
    return np.array(scores)


class TestCandidateSetAcrossSnr:
    CONFIGS = {
        "single-antenna": single_antenna_config(),
        "two-antenna-users": mimo_config(),
        "fewer-eve-antennas": single_antenna_config(num_eves=1),
        "more-eve-antennas": single_antenna_config(num_eves=3),
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
            grid = (0.0, 20.0, 7.5, 0.0)
            picks = []
            for snr in grid:
                cfg = cfg0.at_snr(snr)
                fresh = prepare_candidates(real, cfg)
                reused_scores = score_candidates(kind, real, cfg, candidates=shared)[3][0]
                fresh_scores = score_candidates(kind, real, cfg, candidates=fresh)[3][0]
                oracle = scalar_scores(kind, real, cfg)
                np.testing.assert_allclose(reused_scores, fresh_scores, rtol=1e-9)
                np.testing.assert_allclose(reused_scores, oracle, rtol=1e-9, atol=1e-12)
                (pick,), _ = select(kind, real, cfg, candidates=shared)
                assert pick == select(kind, real, cfg, candidates=fresh)[0][0]
                assert pick == int(np.argmax(oracle))
                picks.append(pick)
            # The whole grid at once, on a fresh set and on the shared one.
            for cands in (prepare_candidates(real, cfg0), shared):
                noise = cfg0.noise_powers(grid)
                _, _, _, grid_scores = score_candidates(kind, real, cfg0, candidates=cands,
                                                        noise=noise)
                for s, snr in enumerate(grid):
                    np.testing.assert_allclose(grid_scores[s],
                                               scalar_scores(kind, real, cfg0.at_snr(snr)),
                                               rtol=1e-9, atol=1e-12)
                positions, _ = select(kind, real, cfg0, candidates=cands, noise=noise)
                assert positions.tolist() == picks

    def test_greedy_criteria_broadcast_their_pick(self):
        # The greedy rules pick once; a grid gets that pick and its score at
        # every point, bit for bit.
        cfg = single_antenna_config()
        real = generate_realization(cfg)
        noise = cfg.noise_powers((0.0, 10.0, 200.0))
        for kind in ("channel-gain", "max-ratio"):
            (row,), one = select(kind, real, cfg)
            positions, score = select(kind, real, cfg, noise=noise)
            assert positions.tolist() == [row] * 3
            for got, want in zip((score.eta1, score.eta2, score.combined),
                                 (one.eta1, one.eta2, one.combined)):
                assert got.shape == (3,)
                assert np.array_equal(got, np.repeat(want, 3))

    def test_sinr_sweep_at_200_db_discards_nothing(self):
        # The noise 1e-20 is far below the rounding of any unit-sized gram;
        # no score may depend on that rounding, nor void a trial.
        cfg = single_antenna_config(snr_db=200.0)
        result = run_sweep(SweepSpec(config=cfg, snr_grid_db=(200.0,), trials=40,
                                     criteria=("sinr",)))
        assert np.all(result.n_discarded == 0)


def exact_realization(cfg, trial):
    """A draw whose stacked hop channels are all scaled permutations or singular.

    Relay ``i``'s antenna ``a`` serves stream ``(i * N_i + a) mod N_t`` on both
    hops, with a gain ``2^k`` times a phase in {1, -1, 1j, -1j}: a candidate
    whose streams are distinct has permutation channels, whose float64
    inverses are exact, and any other candidate is exactly singular. Returns
    the realization and the ``(pool, N_i, 2)`` power gains ``|g|^2`` of each
    relay antenna on the two hops. The eavesdropper channels stay Gaussian.
    """
    real = generate_realization(cfg, trial=trial)
    rng = np.random.default_rng(trial)
    n_t, n_i, n_r = cfg.transmit_antennas, cfg.relay_antennas, cfg.user_antennas
    gains = np.zeros((cfg.pool_size, n_i, 2))
    real.source_to_relay[:] = 0.0
    real.relay_to_user[:] = 0.0
    for i in range(cfg.pool_size):
        for a in range(n_i):
            stream = (i * n_i + a) % n_t
            (k1, k2), (p1, p2) = rng.integers(-3, 4, 2), rng.integers(0, 4, 2)
            real.source_to_relay[i][a, stream] = 2.0 ** k1 * (1, -1, 1j, -1j)[p1]
            real.relay_to_user[i, stream // n_r][stream % n_r, a] = 2.0 ** k2 * (1, -1, 1j, -1j)[p2]
            gains[i, a] = 4.0 ** k1, 4.0 ** k2
    return real, gains


class TestExactHighSnrOracle:
    """Closed-form rates against channels whose ZF inverse is exact, up to
    200 dB, where the noise is far below the rounding of a 1-sized gram."""

    GRID = (0.0, 100.0, 200.0)

    @pytest.mark.parametrize("cfg", [single_antenna_config(), mimo_config()],
                             ids=["single-antenna", "two-antenna-users"])
    def test_legit_rate_sinr_and_ssr_scores(self, cfg):
        n_t, n_i, n_r = cfg.transmit_antennas, cfg.relay_antennas, cfg.user_antennas
        noise = cfg.noise_powers(self.GRID)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trial in range(4):
                real, gains = exact_realization(cfg, trial)
                cs, *sinr = score_candidates(CriterionKind.SINR, real, cfg, noise=noise)
                _, *ssr = score_candidates(CriterionKind.S_SR, real, cfg, candidates=cs,
                                           noise=noise)
                for pos, combo in enumerate(cs.combinations):
                    streams = [(i * n_i + a) % n_t for i in combo for a in range(n_i)]
                    assert cs.valid[pos] == (len(set(streams)) == n_t)
                    if not cs.valid[pos]:
                        continue
                    # Stream l of hop 1 is relay antenna l; of hop 2, user antenna l.
                    hop1 = gains[list(combo), :, 0].ravel()
                    hop2 = np.empty(n_t)
                    hop2[streams] = gains[list(combo), :, 1].ravel()
                    for s, level in enumerate(noise):
                        rates = [math.fsum(math.log2(1.0 + g / level) for g in hop)
                                 for hop in (hop1, hop2)]
                        sample = pair_secrecy_rate(real, cs, combo, cfg.at_snr(self.GRID[s]))
                        assert sample.legit_rate == pytest.approx(0.5 * min(rates), rel=1e-13)
                        eta1 = min(hop1.reshape(-1, n_i).mean(axis=1)) / level
                        eta2 = min(hop2.reshape(-1, n_r).mean(axis=1)) / level
                        assert sinr[0][s, pos] == pytest.approx(eta1, rel=1e-14)
                        assert sinr[1][s, pos] == pytest.approx(eta2, rel=1e-14)
                        # Unitary precoders: each stream's s-sr term is log2(1 + 1 / s).
                        eve = n_t * math.log2(1.0 + 1.0 / level)
                        for hop, want in enumerate(rates):
                            assert ssr[hop][s, pos] == pytest.approx(want - eve, rel=1e-12,
                                                                     abs=1e-11)
                    checked += 1
        assert checked == 4 * 6


class TestZeroForcingAdmission:
    def test_exactly_singular_member_leaves_the_other_rows(self):
        cfg = mimo_config(pool_size=4)
        real = generate_realization(cfg, trial=3)
        before = prepare_candidates(real, cfg)
        real.relay_to_user[2] = 0.0
        members = np.array(before.combinations)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(real.all_users_channel(members))
        after = prepare_candidates(real, cfg)
        hit = np.array([2 in combo for combo in after.combinations])
        assert before.valid.all()
        assert np.array_equal(after.valid, ~hit)
        # Hop 1 took the batched inverse both times, hop 2 the SVD the second time.
        for name in ("precoders", "cores"):
            assert np.array_equal(getattr(after, name)[~hit], getattr(before, name)[~hit])
        for name in ("relay_precoders", "relay_cores"):
            np.testing.assert_allclose(getattr(after, name)[~hit], getattr(before, name)[~hit],
                                       rtol=0, atol=1e-12)

    def test_block_with_singular_and_nan_members_matches_each_trial_alone(self):
        cfg = mimo_config(pool_size=4)
        block = generate_realization(cfg, trial=[5, 6, 7, 8])
        # Trial 1's hop 2 has exactly singular members (relay 2's user blocks
        # are zero) and NaN ones (relay 3's); trial 2's hop 1 has NaN ones.
        block.relay_to_user[1, 2] = 0.0
        block.relay_to_user[1, 3] = np.nan
        block.source_to_relay[2, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sets = prepare_candidates(block, cfg)
            alone = [prepare_candidates(block[b], cfg) for b in range(4)]
        combos = sets.combinations
        hit = {1: [2 in c or 3 in c for c in combos], 2: [0 in c for c in combos]}
        for b in range(4):
            assert np.array_equal(sets.valid[b], ~np.array(hit.get(b, [False] * len(combos))))
            for name in ("hop1", "hop2", "precoders", "cores", "relay_precoders",
                         "relay_cores", "valid"):
                assert getattr(sets[b], name).tobytes() == getattr(alone[b], name).tobytes(), name

    def test_set_refilled_in_place_equals_a_fresh_one(self):
        # Blocks of two trials built one into the arrays of the other: a clean
        # block, one whose NaN first-hop members get identity placeholders,
        # one whose exactly singular second-hop members send every trial to
        # the per-trial inverses, and a clean one again.
        cfg = mimo_config(pool_size=4)
        combos = enumerate_combinations(cfg.pool_size, cfg.selected_relays)
        blocks = [generate_realization(cfg, trial=[2 * b, 2 * b + 1]) for b in range(4)]
        invalid = np.zeros((4, 2, len(combos)), dtype=bool)
        blocks[1].source_to_relay[0, 1] = np.nan
        invalid[1, 0] = [1 in combo for combo in combos]
        blocks[2].relay_to_user[1, 2] = 0.0
        invalid[2, 1] = [2 in combo for combo in combos]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(blocks[2].all_users_channel(np.array(combos)))
        names = ("hop1", "hop2", "precoders", "cores", "relay_precoders", "relay_cores",
                 "valid")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            previous = prepare_candidates(blocks[0], cfg)
            for index, block in enumerate(blocks[1:], 1):
                select("s-sr", blocks[index - 1], cfg, candidates=previous)  # fills its table
                assert previous._ssr
                rows = previous.rows([0, 1, 1], [0, 2, 5])
                gathered = (rows.gains, rows.precoders, rows.relay_precoders, rows.valid)
                kept = [a.copy() for a in gathered]
                fresh = prepare_candidates(block, cfg)
                refilled = prepare_candidates(block, cfg, out=previous)
                assert np.array_equal(fresh.valid, ~invalid[index])
                assert refilled is not previous and refilled._ssr == {}
                for name in names:
                    got, want = getattr(refilled, name), getattr(fresh, name)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
                    assert np.shares_memory(got, getattr(previous, name)), name
                for got, want in zip(gathered, kept):
                    assert got.tobytes() == want.tobytes()
                previous = refilled
