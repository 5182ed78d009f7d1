"""Model-layer tests: configs, channel draws, zero forcing, signals, covariances."""

import numpy as np
import pytest

from relaysec.model import (
    ConfigError,
    Precoder,
    SingularChannelError,
    SystemConfig,
    complex_normal,
    desired_covariance,
    generate_realization,
    interference_covariance,
    relay_precoder,
    relay_rx_signal,
    user_rx_signal,
    zf_precoder,
)


def scalar_config(**kw):
    base = dict(num_users=1, user_antennas=1, relay_antennas=1, pool_size=5,
                selected_relays=1, num_eves=1, eve_antennas=1, snr_db=10.0, seed=7)
    base.update(kw)
    return SystemConfig(**base)


def mimo_config(**kw):
    base = dict(num_users=2, user_antennas=2, relay_antennas=2, pool_size=5,
                selected_relays=2, num_eves=2, eve_antennas=2, snr_db=10.0, seed=7)
    base.update(kw)
    return SystemConfig(**base)


def naive_matvec(a, x):
    """Independent dense multiply: plain Python loops, no numpy matmul."""
    rows, cols = a.shape
    out = np.zeros((rows, 1), dtype=complex)
    for i in range(rows):
        acc = 0j
        for j in range(cols):
            acc += a[i, j] * x[j, 0]
        out[i, 0] = acc
    return out


class TestSystemConfig:
    def test_antenna_budget_violation_cites_equation(self):
        with pytest.raises(ConfigError, match=r"T\*N_i = M\*N_r"):
            SystemConfig(num_users=2, user_antennas=2, relay_antennas=2,
                         pool_size=5, selected_relays=3)

    def test_pool_must_cover_selection(self):
        with pytest.raises(ConfigError, match="pool"):
            scalar_config(pool_size=2, selected_relays=3, num_users=3,
                          user_antennas=1)

    def test_positive_counts(self):
        with pytest.raises(ConfigError, match="num_users"):
            scalar_config(num_users=0, selected_relays=0)

    @pytest.mark.parametrize("snr_db", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="snr_db"):
            scalar_config(snr_db=snr_db)

    @pytest.mark.parametrize("power", [0.0, -1.0, float("inf"), float("nan")])
    def test_signal_power_must_be_positive_and_finite(self, power):
        with pytest.raises(ConfigError, match="signal_power"):
            scalar_config(signal_power=power)

    def test_snr_sets_noise_power(self):
        cfg = scalar_config(snr_db=20.0, signal_power=2.0)
        assert cfg.noise_power == pytest.approx(0.02)
        assert cfg.at_snr(0.0).noise_power == pytest.approx(2.0)

    def test_stream_user_map(self):
        cfg = mimo_config()
        assert [cfg.stream_user(s) for s in range(4)] == [0, 0, 1, 1]
        assert cfg.user_streams(1) == slice(2, 4)


class TestChannelGeneration:
    def test_scalar_shapes_and_determinism(self):
        cfg = scalar_config(seed=7)
        a = generate_realization(cfg, trial=0)
        b = generate_realization(cfg, trial=0)
        assert a.source_to_relay[0].shape == (1, 1)
        assert a.relay_to_user[(2, 0)].shape == (1, 1)
        assert a.source_to_eve[0].shape == (1, 1)
        for i in range(cfg.pool_size):
            assert np.array_equal(a.source_to_relay[i], b.source_to_relay[i])
        c = generate_realization(cfg, trial=1)
        assert not np.array_equal(a.source_to_relay[0], c.source_to_relay[0])

    def test_mimo_block_shapes(self):
        cfg = mimo_config()
        real = generate_realization(cfg)
        assert real.source_to_relay[0].shape == (2, 4)
        assert real.relay_to_user[(0, 1)].shape == (2, 2)
        assert real.source_to_eve[1].shape == (2, 4)
        assert real.relay_to_eve[(3, 0)].shape == (2, 2)
        assert real.stacked_source_channel((0, 1)).shape == (4, 4)
        assert real.user_channel((0, 1), 0).shape == (2, 4)

    def test_unit_variance_statistics(self):
        # sample-statistics oracle: CN(0,1) entries have E|z|^2 = 1
        rng = np.random.default_rng(123)
        draws = complex_normal(rng, 100_000)
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02
        assert abs(np.mean(draws)) < 0.02

    def test_relay_draw_independent_of_pool_size(self):
        small = generate_realization(scalar_config(pool_size=3, seed=9), trial=4)
        large = generate_realization(scalar_config(pool_size=7, seed=9), trial=4)
        for i in range(3):
            assert np.array_equal(small.source_to_relay[i], large.source_to_relay[i])

    def test_stripped_view_blocks_eavesdropper_access(self):
        real = generate_realization(scalar_config())
        blind = real.without_eavesdroppers()
        assert not blind.has_eavesdroppers
        with pytest.raises(Exception, match="eavesdropper"):
            blind.stacked_eve_channel()
        # legitimate channels stay shared
        assert np.array_equal(blind.source_to_relay[0], real.source_to_relay[0])


class TestZeroForcing:
    def test_identity_channel_gives_scaled_identity(self):
        pre = zf_precoder(np.eye(4, dtype=complex), signal_power=4.0)
        assert np.allclose(pre.matrix, 2.0 * np.eye(4))
        assert np.allclose(pre.core, np.eye(4))

    def test_diagonal_channel_inverts(self):
        pre = zf_precoder(np.diag([2.0, 2.0, 2.0, 2.0]).astype(complex))
        assert np.allclose(np.diag([2.0] * 4) @ pre.core, np.eye(4), atol=1e-12)

    def test_random_channel_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = complex_normal(rng, (4, 4))
            pre = zf_precoder(h)
            # direct multiplication oracle on the unscaled core
            assert np.linalg.norm(h @ pre.core - np.eye(4)) < 1e-9

    def test_column_power_normalization(self):
        rng = np.random.default_rng(6)
        h = complex_normal(rng, (4, 4))
        pre = zf_precoder(h, signal_power=3.0)
        col_power = np.sum(np.abs(pre.matrix) ** 2, axis=0)
        assert np.allclose(col_power, 3.0)
        # total transmit power is signal_power * N_t
        assert np.sum(np.abs(pre.matrix) ** 2) == pytest.approx(12.0)

    def test_singular_channel_rejected(self):
        h = np.ones((4, 4), dtype=complex)
        with pytest.raises(SingularChannelError, match="residual"):
            zf_precoder(h)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            zf_precoder(np.ones((2, 4), dtype=complex))


class TestSignals:
    def test_noiseless_identity_chain(self):
        cfg = scalar_config()
        real = generate_realization(cfg)
        real.source_to_relay[0] = np.eye(1, dtype=complex)
        pre = Precoder(matrix=np.eye(1, dtype=complex), core=np.eye(1, dtype=complex),
                       signal_power=1.0, user_antennas=1)
        s = np.array([[1.0 + 0j]])
        out = relay_rx_signal(real, (0,), pre, s, noise_power=0.0)
        assert np.array_equal(out, s)

    def test_relay_rx_matches_multiply_oracle(self):
        cfg = mimo_config()
        real = generate_realization(cfg, trial=2)
        combo = (1, 3)
        pre = zf_precoder(real.stacked_source_channel(combo), cfg.signal_power,
                          cfg.user_antennas)
        rng = np.random.default_rng(0)
        s = complex_normal(rng, (4, 1))
        got = relay_rx_signal(real, combo, pre, s, noise_power=0.0)
        want = naive_matvec(real.stacked_source_channel(combo),
                            naive_matvec(pre.matrix, s))
        assert np.allclose(got, want, atol=1e-12)

    def test_user_rx_zero_input_and_block_sum(self):
        cfg = mimo_config()
        real = generate_realization(cfg, trial=3)
        combo = (0, 2)
        zero = np.zeros((4, 1), dtype=complex)
        assert np.array_equal(user_rx_signal(real, combo, zero, 0, 0.0), zero[:2])
        # identical identity blocks sum the stacked copies
        for i in combo:
            real.relay_to_user[(i, 0)] = np.eye(2, dtype=complex)
        v = np.array([[1.0 + 2j], [0.5 - 1j]])
        stacked = np.vstack([v, v])
        out = user_rx_signal(real, combo, stacked, 0, 0.0)
        assert np.allclose(out, 2 * v)

    def test_user_rx_matches_multiply_oracle(self):
        cfg = mimo_config()
        real = generate_realization(cfg, trial=4)
        combo = (0, 4)
        rng = np.random.default_rng(1)
        y = complex_normal(rng, (4, 1))
        got = user_rx_signal(real, combo, y, 1, 0.0)
        want = naive_matvec(real.user_channel(combo, 1), y)
        assert np.allclose(got, want, atol=1e-12)

    def test_unknown_user_rejected(self):
        cfg = mimo_config()
        real = generate_realization(cfg)
        with pytest.raises(ValueError, match="user"):
            user_rx_signal(real, (0, 1), np.zeros((4, 1), dtype=complex), 9, 0.0)

    def test_pure_noise_variance(self):
        cfg = mimo_config()
        real = generate_realization(cfg, trial=5)
        combo = (0, 1)
        pre = zf_precoder(real.stacked_source_channel(combo), cfg.signal_power,
                          cfg.user_antennas)
        s = np.zeros((4, 1), dtype=complex)
        rng = np.random.default_rng(42)
        draws = np.concatenate([
            relay_rx_signal(real, combo, pre, s, noise_power=1.0, rng=rng).ravel()
            for _ in range(2500)
        ])
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.05

    def test_noise_requires_rng(self):
        cfg = scalar_config()
        real = generate_realization(cfg)
        pre = zf_precoder(real.stacked_source_channel((0,)))
        with pytest.raises(ValueError, match="rng"):
            relay_rx_signal(real, (0,), pre, np.ones((1, 1), dtype=complex), 1.0)

    def test_shape_closure_over_random_configs(self):
        # every composed two-hop product conforms for any valid dimensions
        rng = np.random.default_rng(77)
        produced = 0
        while produced < 15:
            m = int(rng.integers(1, 4))
            n_r = int(rng.integers(1, 4))
            n_i = int(rng.integers(1, 4))
            if (m * n_r) % n_i:
                continue
            t = (m * n_r) // n_i
            if not 1 <= t <= 5:
                continue
            produced += 1
            cfg = SystemConfig(num_users=m, user_antennas=n_r, relay_antennas=n_i,
                               pool_size=5, selected_relays=t, num_eves=1,
                               eve_antennas=1, seed=int(rng.integers(1 << 16)))
            real = generate_realization(cfg)
            combo = tuple(range(t))
            pre = zf_precoder(real.stacked_source_channel(combo), cfg.signal_power,
                              cfg.user_antennas)
            s = complex_normal(rng, (cfg.transmit_antennas, 1))
            y = relay_rx_signal(real, combo, pre, s, 0.0)
            assert y.shape == (t * n_i, 1)
            for r in range(m):
                out = user_rx_signal(real, combo, y, r, 0.0)
                assert out.shape == (n_r, 1)


class TestCovariances:
    def test_single_user_has_noise_only(self):
        cfg = scalar_config()
        real = generate_realization(cfg)
        pre = zf_precoder(real.stacked_source_channel((0,)), cfg.signal_power,
                          cfg.user_antennas)
        r_in = interference_covariance(pre, 0, noise_power=0.3, include_noise=True)
        assert np.allclose(r_in, 0.3 * np.eye(1))
        assert np.allclose(
            interference_covariance(pre, 0, include_noise=False), np.zeros((1, 1))
        )

    def test_two_user_interference_matches_outer_product(self):
        # orthonormal precoder columns, unit-power symbols, noise off
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(complex_normal(rng, (4, 4)))
        pre = Precoder(matrix=q, core=q, signal_power=1.0, user_antennas=2)
        r_i = interference_covariance(pre, 0, include_noise=False)
        u2 = q[:, 2:]
        assert np.allclose(r_i, u2 @ u2.conj().T, atol=1e-12)

    def test_desired_covariance_with_symbol_statistics(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(complex_normal(rng, (4, 4)))
        pre = Precoder(matrix=q, core=q, signal_power=1.0, user_antennas=2)
        sym = np.diag([2.0, 3.0]).astype(complex)
        r_d = desired_covariance(pre, 1, sym)
        want = q[:, 2:] @ sym @ q[:, 2:].conj().T
        assert np.allclose(r_d, want)

    def test_hermitian_psd(self):
        cfg = mimo_config()
        rng = np.random.default_rng(11)
        for t in range(25):
            real = generate_realization(cfg, trial=t)
            pre = zf_precoder(real.stacked_source_channel((0, 1)), cfg.signal_power,
                              cfg.user_antennas)
            for u in range(2):
                r_in = interference_covariance(pre, u, cfg.noise_power)
                assert np.array_equal(r_in, r_in.conj().T)
                assert np.linalg.eigvalsh(r_in).min() >= -1e-12

    def test_unknown_user_rejected(self):
        cfg = scalar_config()
        real = generate_realization(cfg)
        pre = zf_precoder(real.stacked_source_channel((0,)))
        with pytest.raises(ValueError, match="user"):
            interference_covariance(pre, 3)


class TestRelayPrecoder:
    def test_relay_side_zero_forcing(self):
        cfg = mimo_config()
        real = generate_realization(cfg, trial=6)
        combo = (1, 2)
        v = relay_precoder(real, combo, cfg)
        stacked = real.all_users_channel(combo, cfg.num_users)
        assert np.linalg.norm(stacked @ v.core - np.eye(4)) < 1e-9
        assert np.allclose(np.sum(np.abs(v.matrix) ** 2, axis=0), cfg.signal_power)
