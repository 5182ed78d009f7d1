"""Kernel tests: ``logdet``'s 2x2 closed form against LAPACK's ``slogdet``,
the per-user rates of received blocks against closed forms at high SNR, and
the Cholesky eavesdropper terms against the Woodbury oracle."""

import warnings

import numpy as np
import pytest

from relaysec.kernels import LN2, cholesky_factor, eve_terms, logdet, received_grams, user_rates
from relaysec.reference import ssr_eve_term, zf_precoder


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_matches_slogdet(matrices):
    regular, value = logdet(matrices)
    sign, want = np.linalg.slogdet(matrices)
    assert np.all(np.abs(sign) > 0.5)
    assert regular.all()
    np.testing.assert_allclose(value, want, rtol=0, atol=1e-9)


class TestLogdetTwoByTwo:
    def test_matches_slogdet_on_random_complex_matrices(self):
        assert_matches_slogdet(complex_gaussian(np.random.default_rng(20), (500, 2, 2)))

    @pytest.mark.parametrize("scale", [1.0, 1e-20])
    def test_matches_slogdet_on_hermitian_psd_matrices(self, scale):
        a = complex_gaussian(np.random.default_rng(21), (500, 2, 2))
        assert_matches_slogdet(scale * (a @ a.conj().swapaxes(-1, -2)))

    def test_batch_axes_pass_through(self):
        m = complex_gaussian(np.random.default_rng(22), (3, 4, 5, 2, 2))
        regular, value = logdet(m)
        assert regular.shape == value.shape == (3, 4, 5)
        np.testing.assert_allclose(value, np.linalg.slogdet(m)[1], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_products_out_of_float_range_fall_back_to_slogdet(self, scale):
        # Every other matrix's products of entries under- or overflow; the
        # others keep their closed-form bits whatever else the batch holds.
        a = complex_gaussian(np.random.default_rng(24), (40, 2, 2))
        m = a @ a.conj().swapaxes(-1, -2)
        m[::2] *= scale
        assert_matches_slogdet(m)
        assert logdet(m)[1][1::2].tobytes() == logdet(m[1::2])[1].tobytes()

    def test_exactly_singular_matrices_are_not_regular(self):
        singular = np.array([
            np.zeros((2, 2)),
            [[1.0, 2.0], [2.0, 4.0]],
            [[0.0, 0.0], [0.0, 1e-20]],
            [[1 + 1j, 2 + 2j], [3 - 1j, 6 - 2j]],
        ])
        regular, value = logdet(singular)
        assert not regular.any()
        assert np.all(value == -np.inf)

    def test_nan_matrix_is_not_regular_and_nan(self):
        m = np.array([np.full((2, 2), np.nan), [[1.0, np.nan], [0.0, 1.0]]])
        regular, value = logdet(m)
        assert not regular.any()
        assert np.all(np.isnan(value))


class TestUserRates:
    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("snr_db", [0.0, 100.0, 200.0])
    def test_two_one_column_users_match_sherman_morrison(self, rows, snr_db):
        # User u's rate is log2(1 + b^H (s I + v v^H)^{-1} b) with b its column
        # and v the other's, and (s I + v v^H)^{-1} = (I - v v^H / (s + |v|^2)) / s.
        # With more rows than the other user's one column, the row-side gram
        # s I + v v^H is singular up to s. (With one row, b and v are parallel
        # and this closed form cancels.)
        blocks = complex_gaussian(np.random.default_rng(rows), (50, rows, 2))
        s = 10.0 ** (-snr_db / 10.0)
        got = user_rates(*received_grams(blocks, 2, 1), s)
        for u in range(2):
            b, v = blocks[..., u], blocks[..., 1 - u]
            vb = np.abs(np.sum(v.conj() * b, axis=-1)) ** 2
            vv, bb = (np.sum(np.abs(x) ** 2, axis=-1) for x in (v, b))
            want = np.log1p((bb - vb / (s + vv)) / s) / LN2
            np.testing.assert_allclose(got[:, u], want, rtol=1e-12, atol=0)

    def test_one_user_sees_no_interference(self):
        blocks = complex_gaussian(np.random.default_rng(4), (20, 3, 2))
        s = 1e-20
        got = user_rates(*received_grams(blocks, 1, 2), s)
        lam = np.linalg.eigvalsh(blocks.conj().swapaxes(-1, -2) @ blocks)
        np.testing.assert_allclose(got[:, 0], np.log1p(lam / s).sum(axis=-1) / LN2, rtol=1e-12)


class TestEveTerms:
    SNR_DB = (0.0, 50.0, 100.0, 150.0, 200.0)

    @pytest.mark.parametrize("n_t, n_r", [(3, 1), (4, 1), (4, 2)])
    def test_matches_the_woodbury_oracle_up_to_200_db(self, n_t, n_r):
        rng = np.random.default_rng(30 + n_t + n_r)
        noise = 10.0 ** (-np.array(self.SNR_DB) / 10.0)
        precoders = [zf_precoder(complex_gaussian(rng, (n_t, n_t)), n_r) for _ in range(20)]
        w = np.array([p.matrix for p in precoders])
        got = eve_terms(w.conj().swapaxes(-1, -2) @ w, noise, n_r)
        assert got.shape == (len(noise), len(precoders), n_t // n_r)
        for c, pre in enumerate(precoders):
            for s, level in enumerate(noise):
                want = [ssr_eve_term(pre, u, level) for u in range(n_t // n_r)]
                np.testing.assert_allclose(got[s, c], want, rtol=1e-9, atol=0)

    def test_factor_rebuilds_the_noisy_gram(self):
        a = complex_gaussian(np.random.default_rng(31), (2, 3, 4, 4))
        grams = a.conj().swapaxes(-1, -2) @ a
        noise = np.array([1.0, 1e-3])
        diag, below = cholesky_factor(grams, noise)
        assert diag.shape == (4, 2, 6) and below.shape == (6, 2, 6)
        low = np.zeros((2, 6, 4, 4), dtype=complex)
        low[..., range(4), range(4)] = np.moveaxis(diag, 0, -1)
        rows, cols = np.tril_indices(4, -1)
        order = np.lexsort((rows, cols))  # column by column
        low[..., rows[order], cols[order]] = np.moveaxis(below, 0, -1)
        want = grams.reshape(1, 6, 4, 4) + noise[:, None, None, None] * np.eye(4)
        np.testing.assert_allclose(low @ low.conj().swapaxes(-1, -2), want, rtol=0, atol=1e-12)

    def test_pivot_rounding_to_zero_or_below_gives_inf_without_warnings(self):
        # At 200 dB the second pivot of G + s I for the rank-one gram of all
        # ones is 1 + s - 1 / (1 + s), about 2 s, which rounds to 0; an
        # indefinite "gram" gives a negative pivot and a NaN gram a NaN one.
        # Each one's users all get +inf, never NaN, so the candidate scores
        # -inf; the regular gram in the same batch keeps its finite terms.
        grams = np.array([np.ones((2, 2)), [[1.0, 2.0], [2.0, 1.0]],
                          np.full((2, 2), np.nan), np.eye(2)], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eve_terms(grams, np.array([1e-20]), 1)
        assert np.all(got[0, :3] == np.inf)
        np.testing.assert_allclose(got[0, 3], np.log2(1.0 + 1e20), rtol=1e-12)
