"""Kernel tests: ``logdet``'s 2x2 closed form against LAPACK's ``slogdet``,
and the rate kernel's dead-link, unbounded and NaN results on 2x2 grams."""

import numpy as np
import pytest

from relaysec.kernels import LN2, logdet, rate_bits


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


class TestRateBitsTwoByTwo:
    def test_regular_grams_match_slogdet(self):
        rng = np.random.default_rng(23)
        a, b = (complex_gaussian(rng, (200, 2, 2)) for _ in range(2))
        num = a @ a.conj().swapaxes(-1, -2)
        den = b @ b.conj().swapaxes(-1, -2) + 1e-3 * np.eye(2)
        want = (np.linalg.slogdet(den + num)[1] - np.linalg.slogdet(den)[1]) / LN2
        np.testing.assert_allclose(rate_bits(num, den), want, rtol=0, atol=1e-9)

    def test_dead_link_unbounded_and_nan(self):
        zero, eye, nan = np.zeros((2, 2)), np.eye(2), np.full((2, 2), np.nan)
        rank_one = np.diag([1.0, 0.0])
        num = np.array([zero, zero, eye, nan, eye])
        den = np.array([zero, rank_one, rank_one, eye, nan])
        out = rate_bits(num, den)
        assert out[:2].tolist() == [0.0, 0.0]  # nothing to receive: a dead link
        assert out[2] == np.inf  # signal where the denominator has no noise
        assert np.all(np.isnan(out[3:]))  # a NaN gram has no rate
