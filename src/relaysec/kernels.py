"""Batched linear-algebra kernels shared by selection and evaluation.

Every function works over leading batch axes, so one call covers all
candidates, users or receivers at once. ``criteria`` scores candidates with
them, ``secrecy`` evaluates the picked one, and the scalar oracles in
``reference`` use the same rate kernel.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize a nominally Hermitian matrix (batched over leading axes)."""
    return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))


def split_covariances(matrices: np.ndarray, num_users: int, user_antennas: int) -> tuple:
    """Per-user desired and interference grams of batches of column blocks.

    ``matrices`` is ``(..., n, N_t)`` with user ``u``'s columns ``U_u`` at
    ``u * user_antennas``: precoders, or an eavesdropper's received blocks
    ``E W``. Returns Hermitian ``(rd, ri)`` of shape ``(..., M, n, n)``:
    ``rd[..., u] = U_u U_u^H`` and ``ri[..., u]`` the sum of the other users'
    terms. Both are noise-free.
    """
    blocks = matrices.reshape(*matrices.shape[:-1], num_users, user_antennas).swapaxes(-2, -3)
    rd = hermitize(blocks @ blocks.conj().swapaxes(-1, -2))
    # The sum of the other users' terms, not the total minus the own term:
    # at high SNR the noise is far below the rounding error of that difference.
    others = 1.0 - np.eye(num_users)
    ri = (others @ rd.reshape(*rd.shape[:-2], rd.shape[-1] ** 2)).reshape(rd.shape)
    return rd, ri


def logdet(matrices: np.ndarray) -> tuple:
    """``(regular, log|det|)`` over a batch of square matrices."""
    if matrices.shape[-1] == 1:
        # A 1x1 determinant is the entry itself; this skips LAPACK's
        # per-matrix overhead, which dominates for single-antenna nodes.
        absdet = np.abs(matrices[..., 0, 0])
        with np.errstate(divide="ignore"):
            return absdet > 0, np.log(absdet)
    sign, value = np.linalg.slogdet(matrices)
    return np.abs(sign) > 0.5, value


def rate_bits(gram_num: np.ndarray, gram_den: np.ndarray) -> np.ndarray:
    """``log2 det(I + gram_den^{-1} gram_num)`` over batches of PSD grams.

    A singular denominator yields 0 when the numerator is also negligible
    (dead link) and +inf otherwise (unbounded ratio). A gram that is not
    finite yields NaN: it has no rate.
    """
    ok_t, logdet_t = logdet(gram_den + gram_num)
    ok_d, logdet_d = logdet(gram_den)
    ok = ok_t & ok_d
    if ok.all():
        return (logdet_t - logdet_d) / LN2
    out = np.zeros(np.shape(ok))
    np.subtract(logdet_t, logdet_d, out=out, where=ok)
    out /= LN2
    num_scale = np.max(np.abs(gram_num), axis=(-2, -1))
    den_scale = np.max(np.abs(gram_den), axis=(-2, -1))
    dead = ~ok & (num_scale <= 1e-14 * (1.0 + den_scale))
    out = np.where(~ok & ~dead, np.inf, out)
    # A NaN gram fails both tests above, so it is told apart here.
    finite = np.isfinite(gram_num).all(axis=(-2, -1)) & np.isfinite(gram_den).all(axis=(-2, -1))
    return np.where(finite, out, np.nan)
