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
    """``(regular, log|det|)`` over a batch of square matrices.

    1x1 and 2x2 determinants are taken in closed form (the entry, and
    ``m00 m11 - m01 m10``), which skips LAPACK's per-matrix overhead: that
    overhead dominates for single- and two-antenna nodes. Where a finite
    2x2 matrix's closed form is zero or leaves the normal float range (its
    products of entries may have under- or overflowed, as at noise powers
    far below 1e-154), that matrix alone is taken again by ``slogdet``, so
    no result depends on the rest of the batch. Larger matrices go through
    ``slogdet``. An exactly singular matrix is not regular, and neither is
    a NaN matrix, whose value is NaN.
    """
    n = matrices.shape[-1]
    if n > 2:
        sign, value = np.linalg.slogdet(matrices)
        return np.abs(sign) > 0.5, value
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n == 1:
            det = matrices[..., 0, 0]
        else:
            det = (matrices[..., 0, 0] * matrices[..., 1, 1]
                   - matrices[..., 0, 1] * matrices[..., 1, 0])
        absdet = np.abs(det)
        regular, value = absdet > 0, np.log(absdet)
    if n == 2:
        lost = ~((absdet >= np.finfo(float).tiny) & (absdet < np.inf))
        if lost.any():
            lost &= np.isfinite(matrices).all(axis=(-2, -1))
            regular, value = np.array(regular), np.array(value)  # writable, even for one matrix
            sign, value[lost] = np.linalg.slogdet(matrices[lost])
            regular[lost] = np.abs(sign) > 0.5
    return regular, value


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
