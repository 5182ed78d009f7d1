"""Batched linear-algebra kernels shared by selection and evaluation.

Every function works over leading batch axes, so one call covers all
candidates, users or receivers at once. ``criteria`` scores candidates with
them, ``secrecy`` evaluates the picked one (``sr`` and the evaluation
share :func:`user_rates`), and the scalar oracles in ``reference`` take
their rates from :func:`rate_bits`.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize a nominally Hermitian matrix (batched over leading axes)."""
    return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))


def received_grams(blocks: np.ndarray, num_users: int, user_antennas: int) -> tuple:
    """Noise-free grams of every user's rate at receivers that see ``(..., n, N_t)``
    blocks ``B``, with user ``u``'s columns ``B_u`` at ``u * user_antennas``.

    User ``u``'s rate at noise power ``s`` is ``log2 det(s I + B B^H) - log2
    det(s I + B_I B_I^H)``, with ``B_I`` the other users' columns. Each gram
    is taken on the smaller side of its matrix, ``X X^H`` or ``X^H X``, since
    ``det(s I_p + X X^H) = s^(p - q) det(s I_q + X^H X)`` for a ``p x q``
    ``X``: on the larger side the gram is singular, and at high SNR its
    determinant is set by rounding. Returns the Hermitian grams ``total``,
    ``(..., 1, k, k)`` (the same for every user), and ``others``, ``(..., M,
    k', k')``, and the power of ``s`` the two sides leave over, for
    :func:`user_rates`.
    """
    n, n_t = blocks.shape[-2:]
    # Row u: the columns of every user but u.
    cols = np.nonzero(np.arange(n_t) // user_antennas != np.arange(num_users)[:, None])[1]
    others = blocks[..., cols.reshape(num_users, -1)].swapaxes(-2, -3)
    grams = []
    for x in (blocks[..., None, :, :], others):
        side = "...ik,...jk->...ij" if n <= x.shape[-1] else "...ki,...kj->...ij"
        grams.append(hermitize(np.einsum(side, x, x.conj())))
    dropped = max(n - n_t, 0) - max(n - (n_t - user_antennas), 0)
    return grams[0], grams[1], dropped


def user_rates(total: np.ndarray, others: np.ndarray, dropped: int, noise) -> np.ndarray:
    """Every user's rate in bits from :func:`received_grams` at noise power
    ``noise``, which broadcasts against the grams' leading axes."""
    level = np.asarray(noise)[..., None, None]
    value = (logdet(total + level * np.eye(total.shape[-1]))[1]
             - logdet(others + level * np.eye(others.shape[-1]))[1])
    return (value + dropped * np.log(noise)) / LN2


def logdet(matrices: np.ndarray) -> tuple:
    """``(regular, log|det|)`` over a batch of square matrices.

    1x1 and 2x2 determinants are taken in closed form (the entry, and
    ``m00 m11 - m01 m10``), which skips LAPACK's per-matrix overhead: that
    overhead dominates for single- and two-antenna nodes. Where a finite
    2x2 matrix's closed form is zero or leaves the normal float range (its
    products of entries may have under- or overflowed, as at noise powers
    far below 1e-154), that matrix alone is taken again by ``slogdet``, so
    no result depends on the rest of the batch. Larger (and empty) matrices
    go through ``slogdet``. An exactly singular matrix is not regular, and
    neither is a NaN matrix, whose value is NaN.
    """
    n = matrices.shape[-1]
    if n not in (1, 2):
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
