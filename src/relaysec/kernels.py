"""Batched linear-algebra kernels shared by selection and evaluation.

Every function works over leading batch axes, so one call covers all
candidates, users or receivers at once. ``criteria`` scores candidates with
them (``s-sr``, and ``sr`` where it reads the same term, through
:func:`eve_terms`), and ``secrecy`` evaluates the picked one (``sr`` and the
evaluation share :func:`user_rates`).
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


def _column_starts(n: int) -> list:
    """Where column ``j`` of an ``n x n`` lower triangle's strictly lower
    entries starts, for ``j`` in ``0..n``, when they are stored column by
    column: entry ``(i, j)``, ``i > j``, is at ``starts[j] + i - j - 1``."""
    return [j * n - j * (j + 1) // 2 for j in range(n + 1)]


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis, one row after another. ``np.sum`` sums a
    lone column pairwise instead, so its bits would depend on how many
    candidates and noise levels share the call."""
    total = np.zeros(rows.shape[1:], dtype=rows.dtype)
    for row in rows:
        total += row
    return total


def cholesky_factor(grams: np.ndarray, noise) -> tuple:
    """Cholesky factors ``L`` of ``G + s I = L L^H`` for Hermitian ``(..., n,
    n)`` grams ``G`` at every noise power ``s`` of an ``(S,)`` grid.

    The factorization runs column by column, each column a few numpy calls
    over every gram and noise level at once. Returns ``(diag, below)``: the
    real pivots ``l_jj``, ``(n, S, N)``, and the complex strictly lower
    entries, ``(n(n - 1)/2, S, N)``, column by column (:func:`_column_starts`),
    with ``N`` the grams' leading axes flattened: ``n^2`` floats per gram and
    noise level. A pivot ``l_jj^2`` that rounds to 0 or below leaves its
    ``l_jj`` 0 or NaN; the caller tests the pivots. A gram's factor at one
    noise level has the same bits whatever else shares the call.
    """
    n = grams.shape[-1]
    starts = _column_starts(n)
    g = np.ascontiguousarray(grams.reshape(-1, n, n).transpose(1, 2, 0))
    level = np.asarray(noise, dtype=float)[:, None]
    # The diagonal of G + s I, reduced to each pivot's square in turn.
    diag = g[range(n), range(n), None].real + level
    below = np.empty((starts[-1], len(level), g.shape[-1]), dtype=complex)
    cols = [below[starts[j]:starts[j + 1]] for j in range(n)]  # cols[j] is L[j+1:, j]
    for j, col in enumerate(cols):
        col[...] = g[j + 1:, j, None]
        if j < n - 1:  # the last column has nothing below its pivot
            # Each product takes a one-row slice, not an index: numpy rounds
            # a broadcast product of one element without FMA, and every
            # larger one with it.
            for k in range(j):
                col -= cols[k][j - k:] * cols[k][j - k - 1:j - k].conj()
        np.sqrt(diag[j], out=diag[j])
        col /= diag[j]
        squares = np.abs(col)
        diag[j + 1:] -= np.square(squares, out=squares)
    return diag, below


def eve_terms(grams: np.ndarray, noise, user_antennas: int) -> np.ndarray:
    """Every user's term ``-log2 det(s [(G + s I)^{-1}]_uu)``, ``(S, ..., M)``,
    at every noise power ``s`` of an ``(S,)`` grid, for Hermitian ``(..., n,
    n)`` grams ``G`` whose ``n = M N_r`` rows are the users' in turn.

    With ``G + s I = L L^H`` (:func:`cholesky_factor`), ``X = L^{-1}`` is
    formed in place of ``L``, one column at a time from the last, so ``(G +
    s I)^{-1} = X^H X`` and user ``u``'s term is ``-N_r log2 s - log2
    det(X_u^H X_u)``, with ``X_u`` its ``N_r`` columns of ``X``. ``s`` is
    kept out of the determinant, whose entries near ``[G^{-1}]_uu`` stay in
    the float range at any SNR. Where a pivot rounds to 0 or below, or is
    not finite, every user's term is +inf. As with the factor, a gram's
    terms at one noise level do not depend on the rest of the call.
    """
    n = grams.shape[-1]
    starts = _column_starts(n)
    level = np.asarray(noise, dtype=float)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        diag, below = cholesky_factor(grams, noise)
        regular = np.all((diag > 0) & (diag < np.inf), axis=0)
        cols = [below[starts[j]:starts[j + 1]] for j in range(n)]
        # X[j, j] = 1 / l_jj and X[j+1:, j] = -X[j+1:, j+1:] L[j+1:, j] / l_jj.
        np.reciprocal(diag, out=diag)
        for j in range(n - 2, -1, -1):
            acc = diag[j + 1:] * cols[j]
            for k in range(j + 1, n - 1):  # one-row slices, as in the factor
                acc[k - j:] += cols[k] * cols[j][k - j - 1:k - j]
            np.multiply(acc, -diag[j], out=cols[j])
        # [X^H X]_ab over the pairs a <= b of each user's columns.
        r = user_antennas
        gram = np.zeros((n // r, r, r) + diag.shape[1:], dtype=complex if r > 1 else float)
        for a in range(n):
            squares = np.abs(cols[a])
            gram[a // r, a % r, a % r] = diag[a] ** 2 + _row_sum(np.square(squares, out=squares))
            for b in range(a + 1, a - a % r + r):
                cross = (cols[a][b - a - 1].conj() * diag[b]
                         + _row_sum(cols[a][b - a:].conj() * cols[b]))
                gram[a // r, a % r, b % r] = cross
                gram[a // r, b % r, a % r] = cross.conj()
        del diag, below, cols  # the factor goes before the log-dets' temporaries come
        regular_gram, value = logdet(np.moveaxis(gram, (1, 2), (-2, -1)))
        terms = np.where(regular & regular_gram, -(r * np.log(level) + value) / LN2, np.inf)
    return np.moveaxis(terms, 0, -1).reshape(len(level), *grams.shape[:-2], n // r)
