"""Dense linear-algebra kernels used throughout the package.

All operations are pure functions of immutable inputs and are deterministic:
identical inputs produce bitwise-identical outputs within a process. Matrices
are plain float64 ``numpy`` arrays; validation rejects NaN/Inf up front.

The column-pivoted QR is authored here because its pivot policy (greedy
max-residual-norm, lowest column index on ties) and its tolerance-mode
stopping rule are part of the package contract; it works at any scale of
its input. The SVD and the eigensolve of the Gram-side norm delegate to
LAPACK via ``numpy.linalg``; independent Jacobi implementations live in the
test suite as cross-checking oracles. That
eigensolve takes a Gram the kernel summed itself, symmetric by
construction, so no kernel here symmetrises a given matrix.
"""

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFiniteInput

__all__ = ["pivoted_qr", "spectral_norm"]

#: Relative cutoff below which singular values are treated as zero.
DEFAULT_CUTOFF = 1e-12


def _as_matrix(a, name: str = "matrix", *, allow_no_columns: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1:
        raise DimensionMismatch(f"{name} must have at least one row")
    if m.shape[1] < 1 and not allow_no_columns:
        raise DimensionMismatch(f"{name} must have at least one row and column")
    if not _all_finite(m):
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    return m


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, without a temporary the size
    of ``a``: min and max propagate NaN, and an infinity is one of them."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def pivoted_qr(a, *, rank: int | None = None, tol: float | None = None):
    """Column-pivoted QR factorization A P ~= Q R.

    Classical Gram-Schmidt with greedy max-residual-norm column pivoting and
    one reorthogonalization pass per step; on equal residual norms the lowest
    column index wins, so the output is deterministic.

    Exactly one of ``rank`` (stop after that many steps) or ``tol`` (stop at
    the smallest step count whose trailing residual has spectral norm <= tol,
    checked before each step) must be given. Each check is
    :func:`_within_tol`: the pivot norms bound the spectral norm of the
    trailing block, the Gram side settles the steps they leave open, and an
    SVD of the block runs only when its norm lies within a relative band of
    16 (m + sqrt(N)) u around tol, for sides m <= N and u = 2^-53. Every
    decision is that of the SVD. If the residual becomes exactly zero, or
    the next diagonal entry of R would scale back to 0 or a subnormal (its
    reciprocal, which a triangular solve takes, overflows), or tolerance
    mode exhausts min(rows, cols) steps, fewer columns than requested may
    be returned.

    Returns ``(Q, R, perm, rank)``: Q with `rank` orthonormal columns, R of
    shape (rank, cols) upper triangular in its leading block, and ``perm`` the
    full column permutation (first `rank` entries are the pivots). The steps
    run on A 2^-e, max|A| < 2^e, against tol 2^-e, and R is scaled back: an
    exact scaling, so no column norm overflows at any scale of A. A nonzero
    trailing block whose column norms all underflow (every entry about 1e162
    below max|A|) ends tolerance mode when its bound sqrt(m (n - k)) 2^-537
    2^e meets tol, and raises :class:`NonFiniteInput` otherwise.
    """
    a = _as_matrix(a, "A")
    m, n = a.shape
    max_rank = min(m, n)
    if (rank is None) == (tol is None):
        raise DimensionMismatch("exactly one of rank= or tol= must be given")
    if rank is not None:
        if not 1 <= rank <= max_rank:
            raise DimensionMismatch(f"rank {rank} outside [1, {max_rank}]")
        target = rank
    else:
        if tol < 0.0 or not np.isfinite(tol):
            raise DimensionMismatch(f"tolerance must be finite and >= 0, got {tol}")
        target = max_rank

    # a C-order copy of A, scaled in place by 2^-e with max|A| < 2^e: the
    # layout decides the bits of the products
    w = a.copy(order="C")
    _, e = np.frexp(max(w.max(), -w.min()))
    np.ldexp(w, -e, out=w)
    if tol is not None:
        tol = np.ldexp(tol, -e)
    perm = np.arange(n)
    q_full = np.zeros((m, max_rank))
    r_full = np.zeros((max_rank, n))

    k = 0
    while k < target:
        norms = np.linalg.norm(w[:, k:], axis=0)
        j = k + int(np.argmax(norms))  # argmax returns the first max: ties go low
        if norms[j - k] == 0.0 and w[:, k:].any():
            # every entry is below 2^-537 of the scale, so the 2-norm of the
            # block is below sqrt(m (n - k)) 2^-537
            if tol is not None and np.sqrt(m * (n - k)) * 2.0**-537 <= tol:
                break
            raise NonFiniteInput(
                f"column norms of A underflow after {k} steps: the trailing block "
                "is not zero, but every entry lies about 1e162 below max|A|")
        if tol is not None and _within_tol(w[:, k:], norms, tol):
            break
        if norms[j - k] == 0.0:
            break  # residual exactly zero
        if j != k:
            w[:, [k, j]] = w[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
            r_full[:k, [k, j]] = r_full[:k, [j, k]]
        v = w[:, k].copy()
        if k:
            # one reorthogonalization pass; fold the correction into R so
            # that A P = Q R + [0 | W_trailing] stays exact
            c = q_full[:, :k].T @ v
            v -= q_full[:, :k] @ c
            r_full[:k, k] += c
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        q = v / nv
        row = q @ w[:, k:]
        if abs(np.ldexp(row[0], e)) < np.finfo(np.float64).tiny:
            break  # R[k, k] would scale back to 0 or a subnormal
        q_full[:, k] = q
        r_full[k, k:] = row
        w[:, k:] -= np.outer(q, row)
        k += 1

    return q_full[:, :k].copy(), np.ldexp(r_full[:k], e), perm, k


def _within_tol(trailing: np.ndarray, norms: np.ndarray, tol: float) -> bool:
    """Whether ||trailing||_2 <= tol, given its column norms; the decision
    is always that of ``np.linalg.norm(trailing, 2) <= tol``.

    max(norms) <= ||trailing||_2 <= ||norms||_2, and the 1e-12 margins keep
    the decision of these two bounds equal to that of the SVD. On the steps
    they leave open, the norm g comes from the Gram side
    (:func:`_gram_norm`, scaled by the largest column norm), which is
    sigma_1 to a relative error of a few (m + sqrt(N)) u for the sides
    m <= N of the block. The SVD's own sigma_1 errs by a like amount, so
    outside the band |g - tol| <= 16 (m + sqrt(N)) u tol, four times the
    stated accuracy, g decides as the SVD would. Only inside the band is
    the SVD computed. On a 256 x 2000 block the band is 5e-13.
    """
    if norms.max() > tol * (1.0 + 1e-12):
        return False
    with np.errstate(over="ignore"):  # an infinite bound leaves the step open
        if np.linalg.norm(norms) <= tol * (1.0 - 1e-12):
            return True
    a = trailing if trailing.shape[0] <= trailing.shape[1] else trailing.T
    m, n = a.shape
    band = 16.0 * (m + np.sqrt(n)) * 2.0**-53
    # max|a| <= max(norms) < 2^e
    g = _gram_norm(lambda cols: a[:, cols].copy(), m, n, np.frexp(norms.max())[1],
                   "the trailing block")
    if abs(g - tol) > band * tol:
        return bool(g < tol)
    return bool(_svd_values(trailing)[0] <= tol)


def _gram_norm(block, m: int, n: int, e: int, name: str) -> float:
    """sigma_1 of an m x n matrix A, m <= n, from the Gram side.

    The result is sqrt(lambda_max(G)) for G = sum_j A_j A_j^T over column
    blocks A_j = block(cols), in order, of width max(m, n // m): no block
    holds more than G or one row of A, and there are at most about sqrt(n)
    of them. ``block`` returns a new array, which is scaled in place by
    2^-e; with max|A| < 2^e this is exact, no square overflows, and none of
    an A near max|A| underflows. The result is sigma_1(A) to a relative
    error of a few (m + sqrt(n)) u (u = 2^-53): about m u from the
    eigensolve, whose error is a few m u ||G||, and sqrt(n) u from the
    length-n sums that form G. Squares below the smallest double are lost,
    which adds an absolute error of at most sqrt(m n) 2^-536 2^e: an A with
    every entry under about 1e-162 2^e gives 0.0, as an exactly zero A
    does. An overflowing block (2^e too small) raises
    :class:`NonFiniteInput` naming ``name``.
    """
    width = max(m, n // m)
    gram = np.zeros((m, m))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for start in range(0, n, width):
            b = block(slice(start, start + width))
            np.ldexp(b, -e, out=b)
            gram += b @ b.T
    if not _all_finite(gram):
        raise NonFiniteInput(f"{name} overflows")
    try:
        lam = float(np.linalg.eigvalsh(gram)[-1])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolve failed: {exc}") from exc
    return float(np.ldexp(np.sqrt(lam), e)) if lam > 0.0 else 0.0


def _svd_values(a: np.ndarray) -> np.ndarray:
    """LAPACK's singular values of the 2-D array ``a``, non-increasing; a
    failed SVD is :class:`NoConvergence`."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc


def singular_values(a) -> np.ndarray:
    """The singular values of ``a``, non-increasing, as LAPACK returns them:
    a new read-only 1-D float64 array of length min(rows, cols)."""
    s = _svd_values(_as_matrix(a, "A"))
    s.flags.writeable = False
    return s


def spectral_norm(a) -> float:
    """Largest singular value sigma_1(A) = sqrt(lambda_max(A^T A))."""
    a = _as_matrix(a, "A")
    return float(_svd_values(a)[0]) if a.any() else 0.0
