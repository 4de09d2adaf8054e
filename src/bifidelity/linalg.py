"""Dense linear-algebra kernels used throughout the package.

All operations are pure functions of immutable inputs and are deterministic:
identical inputs produce bitwise-identical outputs within a process. Matrices
are plain float64 ``numpy`` arrays; validation rejects NaN/Inf up front.

The column-pivoted QR is authored here because its pivot policy (greedy
max-residual-norm, lowest column index on ties) and its tolerance-mode
stopping rule are part of the package contract. The symmetric eigensolve,
SVD and pseudo-inverse delegate to LAPACK via ``numpy.linalg``; independent
Jacobi implementations live in the test suite as cross-checking oracles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    NotSquare,
    RankExceedsDims,
)

__all__ = [
    "SingularSpectrum",
    "pivoted_qr",
    "svd",
    "lambda_max_symmetric",
    "spectral_norm",
    "pseudo_inverse",
]

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
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    return m


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values of a matrix, ordered non-increasingly.

    ``values`` has length min(rows, cols) of the source matrix and every
    entry is non-negative.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise DimensionMismatch("spectrum must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("spectrum contains NaN or Inf")
        if np.any(v < 0.0):
            raise NonFiniteInput("singular values must be non-negative")
        if np.any(np.diff(v) > 0.0):
            raise DimensionMismatch("singular values must be non-increasing")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    def sigma(self, k: int) -> float:
        """sigma_k with the 1-based indexing convention; 0.0 past the end."""
        if k < 1:
            raise DimensionMismatch(f"singular value index must be >= 1, got {k}")
        if k > self.values.size:
            return 0.0
        return float(self.values[k - 1])

    def numerical_rank(self, rtol: float = DEFAULT_CUTOFF) -> int:
        """Number of singular values above rtol * sigma_1."""
        if self.values[0] == 0.0:
            return 0
        return int(np.count_nonzero(self.values > rtol * self.values[0]))


def pivoted_qr(a, *, rank: int | None = None, tol: float | None = None):
    """Column-pivoted QR factorization A P ~= Q R.

    Classical Gram-Schmidt with greedy max-residual-norm column pivoting and
    one reorthogonalization pass per step; on equal residual norms the lowest
    column index wins, so the output is deterministic.

    Exactly one of ``rank`` (stop after that many steps) or ``tol`` (stop at
    the smallest step count whose trailing residual has spectral norm <= tol,
    checked before each step) must be given. The spectral norm of the trailing
    block lies between its largest column norm and its Frobenius norm, both
    read off the pivot norms, so a 2-norm is computed only on steps those two
    bounds leave undecided. If the residual becomes exactly zero, or tolerance
    mode exhausts min(rows, cols) steps, fewer columns than requested may be
    returned.

    Returns ``(Q, R, perm, rank)``: Q with `rank` orthonormal columns, R of
    shape (rank, cols) upper triangular in its leading block, and ``perm`` the
    full column permutation (first `rank` entries are the pivots).
    """
    a = _as_matrix(a, "A")
    m, n = a.shape
    max_rank = min(m, n)
    if (rank is None) == (tol is None):
        raise DimensionMismatch("exactly one of rank= or tol= must be given")
    if rank is not None:
        if not 1 <= rank <= max_rank:
            raise RankExceedsDims(f"rank {rank} outside [1, {max_rank}]")
        target = rank
    else:
        if tol < 0.0 or not np.isfinite(tol):
            raise DimensionMismatch(f"tolerance must be finite and >= 0, got {tol}")
        target = max_rank

    w = a.copy()
    perm = np.arange(n)
    q_full = np.zeros((m, max_rank))
    r_full = np.zeros((max_rank, n))

    k = 0
    while k < target:
        norms = np.linalg.norm(w[:, k:], axis=0)
        if tol is not None and _within_tol(w[:, k:], norms, tol):
            break
        j = k + int(np.argmax(norms))  # argmax returns the first max: ties go low
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
        q_full[:, k] = q
        row = q @ w[:, k:]
        r_full[k, k:] = row
        w[:, k:] -= np.outer(q, row)
        k += 1

    return q_full[:, :k].copy(), r_full[:k].copy(), perm, k


def _within_tol(trailing: np.ndarray, norms: np.ndarray, tol: float) -> bool:
    """Whether ||trailing||_2 <= tol, given its column norms.

    max(norms) <= ||trailing||_2 <= ||norms||_2; the 1e-12 margins keep the
    decision of the two bounds equal to that of a computed 2-norm.
    """
    if norms.max() > tol * (1.0 + 1e-12):
        return False
    if np.linalg.norm(norms) <= tol * (1.0 - 1e-12):
        return True
    return bool(np.linalg.norm(trailing, 2) <= tol)


def svd(a):
    """Thin singular value decomposition A = U diag(S) V^T.

    Returns ``(U, S, V)`` with ``S`` a :class:`SingularSpectrum` and U, V
    having min(rows, cols) orthonormal columns each.
    """
    a = _as_matrix(a, "A")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    return u, SingularSpectrum(s), vh.T.copy()


def singular_values(a) -> SingularSpectrum:
    """Singular values only (cheaper than :func:`svd` when U, V are unused)."""
    a = _as_matrix(a, "A")
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    return SingularSpectrum(s)


def lambda_max_symmetric(s):
    """Largest eigenvalue of a symmetric matrix; may be negative.

    ``s`` is one n x n matrix (the result is a float) or a stack of shape
    (..., n, n) (the result is an array of shape ``s.shape[:-2]``, entry by
    entry equal to the one-matrix call). Each matrix is symmetrized as
    (S + S^T)/2 before solving, so mild asymmetry from accumulated roundoff
    is harmless.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise NotSquare(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    sym = 0.5 * (s + np.swapaxes(s, -1, -2))
    try:
        lam = np.linalg.eigvalsh(sym)[..., -1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolve failed: {exc}") from exc
    return float(lam) if s.ndim == 2 else lam


def spectral_norm(a) -> float:
    """Largest singular value sigma_1(A) = sqrt(lambda_max(A^T A))."""
    a = _as_matrix(a, "A")
    if not a.any():
        return 0.0
    try:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc


def pseudo_inverse(a, cutoff: float = DEFAULT_CUTOFF) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative singular-value cutoff.

    Singular values <= cutoff * sigma_1 are treated as zero.
    """
    a = _as_matrix(a, "A")
    if cutoff < 0.0:
        raise DimensionMismatch(f"cutoff must be >= 0, got {cutoff}")
    u, s, v = svd(a)
    vals = s.values
    if vals[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = vals > cutoff * vals[0]
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    return (v * inv) @ u.T
