"""Independent reference implementations used only to cross-check results.

Nothing here shares code with the package: the SVD oracle is a one-sided
Jacobi, the eigenvalue oracle a classical cyclic Jacobi, the section inertia
an antiderivative-based quadrature, and the pivot-order oracle a plain
modified Gram-Schmidt. Keeping these independent is the point.

The exception is the pair of tolerance-mode references at the end: they are
the straightforward stopping rules (a 2-norm before every QR step, and a
full-rank factorisation scanned rank by rank) that the package's
tolerance mode shortcuts, so they check the rank choice, not the
factorisation. Likewise ``eps_full_eigvalsh`` calls LAPACK as the package
does, but on the unreduced n x n pencil, so it checks the package's
reduction to the p x p pencil, not the eigensolver.
"""

import numpy as np

from bifidelity.errors import ToleranceUnreachable
from bifidelity.interp import InterpDecomposition, _assemble
from bifidelity.linalg import pivoted_qr


def jacobi_svd_values(a, tol=1e-14, max_sweeps=60):
    """Singular values via one-sided (Hestenes) Jacobi, descending."""
    w = np.array(a, dtype=np.float64)
    if w.shape[0] < w.shape[1]:
        w = w.T.copy()
    n = w.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = float(w[:, p] @ w[:, p])
                beta = float(w[:, q] @ w[:, q])
                gamma = float(w[:, p] @ w[:, q])
                if alpha == 0.0 or beta == 0.0:
                    continue
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                wp = w[:, p].copy()
                w[:, p] = c * wp - s * w[:, q]
                w[:, q] = s * wp + c * w[:, q]
        if not rotated:
            break
    return np.sort(np.linalg.norm(w, axis=0))[::-1]


def jacobi_eigvalsh(mat, tol=1e-14, max_sweeps=100):
    """Eigenvalues of a symmetric matrix via cyclic Jacobi, ascending."""
    a = np.array(mat, dtype=np.float64)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def max_quadratic_form(high, low, tau, draws, seed):
    """max over random unit x of ||H x||^2 - tau ||L x||^2.

    A Monte-Carlo lower bound for the largest eigenvalue of
    H^T H - tau L^T L.
    """
    n = high.shape[1]
    x = np.random.default_rng(seed).standard_normal((n, draws))
    x /= np.linalg.norm(x, axis=0)
    q = np.sum((high @ x) ** 2, axis=0) - tau * np.sum((low @ x) ** 2, axis=0)
    return float(q.max())


def section_inertia_quadrature(e1, e2, e3, cfg):
    """Equivalent-section inertia by integrating b(y) (y - ybar)^2 dy.

    Pieces are (width, y_bottom, y_top) in absolute coordinates; the cubic
    antiderivative per piece is exact, and no parallel-axis shuffling is
    involved, unlike the implementation under test.
    """
    w1 = (e1 / e3) * cfg.width
    w2 = (e2 / e3) * cfg.width
    pieces = (
        (w2, 0.0, cfg.h2),
        (cfg.width, cfg.h2, cfg.h2 + cfg.h3),
        (w1, cfg.h2 + cfg.h3, cfg.h2 + cfg.h3 + cfg.h1),
    )
    area = sum(b * (y1 - y0) for b, y0, y1 in pieces)
    first = sum(0.5 * b * (y1**2 - y0**2) for b, y0, y1 in pieces)
    ybar = first / area
    return sum(
        b * ((y1 - ybar) ** 3 - (y0 - ybar) ** 3) / 3.0 for b, y0, y1 in pieces
    )


def rank_by_svd(a, rtol=1e-10):
    """Numerical rank as counted from a full LAPACK SVD."""
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def mgs_pivot_order(a, steps):
    """First ``steps`` greedy pivots via plain modified Gram-Schmidt."""
    w = np.array(a, dtype=np.float64)
    n = w.shape[1]
    alive = list(range(n))
    order = []
    for _ in range(steps):
        norms = [float(np.linalg.norm(w[:, j])) for j in alive]
        best = alive[int(np.argmax(norms))]
        order.append(best)
        alive.remove(best)
        q = w[:, best] / np.linalg.norm(w[:, best])
        for j in alive:
            w[:, j] -= q * float(q @ w[:, j])
    return order


def eps_full_eigvalsh(gh, gl, c, tau):
    """c * lambda_max(Gh - tau Gl) by one full n x n LAPACK eigensolve per
    tau, with no reduction of the pencil: the reference for the reduced
    p x p pencil the package uses when dim_h + dim_l < n."""
    return np.array([c * np.linalg.eigvalsh(gh - t * gl)[-1]
                     for t in np.atleast_1d(tau)])


def random_matrix_with_spectrum(rng, rows, cols, sigmas):
    """U diag(sigmas) V^T with Haar-ish orthogonal factors."""
    k = len(sigmas)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return (u * np.asarray(sigmas)) @ v.T


def qr_rank_by_norm(a, tol):
    """Steps pivoted QR takes in tolerance mode with a 2-norm before each step.

    Same pivoting and update as the package's ``pivoted_qr`` (classical
    Gram-Schmidt, ties to the lowest index, one reorthogonalisation pass).
    """
    w = np.asarray(a, dtype=np.float64).copy()  # C order, as the package
    m, n = w.shape
    basis = np.zeros((m, min(m, n)))
    k = 0
    while k < min(m, n):
        if np.linalg.norm(w[:, k:], 2) <= tol:
            break
        norms = np.linalg.norm(w[:, k:], axis=0)
        j = k + int(np.argmax(norms))
        if norms[j - k] == 0.0:
            break
        w[:, [k, j]] = w[:, [j, k]]
        v = w[:, k].copy()
        if k:
            v -= basis[:, :k] @ (basis[:, :k].T @ v)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        q = v / nv
        basis[:, k] = q
        w[:, k:] -= np.outer(q, q @ w[:, k:])
        k += 1
    return k


def id_by_rank_scan(low, tol):
    """Tolerance-mode ID by a linear scan: factor at full rank, then assemble
    every candidate rank 1, 2, ... until the recomputed residual is <= tol
    (rank 0 only for the all-zero matrix).

    Raises ``ToleranceUnreachable`` when no available rank meets ``tol``.
    """
    data = np.asarray(low, dtype=np.float64)
    _, r_factor, perm, avail = pivoted_qr(data, rank=min(data.shape))
    for cand in range(1 if avail else 0, avail + 1):
        selected, skeleton, coeffs, residual = _assemble(data, perm, r_factor, cand)
        if residual <= tol:
            return InterpDecomposition(cand, selected, skeleton, coeffs, residual)
    raise ToleranceUnreachable(f"no rank up to {avail} meets {tol:g}")
