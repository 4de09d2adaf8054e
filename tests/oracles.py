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

Two more references stand apart: ``diffusion_flux_banded`` is the diffusion
model's former solve, one scipy banded (LAPACK gtsv) solve per sample, which
the package's vectorised elimination must match bit for bit, as
``beam_pair_per_sample`` (the beam model's former scalar code, one input row
at a time, with Python's float ``** 2``) is for the vectorised beam; and
``lifting_oracle_T`` builds the explicit lifting operator from numpy's SVD
and pseudo-inverse, because the tests compare its norms against the bound's
closed-form caps, not its factorisations.

``efficacy_full_sweep`` is the efficacy study's former per-trial loop, one
full ``minimize_bound`` sweep per sub-sample, against which the study's
pruned best-rho search must agree bit for bit. Its true error goes through
the study's own Gram-side kernel, which the accuracy tests hold to the SVD.

``rho`` is the bound term of one (k, tau) cell as a scalar formula, with
the operations of the package's vectorised kernel in its order, so each
cell must match the sweep's bit for bit. ``epsilon_exact`` (eps of the full
ensembles) and ``sigma_k`` (sigma_k of a spectrum, 1-based) are the
package's former functions, which only tests called, as are ``from_array``
(a snapshot matrix with positional ids) and ``columns`` (some of its
columns, with their ids), the former ``SnapshotMatrix`` methods.

Finally, ``eps_lambda_max_symmetric`` is the former eps kernel, which sent
each chunk of pencils through ``lambda_max_symmetric`` (a finiteness scan
and (S + S^T)/2 per chunk); the kernel that solves the pair's pencil
unchecked must match it bit for bit wherever that pencil is exactly
symmetric. ``lambda_max_symmetric`` and ``_symmetric_part`` are the
package's former functions of those names, kept here as that reference; a
non-square input raises ``DimensionMismatch``.

``solve_coefficient_block`` and ``pseudo_inverse`` are the ID's former
coefficient solve, which took one SVD of R11 for its condition and a second
inside the pseudo-inverse; the package's one-SVD solve must match them byte
for byte.
"""

import math

import numpy as np
import scipy.linalg

from bifidelity.bound import (EPS_CHUNK_BYTES, GramianPair, _lifting_error,
                             _numerical_rank, epsilon_estimated, minimize_bound)
from bifidelity.errors import (DimensionMismatch, KOutOfRange, NegativeTau,
                              NoConvergence, NonFiniteInput,
                              ToleranceUnreachable)
from bifidelity.interp import (ILL_CONDITION_LIMIT, InterpDecomposition, _assemble,
                               build_id)
from bifidelity.linalg import DEFAULT_CUTOFF, pivoted_qr, singular_values
from bifidelity.models import beam_grid
from bifidelity.snapshots import SnapshotMatrix, _positional_ids, aligned_sample_ids


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


def from_array(data):
    """A snapshot matrix of the 2-D ``data`` with ids ``col-000000, ...``."""
    d = np.asarray(data, dtype=np.float64)
    return SnapshotMatrix(d, _positional_ids(d.shape[1]))


def columns(matrix, indices):
    """The snapshot matrix of the given columns of ``matrix``, with their ids."""
    idx = list(indices)
    return SnapshotMatrix(matrix.data[:, idx], tuple(matrix.sample_ids[j] for j in idx))


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


def sigma_k(spectrum, k):
    """sigma_k of an array of singular values with the 1-based indexing
    convention; 0.0 past the end."""
    if k < 1:
        raise DimensionMismatch(f"singular value index must be >= 1, got {k}")
    if k > spectrum.size:
        return 0.0
    return float(spectrum[k - 1])


def epsilon_exact(high, low, tau):
    """lambda_max(H^T H - tau L^T L) from the full aligned ensembles."""
    return epsilon_estimated(GramianPair.full(high, low), tau)


def rho(k, tau, eps, sigma, cl_norm, id_residual):
    """Bound term rho_k(tau) for a given eps; None when a radicand is
    negative (possible only with estimated eps) or NaN.

    (1 + cl_norm) sqrt(tau s_{k+1}^2 + eps) + id_residual sqrt(tau + eps / s_k^2)
    with s_{k+1} = 0 at k = rank(L), each operation rounded as the sweep's
    kernel rounds it.
    """
    t = float(tau)
    if not (math.isfinite(t) and t >= 0.0):
        raise NegativeTau(f"tau must be finite and >= 0, got {t}")
    rank = _numerical_rank(sigma)
    if not 1 <= k <= rank:
        raise KOutOfRange(f"k must lie in [1, rank(L)={rank}], got {k}")
    sk = float(sigma[k - 1])
    skp1 = float(sigma[k]) if k < rank else 0.0
    rad1 = t * (skp1 * skp1) + float(eps)
    rad2 = t + float(eps) / (sk * sk)
    if not (rad1 >= 0.0 and rad2 >= 0.0):
        return None
    return (1.0 + cl_norm) * math.sqrt(rad1) + id_residual * math.sqrt(rad2)


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
            return InterpDecomposition(selected, skeleton, coeffs, residual)
    raise ToleranceUnreachable(f"no rank up to {avail} meets {tol:g}")


def diffusion_flux_banded(weights, n_nodes):
    """Flux a u' of -(a u')' = 1, u(0) = u(1) = 0, on ``n_nodes`` nodes for one
    vector of mode weights c_i mu_i: the same differences as the package,
    with the tridiagonal system handed to ``scipy.linalg.solve_banded``."""
    x = np.linspace(0.0, 1.0, n_nodes)
    h = x[1] - x[0]
    modes = np.arange(1, weights.size + 1)

    def coefficient(points):
        return np.exp(np.sin(np.pi * np.outer(points, modes)) @ weights)

    a_half = coefficient(0.5 * (x[:-1] + x[1:]))
    n_int = n_nodes - 2
    lower = a_half[1:-1] / h**2
    banded = np.zeros((3, n_int))
    banded[0, 1:] = -lower
    banded[1, :] = (a_half[:-1] + a_half[1:]) / h**2
    banded[2, :-1] = -lower
    u = np.zeros(n_nodes)
    u[1:-1] = scipy.linalg.solve_banded((1, 1), banded, np.ones(n_int))
    du = np.empty(n_nodes)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return coefficient(x) * du


def _section_inertia(e1: float, e2: float, e3: float, cfg) -> float:
    """Second moment of the equivalent single-material cross section.

    Flange widths are scaled by the modulus ratios (w1 = E1/E3 * w,
    w2 = E2/E3 * w); the moment is taken about the centroid of the
    three-rectangle stack.
    """
    w1 = (e1 / e3) * cfg.width
    w2 = (e2 / e3) * cfg.width
    # (width, height, centroid height measured from the section bottom)
    pieces = (
        (w2, cfg.h2, 0.5 * cfg.h2),
        (cfg.width, cfg.h3, cfg.h2 + 0.5 * cfg.h3),
        (w1, cfg.h1, cfg.h2 + cfg.h3 + 0.5 * cfg.h1),
    )
    area = sum(b * h for b, h, _ in pieces)
    centroid = sum(b * h * y for b, h, y in pieces) / area
    return sum(
        b * h**3 / 12.0 + b * h * (y - centroid) ** 2 for b, h, y in pieces
    )


def beam_lofi(mu, cfg) -> np.ndarray:
    """Beam-theory vertical displacement of the top cord for one input row.

    u(x) = -(q L^4 / 24 E I) ((x/L)^4 - 4 (x/L)^3 + 6 (x/L)^2) with E = E3
    and I the equivalent-section inertia; every realization is the same
    shape scaled by q / (E3 I).
    """
    q, e1, e2, e3 = (float(v) for v in mu)
    inertia = _section_inertia(e1, e2, e3, cfg)
    xi = beam_grid(cfg) / cfg.length
    shape = xi**4 - 4.0 * xi**3 + 6.0 * xi**2
    return -(q * cfg.length**4 / (24.0 * e3 * inertia)) * shape


def beam_hifi_substitute(mu, cfg) -> np.ndarray:
    """Displacement with an added shear-compliance correction.

    The correction integrates the shear strain of a cantilever under a
    uniform load, q (L x - x^2 / 2) / (kappa G A), with the web shear area
    reduced by the five holes (smeared over the span) and G derived from E3.
    """
    q, e1, e2, e3 = (float(v) for v in mu)
    del e1, e2
    u = beam_lofi(mu, cfg)
    x = beam_grid(cfg)
    shear_modulus = e3 / (2.0 * (1.0 + cfg.poisson))
    shear_area = cfg.width * cfg._web_height_effective()
    correction = (
        -q * (cfg.length * x - 0.5 * x**2)
        / (cfg.shear_coefficient * shear_modulus * shear_area)
    )
    return u + correction


def beam_pair_per_sample(samples, cfg):
    """(high, low) data of the beam model, one input row at a time."""
    high = np.column_stack([beam_hifi_substitute(mu, cfg) for mu in samples])
    low = np.column_stack([beam_lofi(mu, cfg) for mu in samples])
    return high, low


def lifting_oracle_T(high, low, k):
    """Explicit lifting operator T = H P_{V_k} L^+ and its error E = H - T L.

    V_k spans the top k right singular vectors of L. The bound machinery
    never needs T; the tests compare ||E|| and ||T|| against their
    closed-form caps.
    """
    aligned_sample_ids(high, low)
    _, s, vh = np.linalg.svd(low.data, full_matrices=False)
    rank = _numerical_rank(s)
    if not 1 <= k <= rank:
        raise KOutOfRange(f"k must lie in [1, rank(L)={rank}], got {k}")
    vk = vh[:k].T
    t = high.data @ (vk @ vk.T) @ np.linalg.pinv(low.data, DEFAULT_CUTOFF)
    e = high.data - t @ low.data
    return t, e


def efficacy_full_sweep(high, low, rank, n_sub, trials, seed, grid=None):
    """(ratios, true_error) of the efficacy study with a full bound sweep per
    trial: the same sub-samples as ``efficacy_study``, each sent through
    ``minimize_bound`` over the whole grid. No degenerate-error check."""
    aligned_sample_ids(high, low)
    dec = build_id(low, rank=rank)
    true_error = _lifting_error(high.data, high.data[:, list(dec.selected)],
                                dec.coeffs)
    sigma = singular_values(low.data)
    rng = np.random.default_rng(seed)
    ratios = np.empty(trials)
    for t in range(trials):
        idx = np.sort(rng.choice(low.n_samples, size=n_sub, replace=False))
        pair = GramianPair.from_snapshots(high, low, idx)
        report = minimize_bound(pair, sigma, dec.coeff_norm(), dec.residual_norm,
                                grid)
        ratios[t] = report.best_rho / true_error
    return ratios, true_error


def eps_lambda_max_symmetric(gh, gl, c, n_sub, tau):
    """c * lambda_max(gh - tau gl) for a 1-D ``tau``, one ``lambda_max_symmetric``
    call per chunk of at most ``EPS_CHUNK_BYTES`` of pencils, floored at 0 when
    the pencil (the reduced p x p one) is smaller than ``n_sub``."""
    taus = np.asarray(tau, dtype=np.float64)
    step = max(1, EPS_CHUNK_BYTES // gh.nbytes)
    lam = np.empty(taus.size)
    for start in range(0, taus.size, step):
        lam[start:start + step] = lambda_max_symmetric(
            gh - taus[start:start + step, None, None] * gl)
    if gh.shape[0] < n_sub:
        lam = np.maximum(lam, 0.0)
    return c * lam


def _symmetric_part(s: np.ndarray) -> np.ndarray:
    """(S + S^T)/2 over the last two axes, computed so that nothing overflows.

    An entry equal to its mirror is kept bit for bit, subnormals included;
    the others are 0.5 S + 0.5 S^T, bitwise 0.5 (S + S^T) in the normal range.
    """
    t = np.swapaxes(s, -1, -2)
    return np.where(s == t, s, 0.5 * s + 0.5 * t)


def lambda_max_symmetric(s):
    """Largest eigenvalue of a symmetric matrix; may be negative.

    ``s`` is one n x n matrix (the result is a float) or a stack of shape
    (..., n, n) (the result is an array of shape ``s.shape[:-2]``, entry by
    entry equal to the one-matrix call). Each matrix is symmetrized as
    (S + S^T)/2 before solving (see :func:`_symmetric_part`), so mild
    asymmetry from accumulated roundoff is harmless.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    try:
        lam = np.linalg.eigvalsh(_symmetric_part(s))[..., -1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolve failed: {exc}") from exc
    return float(lam) if s.ndim == 2 else lam


def solve_coefficient_block(r11, r12):
    """Solve R11 Z = R12; minimum-Frobenius-norm solution if ill-conditioned."""
    r = r11.shape[0]
    if r == 0 or r12.shape[1] == 0:
        return np.zeros((r, r12.shape[1]))
    s = np.linalg.svd(r11, compute_uv=False)
    ill = s[-1] == 0.0 or s[0] / s[-1] > ILL_CONDITION_LIMIT
    if ill:
        return pseudo_inverse(r11) @ r12
    return np.linalg.solve(r11, r12)


def pseudo_inverse(a):
    """Moore-Penrose pseudo-inverse; singular values <= ``DEFAULT_CUTOFF *
    sigma_1`` count as zero. V is copied to C order before the product: the
    layout decides its bits."""
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    if s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > DEFAULT_CUTOFF * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vh.T.copy() * inv) @ u.T
