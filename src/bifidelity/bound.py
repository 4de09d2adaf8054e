"""Computable error estimates for lifted bi-fidelity approximations.

The key scalar is, for a scaling tau >= 0,

    eps(tau) = lambda_max(H^T H - tau L^T L),

the smallest eps such that ||H x||^2 <= tau ||L x||^2 + eps ||x||^2 for all
x. From it, for each rank index k up to rank(L), the bound term

    rho_k(tau) = (1 + ||C||) sqrt(tau sigma_{k+1}^2 + eps(tau))
               + ||L - L_hat|| sqrt(tau + eps(tau) / sigma_k^2)

dominates the spectral-norm lifting error ||H - H_hat|| when eps is exact.
Minimizing rho over a tau grid and k gives the reported estimate.

Computing eps(tau) from the full high-fidelity ensemble is exactly what one
wants to avoid, so the estimator substitutes Gramians built from n << N
sub-sampled columns, scaled by c = N/n:

    eps_hat(tau) = c * lambda_max(Gh_hat - tau Gl_hat).

With sub-sampling, eps_hat may be negative and individual radicands may turn
negative; such (k, tau) combinations are skipped rather than clamped, which
only shrinks the searched set. The estimate from sub-sampled data is
reported as an estimate: its conservatism is an empirical observation, not a
guarantee.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllCombinationsInvalid,
    DegenerateError,
    DimensionMismatch,
    EmptyGrid,
    KOutOfRange,
    NegativeTau,
    NonFiniteInput,
    SampleMismatch,
)
from .interp import build_id
from .linalg import (
    SingularSpectrum,
    _as_matrix,
    lambda_max_symmetric,
    pseudo_inverse,
    singular_values,
    spectral_norm,
    svd,
)
from .snapio import _atomic_write
from .snapshots import SnapshotMatrix, aligned_sample_ids

__all__ = [
    "GramianPair",
    "BoundReport",
    "EfficacyResult",
    "default_tau_grid",
    "tau_grid",
    "refine_tau_grid",
    "epsilon_exact",
    "epsilon_estimated",
    "rho",
    "minimize_bound",
    "minimize_bound_two_tau",
    "efficacy_study",
    "lifting_oracle_T",
    "write_bound_report",
]

#: Relative noise floor below which a true error makes ratios meaningless.
DEGENERATE_ERROR_RTOL = 1e-14


# --------------------------------------------------------------------------
# tau grids
# --------------------------------------------------------------------------

def default_tau_grid() -> np.ndarray:
    """Logarithmic grid over [1e-6, 1e6] (201 points) plus tau = 0.

    The midpoint is snapped to exactly 1.0 so that the degenerate H == L
    case collapses on the grid.
    """
    taus = 10.0 ** np.linspace(-6.0, 6.0, 201)
    taus[100] = 1.0
    return np.concatenate(([0.0], taus))


def tau_grid(tau_min: float, tau_max: float, count: int, scale: str = "log") -> np.ndarray:
    """Build a tau grid from CLI-style parameters."""
    if count < 1:
        raise EmptyGrid(f"grid count must be >= 1, got {count}")
    if not (np.isfinite(tau_min) and np.isfinite(tau_max)) or tau_min > tau_max:
        raise DimensionMismatch(
            f"grid bounds must be finite and ordered, got [{tau_min}, {tau_max}]"
        )
    if tau_min < 0.0:
        raise NegativeTau(f"tau grid bounds must be >= 0, got {tau_min}")
    if scale == "log":
        if tau_min <= 0.0:
            raise DimensionMismatch("log-scale grid requires tau_min > 0")
        if count == 1:
            return np.array([tau_min])
        return 10.0 ** np.linspace(np.log10(tau_min), np.log10(tau_max), count)
    if scale == "linear":
        return np.linspace(tau_min, tau_max, count)
    raise DimensionMismatch(f"unknown grid scale {scale!r}")


def refine_tau_grid(grid) -> np.ndarray:
    """Insert midpoints between consecutive grid points.

    Originals are kept bitwise, so the result is a strict superset and any
    grid minimum can only decrease. Midpoints are geometric between positive
    neighbours, arithmetic when one endpoint is zero.
    """
    g = _validate_grid(grid)
    mids = []
    for a, b in zip(g[:-1], g[1:]):
        mids.append(np.sqrt(a * b) if a > 0.0 else 0.5 * (a + b))
    out = np.empty(g.size + len(mids))
    out[0::2] = g
    out[1::2] = mids
    return out


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64).ravel()
    if g.size == 0:
        raise EmptyGrid("tau grid is empty")
    if not np.all(np.isfinite(g)):
        raise NonFiniteInput("tau grid contains NaN or Inf")
    if np.any(g < 0.0):
        raise NegativeTau("tau grid contains negative values")
    if np.any(np.diff(g) < 0.0):
        raise DimensionMismatch("tau grid must be sorted ascending")
    return g


# --------------------------------------------------------------------------
# Gramians and eps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GramianPair:
    """Gramians of n sub-sampled high-/low-fidelity columns.

    ``gh`` and ``gl`` are n x n and built from the same column indices of
    both ensembles; ``c = n_total / n_sub`` is the scaling that compensates
    for the sub-sampling in eps_hat.
    """

    gh: np.ndarray
    gl: np.ndarray
    n_sub: int
    n_total: int
    c: float

    def __post_init__(self):
        gh = _as_matrix(self.gh, "gh")
        gl = _as_matrix(self.gl, "gl")
        if gh.shape != gl.shape or gh.shape[0] != gh.shape[1]:
            raise DimensionMismatch("Gramians must be square and equally sized")
        if gh.shape[0] != self.n_sub:
            raise DimensionMismatch("Gramian size must equal the sub-sample count")
        if self.n_total < self.n_sub or self.n_sub < 1:
            raise DimensionMismatch(
                f"need 1 <= n_sub <= n_total, got {self.n_sub}, {self.n_total}"
            )
        for name, g in (("gh", gh), ("gl", gl)):
            scale = float(np.max(np.abs(g))) or 1.0
            if np.max(np.abs(g - g.T)) > 1e-10 * scale:
                raise DimensionMismatch(f"{name} is not symmetric")
            if float(np.linalg.eigvalsh(0.5 * (g + g.T))[0]) < -1e-10 * scale:
                raise DimensionMismatch(f"{name} is not positive semi-definite")
        if abs(self.c - self.n_total / self.n_sub) > 1e-12 * self.c:
            raise DimensionMismatch("c must equal n_total / n_sub")
        gh = gh.copy()
        gl = gl.copy()
        gh.flags.writeable = False
        gl.flags.writeable = False
        object.__setattr__(self, "gh", gh)
        object.__setattr__(self, "gl", gl)

    @classmethod
    def from_columns(cls, high_cols, low_cols, n_total: int) -> "GramianPair":
        """Build from the sub-sampled columns themselves (dims x n each)."""
        hc = _as_matrix(high_cols, "high columns")
        lc = _as_matrix(low_cols, "low columns")
        if hc.shape[1] != lc.shape[1]:
            raise SampleMismatch(
                f"column counts differ: {hc.shape[1]} vs {lc.shape[1]}"
            )
        n = hc.shape[1]
        return cls(gh=hc.T @ hc, gl=lc.T @ lc, n_sub=n, n_total=int(n_total),
                   c=n_total / n)

    @classmethod
    def from_snapshots(cls, high: SnapshotMatrix, low: SnapshotMatrix,
                       indices) -> "GramianPair":
        """Build from column indices into aligned full ensembles."""
        aligned_sample_ids(high, low)
        idx = np.asarray(list(indices), dtype=int)
        if idx.size == 0:
            raise DimensionMismatch("need at least one sub-sampled column")
        if np.unique(idx).size != idx.size:
            raise DimensionMismatch("sub-sample indices must be distinct")
        if idx.min() < 0 or idx.max() >= low.n_samples:
            raise DimensionMismatch("sub-sample index out of range")
        return cls.from_columns(high.data[:, idx], low.data[:, idx],
                                n_total=low.n_samples)

    @classmethod
    def full(cls, high: SnapshotMatrix, low: SnapshotMatrix) -> "GramianPair":
        """No sub-sampling: c = 1 and eps_hat coincides with exact eps."""
        return cls.from_snapshots(high, low, range(low.n_samples))


def _check_tau(tau: float) -> float:
    t = float(tau)
    if not np.isfinite(t) or t < 0.0:
        raise NegativeTau(f"tau must be finite and >= 0, got {tau}")
    return t


def epsilon_exact(high: SnapshotMatrix, low: SnapshotMatrix, tau: float) -> float:
    """lambda_max(H^T H - tau L^T L) from the full aligned ensembles."""
    t = _check_tau(tau)
    aligned_sample_ids(high, low)
    gh = high.data.T @ high.data
    gl = low.data.T @ low.data
    return lambda_max_symmetric(gh - t * gl)


def epsilon_estimated(pair: GramianPair, tau: float) -> float:
    """c * lambda_max(Gh_hat - tau Gl_hat); may be negative."""
    t = _check_tau(tau)
    return pair.c * lambda_max_symmetric(pair.gh - t * pair.gl)


# --------------------------------------------------------------------------
# rho and the grid minimization
# --------------------------------------------------------------------------

def rho(k: int, tau: float, eps: float, sigma: SingularSpectrum,
        cl_norm: float, id_residual: float) -> float | None:
    """Bound term rho_k(tau) for a given eps; None when invalid.

    Invalid means a negative radicand (possible only with estimated eps).
    By convention sigma_{k+1} is taken as 0 when k = rank(L). The value is
    the sweep's own cell, so it equals ``BoundReport.rho_at`` bitwise.
    """
    t = _check_tau(tau)
    rank = sigma.numerical_rank()
    if not 1 <= k <= rank:
        raise KOutOfRange(f"k must lie in [1, rank(L)={rank}], got {k}")
    term1, term2 = _rho_terms(np.array([t]), np.array([float(eps)]), sigma,
                              cl_norm, id_residual)
    value = float(term1[0, k - 1] + term2[0, k - 1])
    return None if np.isnan(value) else value


def _rho_terms(grid: np.ndarray, eps: np.ndarray, sigma: SingularSpectrum,
               cl_norm: float, id_residual: float):
    """Vectorized B1/B2 term grids of shape (n_tau, rank); NaN = invalid."""
    rank = sigma.numerical_rank()
    if rank == 0:
        raise KOutOfRange("rank(L) is zero; no valid k exists")
    sk = sigma.values[:rank]
    # sigma_{k+1} for k = 1..rank, with sigma_{rank+1} := 0 by convention
    skp1 = np.append(sigma.values[1:rank], 0.0)
    rad1 = grid[:, None] * (skp1 * skp1)[None, :] + eps[:, None]
    rad2 = grid[:, None] + eps[:, None] / (sk * sk)[None, :]
    valid = (rad1 >= 0.0) & (rad2 >= 0.0)
    term1 = np.full(rad1.shape, np.nan)
    term2 = np.full(rad2.shape, np.nan)
    term1[valid] = (1.0 + cl_norm) * np.sqrt(rad1[valid])
    term2[valid] = id_residual * np.sqrt(rad2[valid])
    return term1, term2


@dataclass(frozen=True)
class BoundReport:
    """Full record of a bound sweep.

    ``rho_values`` has shape (len(tau_grid), rank); entry [i, k-1] is
    rho_k(tau_grid[i]) and NaN marks skipped combinations. ``b1 + b2``
    equals ``best_rho`` at the minimizer by construction. For the two-tau
    variant ``best_tau`` scales the B1 term and ``best_tau2`` the B2 term;
    otherwise ``best_tau2`` is None.
    """

    tau_grid: np.ndarray
    eps_values: np.ndarray
    rho_values: np.ndarray
    best_tau: float
    best_k: int
    best_rho: float
    b1: float
    b2: float
    sigma: SingularSpectrum
    cl_norm: float
    id_residual: float
    best_tau2: float | None = None
    subsample_seed: int | None = None
    subsample_indices: tuple[int, ...] | None = None

    def rho_at(self, k: int, tau_index: int) -> float:
        """rho_k at a grid point; NaN when the combination was invalid."""
        return float(self.rho_values[tau_index, k - 1])

    @property
    def rank(self) -> int:
        return self.rho_values.shape[1]


def _argmin_first(values: np.ndarray) -> int:
    """Flat index of the NaN-aware minimum; first occurrence wins."""
    masked = np.where(np.isnan(values), np.inf, values)
    flat = int(np.argmin(masked))
    if not np.isfinite(masked.flat[flat]):
        raise AllCombinationsInvalid(
            "every (k, tau) combination had a negative radicand"
        )
    return flat


def _sweep(pair: GramianPair, sigma: SingularSpectrum, cl_norm: float,
           id_residual: float, grid, *, two_tau: bool, subsample_seed,
           subsample_indices) -> BoundReport:
    """eps_hat once per grid point, the rho term grids, and their minimizer.

    With ``two_tau`` the B1 and B2 terms are minimized over tau separately
    for each k before minimizing over k; otherwise rho = B1 + B2 is
    minimized over (tau, k) jointly.
    """
    g = _validate_grid(default_tau_grid() if grid is None else grid)
    eps = np.asarray([epsilon_estimated(pair, t) for t in g])
    term1, term2 = _rho_terms(g, eps, sigma, cl_norm, id_residual)
    rho_grid = term1 + term2
    if two_tau:
        t1_idx = np.argmin(np.where(np.isnan(term1), np.inf, term1), axis=0)
        t2_idx = np.argmin(np.where(np.isnan(term2), np.inf, term2), axis=0)
        cols = np.arange(term1.shape[1])
        ki = _argmin_first(term1[t1_idx, cols] + term2[t2_idx, cols])
        ti, ti2 = t1_idx[ki], t2_idx[ki]
    else:
        ti, ki = np.unravel_index(_argmin_first(rho_grid), rho_grid.shape)
        ti2 = ti
    b1 = float(term1[ti, ki])
    b2 = float(term2[ti2, ki])
    return BoundReport(
        tau_grid=g,
        eps_values=eps,
        rho_values=rho_grid,
        best_tau=float(g[ti]),
        best_k=int(ki) + 1,
        best_rho=b1 + b2,
        b1=b1,
        b2=b2,
        sigma=sigma,
        cl_norm=float(cl_norm),
        id_residual=float(id_residual),
        best_tau2=float(g[ti2]) if two_tau else None,
        subsample_seed=subsample_seed,
        subsample_indices=None if subsample_indices is None
        else tuple(int(i) for i in subsample_indices),
    )


def minimize_bound(pair: GramianPair, sigma: SingularSpectrum, cl_norm: float,
                   id_residual: float, grid=None, *,
                   subsample_seed: int | None = None,
                   subsample_indices=None) -> BoundReport:
    """Sweep rho_k(tau) over the grid and every k <= rank(L).

    Scanning order is ascending tau, then ascending k; ties on the minimum
    value resolve to the earliest point in that order.
    """
    return _sweep(pair, sigma, cl_norm, id_residual, grid, two_tau=False,
                  subsample_seed=subsample_seed,
                  subsample_indices=subsample_indices)


def minimize_bound_two_tau(pair: GramianPair, sigma: SingularSpectrum,
                           cl_norm: float, id_residual: float, grid=None, *,
                           subsample_seed: int | None = None,
                           subsample_indices=None) -> BoundReport:
    """Variant minimizing the B1 and B2 terms over independent tau values.

    The feasible set contains every single-tau point, so the result never
    exceeds the single-tau minimum.
    """
    return _sweep(pair, sigma, cl_norm, id_residual, grid, two_tau=True,
                  subsample_seed=subsample_seed,
                  subsample_indices=subsample_indices)


# --------------------------------------------------------------------------
# efficacy study and the explicit lifting operator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficacyResult:
    """Ratios bound-estimate / true-error over repeated sub-samplings."""

    ratios: np.ndarray
    true_error: float
    rank: int
    n_sub: int
    seed: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.ratios))


def efficacy_study(high: SnapshotMatrix, low: SnapshotMatrix, rank: int,
                   n_sub: int, trials: int, seed: int, grid=None) -> EfficacyResult:
    """Repeatedly sub-sample n columns, run the bound sweep, and divide by
    the true lifting error ||H - H_hat||.

    Sub-sampling is uniform without replacement from a PRNG seeded with
    ``seed``. A warning is emitted when rank > n_sub: in that regime the
    estimate is known to under-shoot.
    """
    aligned_sample_ids(high, low)
    n_total = low.n_samples
    if not 1 <= n_sub <= n_total:
        raise DimensionMismatch(f"need 1 <= n <= {n_total}, got {n_sub}")
    if trials < 1:
        raise DimensionMismatch(f"need at least one trial, got {trials}")
    if rank > n_sub:
        warnings.warn(
            f"approximation rank {rank} exceeds sub-sample size {n_sub}; "
            "the estimate may fall below the true error",
            RuntimeWarning,
            stacklevel=2,
        )

    decomposition = build_id(low, rank=rank)
    h_hat = high.data[:, list(decomposition.selected)] @ decomposition.coeffs
    h_norm = spectral_norm(high.data)
    true_error = spectral_norm(high.data - h_hat)
    if true_error <= DEGENERATE_ERROR_RTOL * h_norm:
        raise DegenerateError(
            f"true error {true_error:.3e} is at the noise floor of "
            f"||H|| = {h_norm:.3e}; efficacy ratios are meaningless"
        )

    sigma = singular_values(low.data)
    cl_norm = decomposition.coeff_norm()
    id_residual = decomposition.residual_norm

    rng = np.random.default_rng(seed)
    ratios = np.empty(trials)
    for t in range(trials):
        idx = np.sort(rng.choice(n_total, size=n_sub, replace=False))
        pair = GramianPair.from_snapshots(high, low, idx)
        report = minimize_bound(
            pair, sigma, cl_norm, id_residual, grid,
            subsample_seed=seed, subsample_indices=idx,
        )
        ratios[t] = report.best_rho / true_error
    return EfficacyResult(
        ratios=ratios,
        true_error=true_error,
        rank=rank,
        n_sub=n_sub,
        seed=seed,
    )


def lifting_oracle_T(high: SnapshotMatrix, low: SnapshotMatrix, k: int):
    """Explicit lifting operator T = H P_{V_k} L^+ and its error E = H - T L.

    V_k spans the top k right singular vectors of L. This is a validation
    device: the bound machinery never needs T, but tests compare ||E|| and
    ||T|| against their closed-form caps.
    """
    aligned_sample_ids(high, low)
    u, s, v = svd(low.data)
    del u
    rank = s.numerical_rank()
    if not 1 <= k <= rank:
        raise KOutOfRange(f"k must lie in [1, rank(L)={rank}], got {k}")
    vk = v[:, :k]
    t = high.data @ (vk @ vk.T) @ pseudo_inverse(low.data)
    e = high.data - t @ low.data
    return t, e


# --------------------------------------------------------------------------
# report serialization
# --------------------------------------------------------------------------

def write_bound_report(report: BoundReport, path) -> None:
    """Write a bound report as CSV.

    One row per (k, tau) ordered by k then tau, columns
    ``k,tau,eps_hat,rho,valid``; invalid combinations carry rho = nan and
    valid = false. The final summary row holds best_k, best_tau, eps_hat at
    the best tau, best_rho, and the literal ``summary`` in the valid column.
    Numbers use shortest round-trip formatting.
    """
    g = report.tau_grid
    eps = report.eps_values
    lines = ["k,tau,eps_hat,rho,valid"]
    for k in range(1, report.rank + 1):
        for i in range(g.size):
            val = float(report.rho_values[i, k - 1])
            ok = not np.isnan(val)
            lines.append(
                f"{k},{float(g[i])!r},{float(eps[i])!r},{val!r},"
                f"{'true' if ok else 'false'}"
            )
    best_ti = int(np.flatnonzero(g == report.best_tau)[0])
    lines.append(
        f"{report.best_k},{report.best_tau!r},{float(eps[best_ti])!r},"
        f"{report.best_rho!r},summary"
    )
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
