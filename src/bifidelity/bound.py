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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllCombinationsInvalid,
    DegenerateError,
    DimensionMismatch,
    EmptyGrid,
    KOutOfRange,
    NegativeTau,
    NoConvergence,
    NonFiniteInput,
    SampleMismatch,
)
from .interp import build_id
from .linalg import (
    SingularSpectrum,
    _as_matrix,
    _gram_norm,
    _symmetric_part,
    singular_values,
    spectral_norm,
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
    "write_bound_report",
]

#: Relative noise floor below which a true error makes ratios meaningless.
DEGENERATE_ERROR_RTOL = 1e-14

#: Grid stride of the pruned search's first pass (see :func:`_best_rho`):
#: about 30 eigensolves per efficacy trial on the 202-point default grid.
PRUNE_STRIDE = 16

#: Largest stacked (chunk, n, n) array one eps eigensolve call takes. A chunk
#: of small pencils pays the per-call overhead once; the bound keeps a sweep's
#: temporaries at a few such arrays whatever the grid size.
EPS_CHUNK_BYTES = 256 * 1024


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
    both ensembles; ``n_sub`` = n is their size and ``c = n_total / n_sub``
    the scaling that compensates for the sub-sampling in eps_hat. Given
    Gramians G must be symmetric to 1e-10 and positive semi-definite, and
    the pair keeps (G + G^T)/2, bitwise G when G is exactly symmetric; the
    A^T A of :meth:`from_columns` are both.

    eps is read off ``_pencil``, read-only and exactly symmetric:
    (gh, gl), or, when :meth:`from_columns` gets columns Hs (dim_h x n) and
    Ls (dim_l x n) with p = dim_h + dim_l < n, the p x p ``core_h = (Hs Q)^T
    (Hs Q)``, ``core_l = (Ls Q)^T (Ls Q)``, with Q (n x p) the orthonormal
    factor of the reduced QR of [Hs; Ls]^T.
    """

    gh: np.ndarray
    gl: np.ndarray
    n_total: int
    _pencil: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._settle(check_gramians=True)

    @property
    def n_sub(self) -> int:
        """The number n of sub-sampled columns, the size of the Gramians."""
        return self.gh.shape[0]

    @property
    def c(self) -> float:
        """The sub-sampling scale n_total / n_sub."""
        return self.n_total / self.n_sub

    def _settle(self, check_gramians: bool) -> None:
        """Check the sizes, with ``check_gramians`` also that gh and gl are
        symmetric and positive semi-definite, and freeze the pencil."""
        gh = _as_matrix(self.gh, "gh")
        gl = _as_matrix(self.gl, "gl")
        if gh.shape != gl.shape or gh.shape[0] != gh.shape[1]:
            raise DimensionMismatch("Gramians must be square and equally sized")
        n_sub = gh.shape[0]
        # NaN fails the comparison, and a fraction or inf leaves a remainder
        if not 1 <= n_sub <= self.n_total or self.n_total % 1:
            raise DimensionMismatch(
                f"need 1 <= n_sub <= n_total with n_total a whole number, "
                f"got {n_sub}, {self.n_total}"
            )
        if check_gramians:
            parts = []
            for name, g in (("gh", gh), ("gl", gl)):
                scale = float(np.max(np.abs(g))) or 1.0
                if np.max(np.abs(g - g.T)) > 1e-10 * scale:
                    raise DimensionMismatch(f"{name} is not symmetric")
                parts.append(_symmetric_part(g))
                if float(np.linalg.eigvalsh(parts[-1])[0]) < -1e-10 * scale:
                    raise DimensionMismatch(f"{name} is not positive semi-definite")
            gh, gl = parts
        gh.flags.writeable = False
        gl.flags.writeable = False
        object.__setattr__(self, "gh", gh)
        object.__setattr__(self, "gl", gl)
        object.__setattr__(self, "_pencil", (gh, gl))

    @classmethod
    def from_columns(cls, high_cols, low_cols, n_total: int) -> "GramianPair":
        """Build from the sub-sampled columns themselves (dims x n each)."""
        hc = _as_matrix(high_cols, "high columns")
        lc = _as_matrix(low_cols, "low columns")
        if hc.shape[1] != lc.shape[1]:
            raise SampleMismatch(
                f"column counts differ: {hc.shape[1]} vs {lc.shape[1]}"
            )
        # A^T A is positive semi-definite by construction, and numpy forms it
        # with one triangle mirrored, so the pair skips the symmetry scan and
        # the two n x n eigensolves that given matrices get
        pair = object.__new__(cls)
        for name, value in (("gh", hc.T @ hc), ("gl", lc.T @ lc),
                            ("n_total", n_total)):
            object.__setattr__(pair, name, value)
        pair._settle(check_gramians=False)
        if hc.shape[0] + lc.shape[0] < hc.shape[1]:
            # Gh - tau Gl = Q (core_h - tau core_l) Q^T: the Gramians are
            # projected, not rebuilt from R, so H == L still cancels exactly
            q, _ = np.linalg.qr(np.vstack((hc, lc)).T)
            hq, lq = hc @ q, lc @ q
            pencil = (hq.T @ hq, lq.T @ lq)
            for g in pencil:
                g.flags.writeable = False
            object.__setattr__(pair, "_pencil", pencil)
        return pair

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


def _check_tau(tau) -> np.ndarray:
    """``tau`` as a float64 array, a scalar or 1-D, every entry finite and >= 0."""
    taus = np.asarray(tau, dtype=np.float64)
    if taus.ndim > 1:
        raise DimensionMismatch(f"tau must be a scalar or 1-D, got ndim={taus.ndim}")
    flat = taus.reshape(-1)
    bad = flat[~(np.isfinite(flat) & (flat >= 0.0))]
    if bad.size:
        raise NegativeTau(f"tau must be finite and >= 0, got {bad[0]}")
    return taus


def epsilon_exact(high: SnapshotMatrix, low: SnapshotMatrix, tau):
    """lambda_max(H^T H - tau L^T L) from the full aligned ensembles."""
    return epsilon_estimated(GramianPair.full(high, low), tau)


def epsilon_estimated(pair: GramianPair, tau):
    """c * lambda_max(Gh_hat - tau Gl_hat); may be negative.

    ``tau`` is a scalar (the result is a float) or a 1-D array (the result is
    an array, entry by entry equal to the scalar call). The pencils of all
    tau go to the eigensolver as they are, exactly symmetric, in chunks of at
    most ``EPS_CHUNK_BYTES``. Each entry of Gh - tau Gl is monotone in tau, so
    one check at the largest tau covers the grid (:class:`NonFiniteInput`).
    With the reduced p x p pencil (see :class:`GramianPair`) the result is
    c * max(lambda_max(core_h - tau core_l), 0): the n x n pencil has the
    same nonzero eigenvalues plus n - p zeros.
    """
    taus = _check_tau(tau)
    flat = taus.reshape(-1)
    gh, gl = pair._pencil
    top = flat.max(initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(gh - top * gl)):
            raise NonFiniteInput(f"Gh - tau Gl overflows at tau = {float(top)!r}")
    step = max(1, EPS_CHUNK_BYTES // gh.nbytes)
    lam = np.empty(flat.size)
    try:
        for start in range(0, flat.size, step):
            t = flat[start:start + step, None, None]
            lam[start:start + step] = np.linalg.eigvalsh(gh - t * gl)[:, -1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolve failed: {exc}") from exc
    if gh.shape[0] < pair.n_sub:
        lam = np.maximum(lam, 0.0)
    eps = pair.c * lam
    return float(eps[0]) if taus.ndim == 0 else eps


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
    t = float(_check_tau(tau))
    rank = sigma.numerical_rank()
    if not 1 <= k <= rank:
        raise KOutOfRange(f"k must lie in [1, rank(L)={rank}], got {k}")
    term1, term2 = _rho_terms(np.array([t]), np.array([float(eps)]), sigma,
                              cl_norm, id_residual)
    value = float(term1[0, k - 1] + term2[0, k - 1])
    return None if np.isnan(value) else value


def _rho_terms(grid: np.ndarray, eps: np.ndarray, sigma: SingularSpectrum,
               cl_norm: float, id_residual: float, *, floor: bool = False):
    """Vectorized B1/B2 term grids of shape (n_tau, rank); NaN = invalid.

    With ``floor`` the radicands are clamped at 0 instead of marking the cell
    invalid: the lower bound of the pruned search (see :func:`_best_rho`).
    """
    rank = sigma.numerical_rank()
    if rank == 0:
        raise KOutOfRange("rank(L) is zero; no valid k exists")
    sk = sigma.values[:rank]
    # sigma_{k+1} for k = 1..rank, with sigma_{rank+1} := 0 by convention
    skp1 = np.append(sigma.values[1:rank], 0.0)
    rad1 = grid[:, None] * (skp1 * skp1)[None, :] + eps[:, None]
    rad2 = grid[:, None] + eps[:, None] / (sk * sk)[None, :]
    if floor:
        rad1 = np.maximum(rad1, 0.0)
        rad2 = np.maximum(rad2, 0.0)
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
           id_residual: float, grid, *, two_tau: bool) -> BoundReport:
    """eps_hat over the grid in one call, the rho term grids, and their minimizer.

    With ``two_tau`` the B1 and B2 terms are minimized over tau separately
    for each k before minimizing over k; otherwise rho = B1 + B2 is
    minimized over (tau, k) jointly.
    """
    g = _validate_grid(default_tau_grid() if grid is None else grid)
    eps = epsilon_estimated(pair, g)
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
    )


def _best_rho(pair: GramianPair, sigma: SingularSpectrum, cl_norm: float,
              id_residual: float, grid: np.ndarray) -> tuple[float, int, int]:
    """``best_rho``, the tau index and ``best_k`` of :func:`minimize_bound` on
    the validated ``grid``, from eps at only the points that can hold the
    minimum.

    The first pass evaluates every ``PRUNE_STRIDE``-th point and the last;
    each further pass evaluates the midpoints of the gaps between evaluated
    points that are still open. Gl is positive semi-definite, so eps does not
    increase with tau, and rho_k increases with tau and eps: every valid cell
    in a gap (a, b) is at least rho_k at (tau_a, eps(b) - slack) with the
    radicands floored at 0. The slack, 8 n u c (||Gh||_F + tau_b ||Gl||_F)
    with u = 2.2e-16 and n the size of the pencil solved (n x n or reduced),
    covers the rounding of the Gramians, the pencil and the eigensolve.

    A gap is ruled out only when that bound exceeds the best value so far at
    every k, so ties still go to the first point; eps of a point does not
    depend on the points sharing its call, so the result is bitwise the full
    sweep's. The first call holds the largest tau, so it raises the sweep's
    ``NonFiniteInput``; with no valid cell nothing is ruled out, so
    ``AllCombinationsInvalid`` is raised alike.
    """
    gh, gl = pair._pencil
    unit = 8.0 * gh.shape[0] * np.finfo(np.float64).eps * pair.c
    with np.errstate(over="ignore"):
        # an overflowing slack only widens the search, to every gap
        slack_h, slack_l = unit * np.linalg.norm(gh), unit * np.linalg.norm(gl)
    todo = np.union1d(np.arange(0, grid.size, PRUNE_STRIDE), [grid.size - 1])
    a, b = todo[:-1], todo[1:]  # the gaps between evaluated points
    eps = np.empty(grid.size)
    cells = np.full((grid.size, sigma.numerical_rank()), np.nan)
    while todo.size:
        eps[todo] = epsilon_estimated(pair, grid[todo])
        term1, term2 = _rho_terms(grid[todo], eps[todo], sigma, cl_norm, id_residual)
        cells[todo] = term1 + term2
        best = np.min(np.where(np.isnan(cells), np.inf, cells))
        inner = b - a > 1
        a, b = a[inner], b[inner]
        with np.errstate(over="ignore", invalid="ignore"):
            floor1, floor2 = _rho_terms(grid[a], eps[b] - (slack_h + grid[b] * slack_l),
                                        sigma, cl_norm, id_residual, floor=True)
            # a NaN bound compares False: the gap stays open
            open_ = ~(np.min(floor1 + floor2, axis=1) > best)
        a, b = a[open_], b[open_]
        todo = (a + b) // 2
        a, b = np.concatenate((a, todo)), np.concatenate((todo, b))
    ti, ki = np.unravel_index(_argmin_first(cells), cells.shape)
    return float(cells[ti, ki]), int(ti), int(ki) + 1


def minimize_bound(pair: GramianPair, sigma: SingularSpectrum, cl_norm: float,
                   id_residual: float, grid=None) -> BoundReport:
    """Sweep rho_k(tau) over the grid and every k <= rank(L).

    Scanning order is ascending tau, then ascending k; ties on the minimum
    value resolve to the earliest point in that order.
    """
    return _sweep(pair, sigma, cl_norm, id_residual, grid, two_tau=False)


def minimize_bound_two_tau(pair: GramianPair, sigma: SingularSpectrum,
                           cl_norm: float, id_residual: float,
                           grid=None) -> BoundReport:
    """Variant minimizing the B1 and B2 terms over independent tau values.

    The feasible set contains every single-tau point, so the result never
    exceeds the single-tau minimum.
    """
    return _sweep(pair, sigma, cl_norm, id_residual, grid, two_tau=True)


# --------------------------------------------------------------------------
# efficacy study
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


def _lifting_error(high: np.ndarray, skeleton: np.ndarray,
                   coeffs: np.ndarray) -> float:
    """||H - H_S C||_2 from the Gram side, without forming the residual.

    :func:`_gram_norm` of R = H - H_S C, or of R^T when R is tall, so that
    its Gram is the smaller one; each block R_j = H_j - H_S C_j is formed on
    its own, and the scale is taken from max|H|. The result is sigma_1(R)
    to a relative error of a few (m + sqrt(N)) u, plus an absolute error of
    at most sqrt(m N) 2^-536 max|H| from squares that underflow: an R with
    every entry under about 1e-162 max|H| gives 0.0, as an exactly zero R
    does.
    """
    if high.shape[0] > high.shape[1]:
        # R^T = H^T - C^T H_S^T: the row blocks of R are column blocks of R^T
        high, skeleton, coeffs = high.T, coeffs.T, skeleton.T

    def block(cols):
        b = skeleton @ coeffs[:, cols]
        return np.subtract(high[:, cols], b, out=b)

    _, e = np.frexp(max(high.max(), -high.min()))
    return _gram_norm(block, *high.shape, e, "the lifting error H - H_hat")


def efficacy_study(high: SnapshotMatrix, low: SnapshotMatrix, rank: int,
                   n_sub: int, trials: int, seed: int, grid=None) -> EfficacyResult:
    """Repeatedly sub-sample n columns, find the bound sweep's best_rho, and
    divide by the true lifting error ||H - H_hat||, which
    :func:`_lifting_error` takes from the Gram side.

    A trial needs only best_rho, so it evaluates eps at the grid points the
    pruned search of :func:`_best_rho` cannot rule out; the ratios are
    bitwise those of :func:`minimize_bound` on every trial.

    Sub-sampling is uniform without replacement from a PRNG seeded with
    ``seed``. A warning is emitted when rank > n_sub: in that regime the
    estimate is known to under-shoot. A trial whose every (k, tau)
    combination is invalid aborts the study with
    :class:`AllCombinationsInvalid` naming the trial: a ratio over the
    remaining trials would hide that the grid missed the feasible set.
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
    true_error = _lifting_error(high.data, high.data[:, list(decomposition.selected)],
                                decomposition.coeffs)
    # ||H||_2 <= ||H||_F, so only a true error near the noise floor of the
    # Frobenius norm needs the SVD of H to decide; the factor covers the
    # rounding of both norms, and the floor keeps the squares from underflow
    h_fro = float(np.linalg.norm(high.data))
    if not (h_fro >= 1e-130
            and true_error > DEGENERATE_ERROR_RTOL * h_fro * (1.0 + 1e-8)):
        h_norm = spectral_norm(high.data)
        if true_error <= DEGENERATE_ERROR_RTOL * h_norm:
            raise DegenerateError(
                f"true error {true_error:.3e} is at the noise floor of "
                f"||H|| = {h_norm:.3e}; efficacy ratios are meaningless"
            )

    sigma = singular_values(low.data)
    cl_norm = decomposition.coeff_norm()
    id_residual = decomposition.residual_norm
    g = _validate_grid(default_tau_grid() if grid is None else grid)

    rng = np.random.default_rng(seed)
    ratios = np.empty(trials)
    for t in range(trials):
        idx = np.sort(rng.choice(n_total, size=n_sub, replace=False))
        pair = GramianPair.from_snapshots(high, low, idx)
        try:
            best_rho, _, _ = _best_rho(pair, sigma, cl_norm, id_residual, g)
        except AllCombinationsInvalid as exc:
            raise AllCombinationsInvalid(f"trial {t}: {exc}") from exc
        ratios[t] = best_rho / true_error
    return EfficacyResult(
        ratios=ratios,
        true_error=true_error,
        rank=rank,
        n_sub=n_sub,
        seed=seed,
    )


# --------------------------------------------------------------------------
# report serialization
# --------------------------------------------------------------------------

def write_bound_report(report: BoundReport, path) -> None:
    """Write a bound report as CSV.

    One row per (k, tau) ordered by k then tau, columns
    ``k,tau,eps_hat,rho,valid``; invalid combinations carry rho = nan and
    valid = false. Numbers use shortest round-trip formatting.

    A single-tau report ends with one summary row: best_k, best_tau, eps_hat
    at best_tau, best_rho, and the literal ``summary`` in the valid column.
    A two-tau report ends with three rows instead: ``b1`` (best_k, best_tau,
    eps_hat at best_tau, b1), ``b2`` (best_k, best_tau2, eps_hat at
    best_tau2, b2), then ``summary`` with best_k and best_rho = b1 + b2 and
    empty tau and eps_hat fields, since no single tau produces it.
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

    def row(tau, value, tag):
        ti = int(np.flatnonzero(g == tau)[0])
        return f"{report.best_k},{tau!r},{float(eps[ti])!r},{value!r},{tag}"

    if report.best_tau2 is None:
        lines.append(row(report.best_tau, report.best_rho, "summary"))
    else:
        lines.append(row(report.best_tau, report.b1, "b1"))
        lines.append(row(report.best_tau2, report.b2, "b2"))
        lines.append(f"{report.best_k},,,{report.best_rho!r},summary")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
