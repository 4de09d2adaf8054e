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

The pair of all N columns (:meth:`GramianPair.full`, c = 1) gives the exact
eps(tau).

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
    NoConvergence,
    NonFiniteInput,
    SampleMismatch,
)
from .interp import build_id
from .linalg import (
    DEFAULT_CUTOFF,
    _as_matrix,
    _gram_norm,
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
    "epsilon_estimated",
    "minimize_bound",
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
    """tau = 0 followed by :func:`tau_grid` at its defaults: 201 logarithmic
    points over [1e-6, 1e6].

    The midpoint, index 101, is exactly 1.0, so that the degenerate H == L
    case collapses on the grid.
    """
    return np.concatenate(([0.0], tau_grid()))


def tau_grid(tau_min: float = 1e-6, tau_max: float = 1e6, count: int = 201,
             scale: str = "log") -> np.ndarray:
    """Build a tau grid from CLI-style parameters; each omitted one takes
    its default."""
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
        # 10 ** log10(t) need not give t back, and may overflow near the
        # largest double: the ends are the bounds themselves, and the
        # clip keeps every point within them
        with np.errstate(over="ignore"):
            g = 10.0 ** np.linspace(np.log10(tau_min), np.log10(tau_max), count)
        g[0], g[-1] = tau_min, tau_max
        return np.clip(g, tau_min, tau_max, out=g)
    if scale == "linear":
        return np.linspace(tau_min, tau_max, count)
    raise DimensionMismatch(f"unknown grid scale {scale!r}")


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64).ravel()
    if g.size == 0:
        raise EmptyGrid("tau grid is empty")
    _check_tau(g)
    if np.any(np.diff(g) < 0.0):
        raise DimensionMismatch("tau grid must be sorted ascending")
    return g


# --------------------------------------------------------------------------
# Gramians and eps
# --------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class GramianPair:
    """The pencil of n sub-sampled high-/low-fidelity columns.

    A pair is built from the columns only, by :meth:`from_columns`, which
    :meth:`from_snapshots` and :meth:`full` call, from the same column
    indices of both ensembles; ``n_sub`` = n is the number of columns and
    ``c = n_total / n_sub`` the scaling that compensates for the
    sub-sampling in eps_hat. ``gh`` and ``gl`` are the pencil eps is read
    off, read-only, positive semi-definite and exactly symmetric: numpy
    forms A^T A with one triangle mirrored. They are the n x n Gramians
    ``Hs^T Hs`` and ``Ls^T Ls`` of the columns Hs (dim_h x n) and Ls
    (dim_l x n), or, when p = dim_h + dim_l < n, the p x p cores
    ``(Hs Q)^T (Hs Q)`` and ``(Ls Q)^T (Ls Q)``, with Q (n x p) the
    orthonormal factor of the reduced QR of [Hs; Ls]^T.
    """

    gh: np.ndarray
    gl: np.ndarray
    n_sub: int
    n_total: int

    @property
    def c(self) -> float:
        """The sub-sampling scale n_total / n_sub."""
        return self.n_total / self.n_sub

    @classmethod
    def from_columns(cls, high_cols, low_cols, n_total: int) -> "GramianPair":
        """Build from the sub-sampled columns themselves (dims x n each).

        The columns and the pencil must be finite, both sets must have n
        columns, and ``n_total`` must be a whole number of at least n.
        """
        hc = _as_matrix(high_cols, "high columns")
        lc = _as_matrix(low_cols, "low columns")
        n_sub = hc.shape[1]
        if lc.shape[1] != n_sub:
            raise SampleMismatch(f"column counts differ: {n_sub} vs {lc.shape[1]}")
        if hc.shape[0] + lc.shape[0] < n_sub:
            # Gh - tau Gl = Q (core_h - tau core_l) Q^T: the Gramians are
            # projected, not rebuilt from R, so H == L still cancels exactly
            q, _ = np.linalg.qr(np.vstack((hc, lc)).T)
            hc, lc = hc @ q, lc @ q
        gh = _as_matrix(hc.T @ hc, "gh")
        gl = _as_matrix(lc.T @ lc, "gl")
        # NaN fails the comparison, and a fraction or inf leaves a remainder
        if not 1 <= n_sub <= n_total or n_total % 1:
            raise DimensionMismatch(
                f"need 1 <= n_sub <= n_total with n_total a whole number, "
                f"got {n_sub}, {n_total}"
            )
        gh.flags.writeable = gl.flags.writeable = False
        pair = object.__new__(cls)
        for name, value in (("gh", gh), ("gl", gl), ("n_sub", n_sub),
                            ("n_total", n_total)):
            object.__setattr__(pair, name, value)
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


def epsilon_estimated(pair: GramianPair, tau):
    """c * lambda_max(Gh_hat - tau Gl_hat); may be negative.

    ``tau`` is a scalar (the result is a float) or a 1-D array (the result is
    an array, entry by entry equal to the scalar call). A pair is built from
    columns only, so its pencil is exactly symmetric, and the pencils of all
    tau go to the eigensolver as they are, unsymmetrised, in chunks of at
    most ``EPS_CHUNK_BYTES``. Each entry of Gh - tau Gl is monotone in tau, so
    one check at the largest tau covers the grid (:class:`NonFiniteInput`).
    With the reduced p x p pencil (see :class:`GramianPair`) the result is
    c * max(lambda_max(core_h - tau core_l), 0): the n x n pencil has the
    same nonzero eigenvalues plus n - p zeros.
    """
    taus = _check_tau(tau)
    flat = taus.reshape(-1)
    gh, gl = pair.gh, pair.gl
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

def _check_sigma(sigma) -> np.ndarray:
    """``sigma`` as a float64 array: non-empty, 1-D, finite, non-negative and
    non-increasing, as singular values are."""
    v = np.asarray(sigma, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch("spectrum must be a non-empty 1-D array")
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("spectrum contains NaN or Inf")
    if np.any(v < 0.0):
        raise NonFiniteInput("singular values must be non-negative")
    if np.any(np.diff(v) > 0.0):
        raise DimensionMismatch("singular values must be non-increasing")
    return v


def _numerical_rank(sigma: np.ndarray) -> int:
    """Number of singular values above ``DEFAULT_CUTOFF * sigma_1``."""
    if sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > DEFAULT_CUTOFF * sigma[0]))


def _rho_terms(grid: np.ndarray, eps: np.ndarray, sigma: np.ndarray,
               cl_norm: float, id_residual: float, *, floor: bool = False):
    """Vectorized B1/B2 term grids of shape (n_tau, rank); NaN = invalid.

    With ``floor`` the radicands are clamped at 0 instead of marking the cell
    invalid: the lower bound of the pruned search (see :func:`_best_rho`).
    """
    rank = _numerical_rank(sigma)
    if rank == 0:
        raise KOutOfRange("rank(L) is zero; no valid k exists")
    sk = sigma[:rank]
    # sigma_{k+1} for k = 1..rank, with sigma_{rank+1} := 0 by convention
    skp1 = np.append(sigma[1:rank], 0.0)
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
    """What a bound sweep computed.

    ``rho_values`` has shape (len(tau_grid), rank); entry [i, k-1] is
    rho_k(tau_grid[i]) and NaN marks skipped combinations. ``b1`` and
    ``b2`` are the two bound terms at the minimizer, and ``best_rho`` is
    their sum. For the two-tau sweep ``best_tau`` scales the B1 term and
    ``best_tau2`` the B2 term; otherwise ``best_tau2`` is None.
    """

    tau_grid: np.ndarray
    eps_values: np.ndarray
    rho_values: np.ndarray
    best_tau: float
    best_k: int
    b1: float
    b2: float
    best_tau2: float | None = None

    @property
    def best_rho(self) -> float:
        return self.b1 + self.b2

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


def minimize_bound(pair: GramianPair, sigma, cl_norm: float,
                   id_residual: float, grid=None, *, two_tau: bool = False
                   ) -> BoundReport:
    """Sweep rho_k(tau) over the grid and every k <= rank(L): eps_hat over
    the grid in one call, the rho term grids, and their minimizer.

    rho = B1 + B2 is minimized over (tau, k) jointly. Scanning order is
    ascending tau, then ascending k; ties on the minimum value resolve to
    the earliest point in that order. With ``two_tau`` the B1 and B2 terms
    are minimized over tau separately for each k before minimizing over k;
    that feasible set contains every single-tau point, so the result never
    exceeds the single-tau minimum.

    ``sigma`` holds the singular values of L, such as
    :func:`~bifidelity.linalg.singular_values` returns; it must be a
    non-empty 1-D array, finite, non-negative and non-increasing.
    """
    sigma = _check_sigma(sigma)
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
    return BoundReport(
        tau_grid=g,
        eps_values=eps,
        rho_values=rho_grid,
        best_tau=float(g[ti]),
        best_k=int(ki) + 1,
        b1=float(term1[ti, ki]),
        b2=float(term2[ti2, ki]),
        best_tau2=float(g[ti2]) if two_tau else None,
    )


def _best_rho(pair: GramianPair, sigma: np.ndarray, cl_norm: float,
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
    gh, gl = pair.gh, pair.gl
    unit = 8.0 * gh.shape[0] * np.finfo(np.float64).eps * pair.c
    with np.errstate(over="ignore"):
        # an overflowing slack only widens the search, to every gap
        slack_h, slack_l = unit * np.linalg.norm(gh), unit * np.linalg.norm(gl)
    todo = np.union1d(np.arange(0, grid.size, PRUNE_STRIDE), [grid.size - 1])
    a, b = todo[:-1], todo[1:]  # the gaps between evaluated points
    eps = np.empty(grid.size)
    cells = np.full((grid.size, _numerical_rank(sigma)), np.nan)
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


# --------------------------------------------------------------------------
# efficacy study
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficacyResult:
    """Ratios bound-estimate / true-error over repeated sub-samplings."""

    ratios: np.ndarray
    true_error: float

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
    ``seed`` >= 0. Once :func:`build_id` has accepted ``rank``, a warning is
    emitted when rank > n_sub: in that regime the estimate is known to
    under-shoot. A trial whose every (k, tau)
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
    if seed < 0:
        raise DimensionMismatch(f"seed must be >= 0, got {seed}")

    decomposition = build_id(low, rank=rank)
    if rank > n_sub:
        warnings.warn(
            f"approximation rank {rank} exceeds sub-sample size {n_sub}; "
            "the estimate may fall below the true error",
            RuntimeWarning,
            stacklevel=2,
        )
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
        # the ids were aligned above, and the draw is distinct and in range
        pair = GramianPair.from_columns(high.data[:, idx], low.data[:, idx],
                                        n_total=n_total)
        try:
            best_rho, _, _ = _best_rho(pair, sigma, cl_norm, id_residual, g)
        except AllCombinationsInvalid as exc:
            raise AllCombinationsInvalid(f"trial {t}: {exc}") from exc
        ratios[t] = best_rho / true_error
    return EfficacyResult(ratios=ratios, true_error=true_error)


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
