"""Built-in parametric model pairs producing aligned snapshot ensembles.

A model is a map from N input samples to N snapshot columns. The inputs of
an ensemble are one (N, d) float array, a row per sample, and column i of
both outputs belongs to row i. Two desk-scale studies are bundled:

* A composite cantilever beam under a uniform load, inputs (q, E1, E2, E3).
  The low-fidelity model is the classical beam-theory displacement of an
  equivalent single-material section, which makes every realization a
  scalar multiple of one shape (a rank-1 ensemble). The high-fidelity side
  is a *substitute* for a shear-resolving solver: the same displacement
  plus an analytic shear-compliance correction whose web area is reduced by
  the five holes. It is deliberately imperfect-but-correlated, not a
  reference solution.

* A one-dimensional steady diffusion problem -(a u')' = 1 with a smooth
  log-uniform random coefficient field, inputs (mu1, ..., mud), solved by
  second-order finite differences on a coarse (low-fidelity) and a fine
  (high-fidelity) grid. The QoI is the flux a u' sampled at the grid nodes,
  so the two fidelities have different output dimensions.

Both problems are fixed: the beam's geometry, load and material ranges and
the diffusion field's amplitude and decay are class constants of the
configs, which set only the grid sizes and the diffusion mode count. All
generators are deterministic functions of (seed, config).
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, NumericalError, OutOfBounds
from .snapshots import SnapshotMatrix

__all__ = [
    "BeamConfig",
    "DiffusionConfig",
    "draw_beam_samples",
    "beam_pair",
    "draw_diffusion_samples",
    "diffusion_pair",
]

#: Samples per elimination sweep of :func:`diffusion_pair`. The sweep's
#: Python loop runs once per block, and a block holds a few (nodes x block)
#: temporaries, so memory stays flat in the sample count.
SOLVE_BLOCK = 128


# no return annotation: np.random.Generator would import numpy.random
# (about 11 ms) whenever this module is imported, in every cold command
def _rng(n: int, seed: int):
    """The generator of a draw of n samples; n and the seed are checked
    first, so a bad one is a :class:`DimensionMismatch`."""
    if n < 1:
        raise DimensionMismatch("need at least one sample")
    if seed < 0:
        raise DimensionMismatch(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _check_inputs(samples, prefix: str, names: tuple[str, ...],
                  ranges) -> tuple[np.ndarray, tuple[str, ...]]:
    """``samples`` as an (n, d) float array, with the ids ``prefix-0000``, ...
    of its rows.

    It needs n >= 1 rows and d = len(names) columns, and each column j
    inside the closed range ``ranges[j]``; NaN lies outside every range.
    """
    mu = np.asarray(samples, dtype=np.float64)
    if mu.ndim != 2 or mu.shape[0] < 1 or mu.shape[1] != len(names):
        raise DimensionMismatch(
            f"expected an (n, {len(names)}) input array with n >= 1, got shape {mu.shape}"
        )
    lo, hi = np.array(ranges).T
    outside = ~((lo <= mu) & (mu <= hi))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise OutOfBounds(f"sample {prefix}-{i:04d}: {names[j]}={mu[i, j]} "
                          f"outside [{ranges[j][0]}, {ranges[j][1]}]")
    return mu, tuple(f"{prefix}-{i:04d}" for i in range(mu.shape[0]))


# --------------------------------------------------------------------------
# composite cantilever beam
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamConfig:
    """The composite beam: fixed geometry, load and material ranges, and the
    number of output points.

    The cross section stacks a bottom flange (h2), a web (h3) and a top
    flange (h1), all of width ``width``; the web carries five circular
    holes of radius ``hole_radius`` centred at ``hole_centers`` along the
    span. Inputs mu = (q, E1, E2, E3) are uniform over the given ranges.
    Only ``n_grid`` is set per study; the rest are class constants.
    """

    length: ClassVar[float] = 50.0
    h1: ClassVar[float] = 0.1
    h2: ClassVar[float] = 0.1
    h3: ClassVar[float] = 5.0
    width: ClassVar[float] = 1.0
    hole_radius: ClassVar[float] = 1.5
    hole_centers: ClassVar[tuple[float, ...]] = (5.0, 15.0, 25.0, 35.0, 45.0)
    q_range: ClassVar[tuple[float, float]] = (9.0, 11.0)
    e1_range: ClassVar[tuple[float, float]] = (0.9e6, 1.1e6)
    e2_range: ClassVar[tuple[float, float]] = (0.9e6, 1.1e6)
    e3_range: ClassVar[tuple[float, float]] = (0.9e4, 1.1e4)
    poisson: ClassVar[float] = 0.3
    shear_coefficient: ClassVar[float] = 5.0 / 6.0
    n_grid: int = 128

    def __post_init__(self):
        if self.n_grid < 2:
            raise DimensionMismatch("n_grid must be at least 2")

    def _web_height_effective(self) -> float:
        # hole area smeared uniformly over the span
        holes = len(self.hole_centers) * math.pi * self.hole_radius**2
        return self.h3 - holes / self.length


def beam_grid(cfg: BeamConfig) -> np.ndarray:
    """Top-cord output points, uniform over [0, length]."""
    return np.linspace(0.0, cfg.length, cfg.n_grid)


def draw_beam_samples(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform input rows (q, E1, E2, E3), deterministically: an
    (n, 4) array."""
    rng = _rng(n, seed)
    ranges = (BeamConfig.q_range, BeamConfig.e1_range, BeamConfig.e2_range,
              BeamConfig.e3_range)
    return np.column_stack([rng.uniform(lo, hi, size=n) for lo, hi in ranges])


def beam_pair(
    samples: np.ndarray, cfg: BeamConfig | None = None
) -> tuple[SnapshotMatrix, SnapshotMatrix]:
    """(high, low) displacements of the top cord for the (n, 4) input rows
    (q, E1, E2, E3); column i is sample ``beam-%04d`` % i in both.

    Low fidelity, beam theory: u(x) = -(q L^4 / 24 E I) ((x/L)^4 - 4 (x/L)^3
    + 6 (x/L)^2) with E = E3 and I the second moment of the equivalent
    single-material section, whose flange widths are scaled by E1/E3 and
    E2/E3 and whose moment is taken about the centroid of the
    three-rectangle stack. Every realization is one shape scaled by
    q / (E3 I).

    High fidelity, a substitute for a shear-resolving solver: u plus the
    shear strain of a cantilever under a uniform load integrated along the
    span, -q (L x - x^2 / 2) / (kappa G A), with G derived from E3 and the
    web shear area A reduced by the five holes (smeared over the span).
    Every input must lie inside its range (:class:`OutOfBounds`).
    """
    cfg = cfg or BeamConfig()
    mu, ids = _check_inputs(samples, "beam", ("q", "E1", "E2", "E3"),
                            (cfg.q_range, cfg.e1_range, cfg.e2_range, cfg.e3_range))
    q, e1, e2, e3 = mu.T
    # (width, height, centroid height measured from the section bottom)
    pieces = (
        (e2 / e3 * cfg.width, cfg.h2, 0.5 * cfg.h2),
        (cfg.width, cfg.h3, cfg.h2 + 0.5 * cfg.h3),
        (e1 / e3 * cfg.width, cfg.h1, cfg.h2 + cfg.h3 + 0.5 * cfg.h1),
    )
    area = sum(b * h for b, h, _ in pieces)
    centroid = sum(b * h * y for b, h, y in pieces) / area
    # float_power calls libm pow, as Python's float ** 2 does, and so keeps
    # the bits of the scalar formulas (tests/oracles.py): numpy's ** 2 is a
    # multiply, and pow differs from it in the last bit on some inputs, such
    # as 2 of the 3000 samples of seed 1
    inertia = sum(b * h**3 / 12.0 + b * h * np.float_power(y - centroid, 2.0)
                  for b, h, y in pieces)

    x = beam_grid(cfg)
    xi = x / cfg.length
    shape = xi**4 - 4.0 * xi**3 + 6.0 * xi**2
    low = np.outer(shape, -(q * cfg.length**4 / (24.0 * e3 * inertia)))
    shear_modulus = e3 / (2.0 * (1.0 + cfg.poisson))
    shear_area = cfg.width * cfg._web_height_effective()
    # (-q s) / (kappa G A), in this order: s times -q / (kappa G A) rounds
    # differently
    correction = (np.outer(cfg.length * x - 0.5 * x**2, -q)
                  / (cfg.shear_coefficient * shear_modulus * shear_area))
    return SnapshotMatrix._adopt(low + correction, ids), SnapshotMatrix._adopt(low, ids)


# --------------------------------------------------------------------------
# 1-D parametric diffusion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionConfig:
    """Two-grid setup for the steady diffusion pair.

    The log-coefficient is a sine expansion log a(x) = sum_i c_i mu_i
    sin(i pi x) with amplitudes c_i = field_amplitude * field_decay^(i-1),
    fixed at 1 and 0.5, and mu_i uniform on [-1, 1]; d_params modes are
    used. ``mesh_low`` and ``mesh_high`` count grid nodes including both
    boundaries.

    The coefficient of a sample spans at most exp(2 sum_i c_i) <
    exp(4) < 55 for any d_params, far from the span of about 1e16 where
    the discrete flux becomes rounding noise.
    """

    field_amplitude: ClassVar[float] = 1.0
    field_decay: ClassVar[float] = 0.5
    mesh_low: int = 16
    mesh_high: int = 256
    d_params: int = 5

    def __post_init__(self):
        if self.mesh_low < 3 or self.mesh_high < 3:
            raise DimensionMismatch("meshes need at least 3 nodes")
        if self.mesh_low > self.mesh_high:
            raise DimensionMismatch("mesh_low must not exceed mesh_high")
        if self.d_params < 1:
            raise DimensionMismatch("d_params must be >= 1")


def _coefficients(basis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """a = exp(basis @ w) for each row w of ``weights``, one column per row.

    One gemv per sample: a gemm over the block would round differently.
    """
    return np.exp(np.stack([basis @ w for w in weights], axis=1))


def _solve_flux(weights: np.ndarray, x: np.ndarray, half_basis: np.ndarray,
                node_basis: np.ndarray) -> np.ndarray:
    """Solve -(a u')' = 1 on the grid ``x`` of [0, 1], u(0) = u(1) = 0, and
    return the flux a u', one column per row of mode weights c_i mu_i.

    Flux-form second-order differences with the coefficient at half nodes;
    the flux uses central differences inside and second-order one-sided
    stencils at the boundaries, so a constant coefficient reproduces the
    exact linear flux (1 - 2x)/2 to roundoff.

    The tridiagonal system is solved for all columns at once by LAPACK
    gtsv's elimination without row interchanges and its back-substitution.
    The matrix is diagonally dominant, so gtsv swaps no rows on it and the
    sweep gives its bits, unless the coefficient spans more than about
    1e16 and rounding decides; a pivot that is not positive raises
    :class:`NumericalError`.
    """
    h = x[1] - x[0]
    a_half = _coefficients(half_basis, weights)
    if np.any(a_half <= 0.0):
        raise NumericalError("diffusion coefficient must be positive")
    off = -(a_half[1:-1] / h**2)  # sub- and super-diagonal
    piv = (a_half[:-1] + a_half[1:]) / h**2  # the diagonal, then the pivots
    if not np.all(np.isfinite(piv)):
        raise NumericalError("tridiagonal solve failed: the matrix holds infs or NaNs")

    u = np.zeros((x.size, weights.shape[0]))
    b = u[1:-1]  # right-hand side, then the interior solution
    b[:] = 1.0
    with np.errstate(all="ignore"):  # a bad pivot is reported below
        for i in range(len(b) - 1):
            fact = off[i] / piv[i]
            piv[i + 1] -= fact * off[i]
            b[i + 1] -= fact * b[i]
    if not np.all(piv > 0.0):
        raise NumericalError("tridiagonal solve failed: a pivot is not positive")
    b[-1] /= piv[-1]
    for i in range(len(b) - 2, -1, -1):
        b[i] -= off[i] * b[i + 1]
        b[i] /= piv[i]

    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return _coefficients(node_basis, weights) * du


def draw_diffusion_samples(
    n: int, seed: int, cfg: DiffusionConfig | None = None
) -> np.ndarray:
    """n i.i.d. uniform samples on [-1, 1]^d_params, deterministically: an
    (n, d_params) array."""
    cfg = cfg or DiffusionConfig()
    return _rng(n, seed).uniform(-1.0, 1.0, size=(n, cfg.d_params))


def diffusion_pair(
    samples: np.ndarray, cfg: DiffusionConfig | None = None
) -> tuple[SnapshotMatrix, SnapshotMatrix]:
    """(high, low) flux snapshot matrices on the fine and coarse grids for
    the (n, d_params) input rows (mu1, ..., mud), each on [-1, 1]
    (:class:`OutOfBounds`); column i is sample ``diff-%04d`` % i in both.

    Row mu gives the mode weights c_i mu_i of log a(x) (see
    :class:`DiffusionConfig`), and :func:`_solve_flux` solves
    ``SOLVE_BLOCK`` samples at a time on each grid.
    """
    cfg = cfg or DiffusionConfig()
    modes = np.arange(1, cfg.d_params + 1)
    mu, ids = _check_inputs(samples, "diff", tuple(f"mu{i}" for i in modes),
                            ((-1.0, 1.0),) * cfg.d_params)
    weights = cfg.field_amplitude * cfg.field_decay ** (modes - 1) * mu
    fluxes = []
    for n_nodes in (cfg.mesh_high, cfg.mesh_low):
        x = np.linspace(0.0, 1.0, n_nodes)
        half_basis = np.sin(np.pi * np.outer(0.5 * (x[:-1] + x[1:]), modes))
        node_basis = np.sin(np.pi * np.outer(x, modes))
        # column-major, as a BFSM file holds it: a block of samples is one
        # contiguous stretch, and writing the matrix needs no transposed copy
        flux = np.empty((n_nodes, mu.shape[0]), order="F")
        for start in range(0, mu.shape[0], SOLVE_BLOCK):
            block = slice(start, start + SOLVE_BLOCK)
            flux[:, block] = _solve_flux(weights[block], x, half_basis, node_basis)
        fluxes.append(SnapshotMatrix._adopt(flux, ids))
    return fluxes[0], fluxes[1]
