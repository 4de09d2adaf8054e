"""Built-in parametric model pairs producing aligned snapshot ensembles.

Two desk-scale studies are bundled:

* A composite cantilever beam under a uniform load. The low-fidelity model
  is the classical beam-theory displacement of an equivalent single-material
  section, which makes every realization a scalar multiple of one shape
  (a rank-1 ensemble). The high-fidelity side is a *substitute* for a
  shear-resolving solver: the same displacement plus an analytic
  shear-compliance correction whose web area is reduced by the five holes.
  It is deliberately imperfect-but-correlated, not a reference solution.

* A one-dimensional steady diffusion problem -(a u')' = 1 with a smooth
  log-uniform random coefficient field, solved by second-order finite
  differences on a coarse (low-fidelity) and a fine (high-fidelity) grid.
  The QoI is the flux a u' sampled at the grid nodes, so the two fidelities
  have different output dimensions.

Both problems are fixed: the beam's geometry, load and material ranges and
the diffusion field's amplitude and decay are class constants of the
configs, which set only the grid sizes and the diffusion mode count. All
generators are deterministic functions of (seed, config).
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, OutOfBounds, SolverFailure
from .snapshots import SnapshotMatrix

__all__ = [
    "ParameterSample",
    "BeamConfig",
    "DiffusionConfig",
    "draw_beam_samples",
    "beam_lofi",
    "beam_hifi_substitute",
    "beam_pair",
    "draw_diffusion_samples",
    "diffusion_pair",
]

#: Samples per elimination sweep of :func:`diffusion_pair`. The sweep's
#: Python loop runs once per block, and a block holds a few (nodes x block)
#: temporaries, so memory stays flat in the sample count.
SOLVE_BLOCK = 128


@dataclass(frozen=True)
class ParameterSample:
    """One random-input realization: an opaque id plus the input vector."""

    id: str
    mu: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mu, dtype=np.float64)
        if m.ndim != 1 or m.size == 0:
            raise DimensionMismatch("mu must be a non-empty 1-D vector")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mu", m)
        object.__setattr__(self, "id", str(self.id))


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


def _check_beam_mu(sample: ParameterSample, cfg: BeamConfig):
    mu = sample.mu
    if mu.size != 4:
        raise DimensionMismatch(f"beam inputs are (q, E1, E2, E3), got {mu.size} values")
    ranges = (cfg.q_range, cfg.e1_range, cfg.e2_range, cfg.e3_range)
    names = ("q", "E1", "E2", "E3")
    for name, value, (lo, hi) in zip(names, mu, ranges):
        if not lo <= value <= hi:
            raise OutOfBounds(
                f"sample {sample.id}: {name}={value} outside [{lo}, {hi}]"
            )
    return float(mu[0]), float(mu[1]), float(mu[2]), float(mu[3])


def _section_inertia(e1: float, e2: float, e3: float, cfg: BeamConfig) -> float:
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


def beam_grid(cfg: BeamConfig) -> np.ndarray:
    """Top-cord output points, uniform over [0, length]."""
    return np.linspace(0.0, cfg.length, cfg.n_grid)


def beam_lofi(sample: ParameterSample, cfg: BeamConfig) -> np.ndarray:
    """Beam-theory vertical displacement of the top cord.

    u(x) = -(q L^4 / 24 E I) ((x/L)^4 - 4 (x/L)^3 + 6 (x/L)^2) with E = E3
    and I the equivalent-section inertia; every realization is the same
    shape scaled by q / (E3 I).
    """
    q, e1, e2, e3 = _check_beam_mu(sample, cfg)
    inertia = _section_inertia(e1, e2, e3, cfg)
    xi = beam_grid(cfg) / cfg.length
    shape = xi**4 - 4.0 * xi**3 + 6.0 * xi**2
    return -(q * cfg.length**4 / (24.0 * e3 * inertia)) * shape


def beam_hifi_substitute(sample: ParameterSample, cfg: BeamConfig) -> np.ndarray:
    """Displacement with an added shear-compliance correction.

    The correction integrates the shear strain of a cantilever under a
    uniform load, q (L x - x^2 / 2) / (kappa G A), with the web shear area
    reduced by the five holes (smeared over the span) and G derived from E3.
    This is a stand-in for a shear-resolving solver, not a reference solution.
    """
    q, e1, e2, e3 = _check_beam_mu(sample, cfg)
    del e1, e2
    u = beam_lofi(sample, cfg)
    x = beam_grid(cfg)
    shear_modulus = e3 / (2.0 * (1.0 + cfg.poisson))
    shear_area = cfg.width * cfg._web_height_effective()
    correction = (
        -q * (cfg.length * x - 0.5 * x**2)
        / (cfg.shear_coefficient * shear_modulus * shear_area)
    )
    return u + correction


def draw_beam_samples(n: int, seed: int) -> list[ParameterSample]:
    """n i.i.d. uniform input samples (q, E1, E2, E3), deterministically."""
    if n < 1:
        raise DimensionMismatch("need at least one sample")
    rng = np.random.default_rng(seed)
    ranges = (BeamConfig.q_range, BeamConfig.e1_range, BeamConfig.e2_range,
              BeamConfig.e3_range)
    draws = np.column_stack(
        [rng.uniform(lo, hi, size=n) for lo, hi in ranges]
    )
    return [
        ParameterSample(id=f"beam-{i:04d}", mu=draws[i]) for i in range(n)
    ]


def beam_pair(
    samples: list[ParameterSample], cfg: BeamConfig | None = None
) -> tuple[SnapshotMatrix, SnapshotMatrix]:
    """(high, low) snapshot matrices for the same samples, id-aligned."""
    cfg = cfg or BeamConfig()
    ids = tuple(s.id for s in samples)
    high = np.column_stack([beam_hifi_substitute(s, cfg) for s in samples])
    low = np.column_stack([beam_lofi(s, cfg) for s in samples])
    return SnapshotMatrix._adopt(high, ids), SnapshotMatrix._adopt(low, ids)


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


def _check_diffusion_mu(sample: ParameterSample, cfg: DiffusionConfig) -> np.ndarray:
    mu = sample.mu
    if mu.size != cfg.d_params:
        raise DimensionMismatch(
            f"sample {sample.id}: expected {cfg.d_params} inputs, got {mu.size}"
        )
    if np.any(np.abs(mu) > 1.0):
        raise OutOfBounds(f"sample {sample.id}: inputs must lie in [-1, 1]")
    return mu


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
    :class:`SolverFailure`.
    """
    h = x[1] - x[0]
    a_half = _coefficients(half_basis, weights)
    if np.any(a_half <= 0.0):
        raise SolverFailure("diffusion coefficient must be positive")
    off = -(a_half[1:-1] / h**2)  # sub- and super-diagonal
    piv = (a_half[:-1] + a_half[1:]) / h**2  # the diagonal, then the pivots
    if not np.all(np.isfinite(piv)):
        raise SolverFailure("tridiagonal solve failed: the matrix holds infs or NaNs")

    u = np.zeros((x.size, weights.shape[0]))
    b = u[1:-1]  # right-hand side, then the interior solution
    b[:] = 1.0
    with np.errstate(all="ignore"):  # a bad pivot is reported below
        for i in range(len(b) - 1):
            fact = off[i] / piv[i]
            piv[i + 1] -= fact * off[i]
            b[i + 1] -= fact * b[i]
    if not np.all(piv > 0.0):
        raise SolverFailure("tridiagonal solve failed: a pivot is not positive")
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
) -> list[ParameterSample]:
    """n i.i.d. uniform samples on [-1, 1]^d_params, deterministically."""
    cfg = cfg or DiffusionConfig()
    if n < 1:
        raise DimensionMismatch("need at least one sample")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-1.0, 1.0, size=(n, cfg.d_params))
    return [
        ParameterSample(id=f"diff-{i:04d}", mu=draws[i]) for i in range(n)
    ]


def diffusion_pair(
    samples: list[ParameterSample], cfg: DiffusionConfig | None = None
) -> tuple[SnapshotMatrix, SnapshotMatrix]:
    """(high, low) flux snapshot matrices on the fine and coarse grids."""
    cfg = cfg or DiffusionConfig()
    ids = tuple(s.id for s in samples)
    modes = np.arange(1, cfg.d_params + 1)
    amps = cfg.field_amplitude * cfg.field_decay ** (modes - 1)
    weights = np.array([amps * _check_diffusion_mu(s, cfg) for s in samples])
    fluxes = []
    for n_nodes in (cfg.mesh_high, cfg.mesh_low):
        x = np.linspace(0.0, 1.0, n_nodes)
        half_basis = np.sin(np.pi * np.outer(0.5 * (x[:-1] + x[1:]), modes))
        node_basis = np.sin(np.pi * np.outer(x, modes))
        # column-major, as a BFSM file holds it: a block of samples is one
        # contiguous stretch, and writing the matrix needs no transposed copy
        flux = np.empty((n_nodes, len(samples)), order="F")
        for start in range(0, len(samples), SOLVE_BLOCK):
            block = slice(start, start + SOLVE_BLOCK)
            flux[:, block] = _solve_flux(weights[block], x, half_basis, node_basis)
        fluxes.append(SnapshotMatrix._adopt(flux, ids))
    return fluxes[0], fluxes[1]
