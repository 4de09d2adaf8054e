"""Interpolative decomposition of a snapshot matrix.

A rank-r interpolative decomposition approximates L by r of its own columns
(the column skeleton) times a coefficient matrix that carries an exact r x r
identity block on the selected columns:

    L  ~=  L(:, selected) @ C,      C[:, selected] = I.

Column selection is greedy max-residual-norm QR pivoting; the coefficient
block Z solves R11 Z = R12 from the pivoted QR factors by one back
substitution, as in the standard ID (Cheng, Gimbutas, Martinsson & Rokhlin
2005), whatever the condition of R11: the residual of a rank-r ID is then
the trailing QR block, which is what tolerance mode certifies.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ToleranceUnreachable
from .linalg import _as_matrix, pivoted_qr, spectral_norm
from .snapshots import SnapshotMatrix

__all__ = ["InterpDecomposition", "build_id"]


@dataclass(frozen=True)
class InterpDecomposition:
    """Result of :func:`build_id`.

    ``selected`` are the skeleton column indices into the source matrix;
    ``skeleton`` holds those columns verbatim; ``coeffs`` is the r x N
    coefficient matrix; ``residual_norm`` is the spectral norm of the
    reconstruction error, recomputed directly at build time. The rank is
    the number of selected columns.
    """

    selected: tuple[int, ...]
    skeleton: np.ndarray
    coeffs: np.ndarray
    residual_norm: float

    def __post_init__(self):
        sel = tuple(int(j) for j in self.selected)
        skel = np.asarray(self.skeleton, dtype=np.float64)
        cf = np.asarray(self.coeffs, dtype=np.float64)
        if len(set(sel)) != len(sel):
            raise DimensionMismatch("selected column indices must be distinct")
        if skel.ndim != 2 or skel.shape[1] != len(sel):
            raise DimensionMismatch("skeleton must have one column per selected index")
        if cf.ndim != 2 or cf.shape[0] != len(sel):
            raise DimensionMismatch("coeffs must have one row per selected index")
        if any(j < 0 or j >= cf.shape[1] for j in sel):
            raise DimensionMismatch("selected column index out of range")
        if sel and not np.allclose(
            cf[:, list(sel)], np.eye(len(sel)), rtol=0.0, atol=1e-12
        ):
            raise DimensionMismatch("coeffs must carry an identity block on selected columns")
        skel = skel.copy()
        cf = cf.copy()
        skel.flags.writeable = False
        cf.flags.writeable = False
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "skeleton", skel)
        object.__setattr__(self, "coeffs", cf)
        object.__setattr__(self, "residual_norm", float(self.residual_norm))

    @property
    def rank(self) -> int:
        return len(self.selected)

    @property
    def n_samples(self) -> int:
        return self.coeffs.shape[1]

    def coeff_norm(self) -> float:
        """Spectral norm of the coefficient matrix (0.0 at rank 0)."""
        return spectral_norm(self.coeffs) if self.rank else 0.0


def _solve_coefficient_block(r11: np.ndarray, r12: np.ndarray) -> np.ndarray:
    """Solve R11 Z = R12 for an upper-triangular R11 with a nonzero diagonal.

    Partial pivoting swaps nothing on such an R11, so the LU leaves it
    unchanged and the solve is one back substitution. :func:`pivoted_qr`
    stops before a pivot whose diagonal entry would be 0 or subnormal, so
    every diagonal entry of an ID's R11 has a finite reciprocal.
    """
    return np.linalg.solve(r11, r12)


def _assemble(low: np.ndarray, perm: np.ndarray, r_factor: np.ndarray, rank: int):
    """Build (selected, skeleton, coeffs, residual) for a given truncation rank."""
    n = low.shape[1]
    selected = tuple(int(j) for j in perm[:rank])
    z = _solve_coefficient_block(r_factor[:rank, :rank], r_factor[:rank, rank:])
    coeffs = np.zeros((rank, n))
    coeffs[np.arange(rank), list(selected)] = 1.0
    coeffs[:, perm[rank:]] = z
    skeleton = low[:, list(selected)]
    # low - skeleton @ coeffs in the buffer of the product: one temporary of
    # the size of low, whatever its layout; with every column selected coeffs
    # is an exact permuted identity and the residual exactly zero
    product = skeleton @ coeffs
    residual = spectral_norm(np.subtract(low, product, out=product))
    return selected, skeleton, coeffs, residual


def build_id(low, *, rank: int | None = None, tol: float | None = None) -> InterpDecomposition:
    """Build the interpolative decomposition of ``low``.

    Exactly one of ``rank`` (fixed rank) or ``tol`` (smallest rank r >= 1
    whose recomputed reconstruction residual, measured in the spectral norm,
    is <= tol) must be given. In tolerance mode :func:`pivoted_qr` stops at
    the first rank whose trailing block meets tol; with the coefficients
    from back substitution that block is the ID's residual, so the rank is
    the one the QR certified, and the next rank is taken only when the
    recomputed residual misses tol by roundoff. A tolerance-mode result is
    bitwise equal to the fixed-rank result at the rank it chose. ``low`` may
    be a :class:`SnapshotMatrix` or a plain array.

    Raises :class:`ToleranceUnreachable` when even the full-rank
    decomposition cannot meet ``tol``.
    """
    data = low.data if isinstance(low, SnapshotMatrix) else _as_matrix(low, "L")
    # pivoted_qr checks the mode and its parameter; in tolerance mode it stops
    # at the first rank whose trailing block, which is the ID residual, meets
    # tol, and the residual is recomputed directly below
    _, r_factor, perm, rank = pivoted_qr(data, rank=rank, tol=tol)
    if rank == 0 and data.any():
        # the empty decomposition is kept only for the all-zero matrix
        _, r_factor, perm, rank = pivoted_qr(data, rank=1)
    selected, skeleton, coeffs, residual = _assemble(data, perm, r_factor, rank)
    if tol is not None:
        # roundoff ties: step on until the recomputed residual meets tol
        while residual > tol:
            got = rank
            if rank < min(data.shape):
                _, r_factor, perm, got = pivoted_qr(data, rank=rank + 1)
            if got == rank:  # no further pivot, or a trailing block of zeros
                raise ToleranceUnreachable(
                    f"tolerance {tol:g} below the achievable residual "
                    f"{residual:g} at rank {rank}"
                )
            rank = got
            selected, skeleton, coeffs, residual = _assemble(data, perm, r_factor, rank)
    return InterpDecomposition(
        selected=selected,
        skeleton=skeleton,
        coeffs=coeffs,
        residual_norm=residual,
    )
