"""Lifting a low-fidelity interpolation rule to high-fidelity snapshots.

The interpolative decomposition of the low-fidelity ensemble names r columns
worth running at high fidelity. Replacing the low-fidelity skeleton with
those high-fidelity columns while reusing the coefficient matrix yields the
bi-fidelity estimate of the whole high-fidelity ensemble:

    H_hat = H(:, selected) @ C.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .interp import InterpDecomposition
from .linalg import _as_matrix

__all__ = [
    "BiFidelityModel",
    "required_samples",
    "lift",
    "evaluate_all",
    "evaluate_one",
    "fit_coefficients",
]


@dataclass(frozen=True)
class BiFidelityModel:
    """A low-fidelity interpolation rule paired with high-fidelity skeleton
    columns; column j of ``high_skeleton`` corresponds to
    ``decomposition.selected[j]`` and carries ``sample_ids[j]``."""

    decomposition: InterpDecomposition
    high_skeleton: np.ndarray
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        # a rank-0 rule has no skeleton columns
        skel = _as_matrix(self.high_skeleton, "high_skeleton", allow_no_columns=True)
        if skel.shape[1] != self.decomposition.rank:
            raise DimensionMismatch(
                f"high skeleton has {skel.shape[1]} columns, "
                f"decomposition rank is {self.decomposition.rank}"
            )
        ids = tuple(str(s) for s in self.sample_ids)
        if len(ids) != self.decomposition.rank:
            raise DimensionMismatch("one sample id per skeleton column required")
        skel = skel.copy()
        skel.flags.writeable = False
        object.__setattr__(self, "high_skeleton", skel)
        object.__setattr__(self, "sample_ids", ids)

    @property
    def rank(self) -> int:
        return self.decomposition.rank


def required_samples(
    decomposition: InterpDecomposition, sample_ids: Sequence[str]
) -> tuple[str, ...]:
    """Sample identifiers whose high-fidelity runs the lift needs,
    in skeleton column order."""
    ids = tuple(str(s) for s in sample_ids)
    if len(ids) != decomposition.n_samples:
        raise DimensionMismatch(
            f"{len(ids)} sample ids for a decomposition over "
            f"{decomposition.n_samples} columns"
        )
    return tuple(ids[j] for j in decomposition.selected)


def lift(
    decomposition: InterpDecomposition,
    high_skeleton,
    sample_ids: Sequence[str] | None = None,
) -> BiFidelityModel:
    """Pair high-fidelity skeleton columns with the low-fidelity rule.

    ``high_skeleton`` must have one column per selected index, in the same
    order as ``decomposition.selected``.
    """
    skel = _as_matrix(high_skeleton, "high_skeleton", allow_no_columns=True)
    if sample_ids is None:
        sample_ids = tuple(f"sel-{j:06d}" for j in decomposition.selected)
    return BiFidelityModel(
        decomposition=decomposition,
        high_skeleton=skel,
        sample_ids=tuple(sample_ids),
    )


def evaluate_all(model: BiFidelityModel) -> np.ndarray:
    """Bi-fidelity estimates for every sample column (dim x n_samples)."""
    rows, cols = model.high_skeleton.shape[0], model.decomposition.n_samples
    # a skeleton without columns holds no entries to bound its row count
    if 8 * rows * cols > np.iinfo(np.intp).max:
        raise DimensionMismatch(
            f"an estimate of {rows} x {cols} exceeds the largest array size")
    return model.high_skeleton @ model.decomposition.coeffs


def evaluate_one(model: BiFidelityModel, coefficients) -> np.ndarray:
    """Bi-fidelity estimate for a single coefficient vector of length r."""
    c = np.asarray(coefficients, dtype=np.float64)
    if c.ndim != 1 or c.size != model.rank:
        raise DimensionMismatch(
            f"expected {model.rank} coefficients, got shape {c.shape}"
        )
    return model.high_skeleton @ c


def fit_coefficients(decomposition: InterpDecomposition, v_low) -> np.ndarray:
    """Coefficients for an out-of-sample low-fidelity vector.

    Least-squares projection onto the low-fidelity skeleton; for an
    in-sample column this reproduces the stored coefficient column up to
    roundoff.
    """
    v = np.asarray(v_low, dtype=np.float64)
    if v.ndim != 1 or v.size != decomposition.skeleton.shape[0]:
        raise DimensionMismatch(
            f"expected a low-fidelity vector of length "
            f"{decomposition.skeleton.shape[0]}, got shape {v.shape}"
        )
    c, *_ = np.linalg.lstsq(decomposition.skeleton, v, rcond=None)
    return c
