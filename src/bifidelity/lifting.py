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
from .snapshots import _sample_ids

__all__ = [
    "BiFidelityModel",
    "required_samples",
    "lift",
    "evaluate_all",
]


@dataclass(frozen=True)
class BiFidelityModel:
    """A low-fidelity interpolation rule paired with high-fidelity skeleton
    columns; column j of ``high_skeleton`` corresponds to
    ``decomposition.selected[j]``."""

    decomposition: InterpDecomposition
    high_skeleton: np.ndarray

    def __post_init__(self):
        # a rank-0 rule has no skeleton columns
        skel = _as_matrix(self.high_skeleton, "high_skeleton", allow_no_columns=True)
        if skel.shape[1] != self.decomposition.rank:
            raise DimensionMismatch(
                f"high skeleton has {skel.shape[1]} columns, "
                f"decomposition rank is {self.decomposition.rank}"
            )
        skel = skel.copy()
        skel.flags.writeable = False
        object.__setattr__(self, "high_skeleton", skel)


def required_samples(
    decomposition: InterpDecomposition, sample_ids: Sequence[str]
) -> tuple[str, ...]:
    """Sample identifiers whose high-fidelity runs the lift needs,
    in skeleton column order.

    ``sample_ids`` are the ids of the decomposition's columns: n distinct
    strings for its n columns, or :class:`DimensionMismatch`.
    """
    ids = _sample_ids(sample_ids, decomposition.n_samples)
    return tuple(ids[j] for j in decomposition.selected)


def lift(decomposition: InterpDecomposition, high_skeleton) -> BiFidelityModel:
    """Pair high-fidelity skeleton columns with the low-fidelity rule.

    ``high_skeleton`` must have one column per selected index, in the same
    order as ``decomposition.selected``.
    """
    return BiFidelityModel(decomposition=decomposition, high_skeleton=high_skeleton)


def evaluate_all(model: BiFidelityModel) -> np.ndarray:
    """Bi-fidelity estimates for every sample column (dim x n_samples),
    column-major, as a BFSM payload holds it: writing it needs no copy."""
    rows, cols = model.high_skeleton.shape[0], model.decomposition.n_samples
    # a skeleton without columns holds no entries to bound its row count
    if 8 * rows * cols > np.iinfo(np.intp).max:
        raise DimensionMismatch(
            f"an estimate of {rows} x {cols} exceeds the largest array size")
    try:
        out = np.empty((rows, cols), order="F")
    except MemoryError as exc:
        raise DimensionMismatch(
            f"cannot allocate an estimate of {rows} x {cols}") from exc
    return np.matmul(model.high_skeleton, model.decomposition.coeffs, out=out)
