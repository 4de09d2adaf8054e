"""Snapshot matrices: one QoI column per parameter sample.

High- and low-fidelity ensembles of the same study share sample identifiers;
every pairing of columns across fidelities goes through those ids rather than
positional convention, so misaligned files fail loudly instead of silently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import _as_matrix

__all__ = ["SnapshotMatrix", "aligned_sample_ids"]


@dataclass(frozen=True)
class SnapshotMatrix:
    """A dim x n_samples matrix of QoI vectors plus per-column sample ids.

    ``data`` is read-only and held by no one who can write it: the
    constructor copies every array it is given (in C order).
    """

    data: np.ndarray
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        self._settle(adopt=False)

    @classmethod
    def _adopt(cls, data: np.ndarray, sample_ids) -> "SnapshotMatrix":
        """Wrap an array the package has just built and no one else holds,
        without a copy; the array becomes read-only."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "data", data)
        object.__setattr__(matrix, "sample_ids", sample_ids)
        matrix._settle(adopt=True)
        return matrix

    def _settle(self, adopt: bool) -> None:
        # no columns is legal: the high-fidelity skeleton of a rank-0 rule
        d = _as_matrix(self.data, "snapshot data", allow_no_columns=True)
        ids = _sample_ids(self.sample_ids, d.shape[1])
        if not adopt:
            d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "sample_ids", ids)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def _sample_ids(sample_ids, n: int) -> tuple[str, ...]:
    """``sample_ids`` as a tuple of str; :class:`DimensionMismatch` unless
    they are n distinct ids."""
    ids = tuple(str(s) for s in sample_ids)
    if len(ids) != n:
        raise DimensionMismatch(f"{len(ids)} sample ids for {n} columns")
    if len(set(ids)) != n:
        raise DimensionMismatch("sample ids must be distinct")
    return ids


def _positional_ids(n: int) -> tuple[str, ...]:
    """The ids ``col-000000, ...`` of n columns that come without ids."""
    return tuple(f"col-{j:06d}" for j in range(n))


def aligned_sample_ids(high: SnapshotMatrix, low: SnapshotMatrix) -> None:
    """Raise :class:`DimensionMismatch` unless both matrices share the same
    sample ids in the same column order."""
    if high.n_samples != low.n_samples:
        raise DimensionMismatch(
            f"sample counts differ: {high.n_samples} vs {low.n_samples}"
        )
    if high.sample_ids != low.sample_ids:
        raise DimensionMismatch("sample ids are not aligned between ensembles")
