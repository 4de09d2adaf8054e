"""Snapshot matrices: one QoI column per parameter sample.

High- and low-fidelity ensembles of the same study share sample identifiers;
every pairing of columns across fidelities goes through those ids rather than
positional convention, so misaligned files fail loudly instead of silently.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, SampleMismatch
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
        ids = tuple(str(s) for s in self.sample_ids)
        if len(ids) != d.shape[1]:
            raise DimensionMismatch(
                f"{len(ids)} sample ids for {d.shape[1]} columns"
            )
        if len(set(ids)) != len(ids):
            raise DimensionMismatch("sample ids must be distinct")
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

    @classmethod
    def from_array(cls, data, sample_ids: Sequence[str] | None = None) -> "SnapshotMatrix":
        """Wrap an array; ids default to positional ``col-000000`` style."""
        d = np.asarray(data, dtype=np.float64)
        if sample_ids is None:
            n = d.shape[1] if d.ndim == 2 else 0
            sample_ids = tuple(f"col-{j:06d}" for j in range(n))
        return cls(data=d, sample_ids=tuple(sample_ids))

    def columns(self, indices) -> "SnapshotMatrix":
        """Sub-matrix of the given columns, keeping their ids."""
        idx = list(indices)
        # a list index gathers into a new array
        return SnapshotMatrix._adopt(self.data[:, idx],
                                     tuple(self.sample_ids[j] for j in idx))


def aligned_sample_ids(high: SnapshotMatrix, low: SnapshotMatrix) -> None:
    """Raise :class:`SampleMismatch` unless both matrices share the same
    sample ids in the same column order."""
    if high.n_samples != low.n_samples:
        raise SampleMismatch(
            f"sample counts differ: {high.n_samples} vs {low.n_samples}"
        )
    if high.sample_ids != low.sample_ids:
        raise SampleMismatch("sample ids are not aligned between ensembles")
