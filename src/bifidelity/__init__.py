"""Non-intrusive bi-fidelity low-rank approximation with a practical
error estimate.

Workflow: build an interpolative decomposition of a cheap low-fidelity
snapshot ensemble (:func:`build_id`), run the expensive model only at the
selected samples (:func:`required_samples`), lift the interpolation rule to
those columns (:func:`lift`), and judge the result with a bound estimate
computed from a handful of sub-sampled high-fidelity columns
(:func:`minimize_bound`, :func:`efficacy_study`).
"""

from .bound import (
    BoundReport,
    EfficacyResult,
    GramianPair,
    default_tau_grid,
    efficacy_study,
    epsilon_estimated,
    minimize_bound,
    tau_grid,
    write_bound_report,
)
from .interp import InterpDecomposition, build_id
from .lifting import BiFidelityModel, evaluate_all, lift, required_samples
from .linalg import pivoted_qr, singular_values, spectral_norm
from .snapshots import SnapshotMatrix

__version__ = "0.1.0"

__all__ = [
    "BiFidelityModel",
    "BoundReport",
    "EfficacyResult",
    "GramianPair",
    "InterpDecomposition",
    "SnapshotMatrix",
    "build_id",
    "default_tau_grid",
    "efficacy_study",
    "epsilon_estimated",
    "evaluate_all",
    "lift",
    "minimize_bound",
    "pivoted_qr",
    "required_samples",
    "singular_values",
    "spectral_norm",
    "tau_grid",
    "write_bound_report",
]
