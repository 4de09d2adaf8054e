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
    epsilon_exact,
    minimize_bound,
    minimize_bound_two_tau,
    refine_tau_grid,
    rho,
    tau_grid,
    write_bound_report,
)
from .interp import InterpDecomposition, build_id, reconstruct
from .lifting import (
    BiFidelityModel,
    evaluate_all,
    evaluate_one,
    fit_coefficients,
    lift,
    required_samples,
)
from .linalg import (
    SingularSpectrum,
    lambda_max_symmetric,
    pivoted_qr,
    pseudo_inverse,
    singular_values,
    spectral_norm,
    svd,
)
from .snapshots import SnapshotMatrix

__version__ = "0.1.0"

__all__ = [
    "BiFidelityModel",
    "BoundReport",
    "EfficacyResult",
    "GramianPair",
    "InterpDecomposition",
    "SingularSpectrum",
    "SnapshotMatrix",
    "build_id",
    "default_tau_grid",
    "efficacy_study",
    "epsilon_estimated",
    "epsilon_exact",
    "evaluate_all",
    "evaluate_one",
    "fit_coefficients",
    "lambda_max_symmetric",
    "lift",
    "minimize_bound",
    "minimize_bound_two_tau",
    "pivoted_qr",
    "pseudo_inverse",
    "reconstruct",
    "refine_tau_grid",
    "required_samples",
    "rho",
    "singular_values",
    "spectral_norm",
    "svd",
    "tau_grid",
    "write_bound_report",
]
