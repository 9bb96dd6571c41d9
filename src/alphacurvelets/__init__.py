"""Anisotropically scaled directional tight frames on periodic grids.

Build a frame with :class:`DigitalCurveletFrame.build`, transform images
with :func:`analyze` / :func:`synthesize`, and reproduce the approximation
experiments through :mod:`alphacurvelets.cli` (``alphacurvelets run ...``).
"""

from .approximation import (
    ErrorCurve,
    RateReport,
    apriori_decay_check,
    bound1_tail_estimator,
    error_curve,
    fit_rate,
    generator_decay_check,
    threshold,
)
from .bessel import (
    bessel_j,
    bessel_j_series,
    disc_spectrum,
    remainder_bound_check,
    wedge_energy_quadrature,
)
from .cartoons import CartoonSpec, render
from .molecules import PhasePoint, consistency_sum, curvelet_parametrization, index_distance
from .tiling import (
    FrameParams,
    TilingLayout,
    build_layout,
    smooth_step,
    verify_partition,
)
from .transform import (
    CoefficientSet,
    DigitalCurveletFrame,
    analyze,
    analyze_direct,
    curvelet_atom,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "FrameParams",
    "TilingLayout",
    "build_layout",
    "smooth_step",
    "verify_partition",
    "DigitalCurveletFrame",
    "CoefficientSet",
    "analyze",
    "synthesize",
    "analyze_direct",
    "curvelet_atom",
    "bessel_j",
    "bessel_j_series",
    "disc_spectrum",
    "wedge_energy_quadrature",
    "remainder_bound_check",
    "CartoonSpec",
    "render",
    "ErrorCurve",
    "RateReport",
    "threshold",
    "error_curve",
    "fit_rate",
    "apriori_decay_check",
    "bound1_tail_estimator",
    "generator_decay_check",
    "PhasePoint",
    "curvelet_parametrization",
    "index_distance",
    "consistency_sum",
    "__version__",
]
