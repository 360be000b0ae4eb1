"""Geometry of norms on R^n: spheres, charts, and derivative reconstruction.

The package turns one equivalence into executable checks: a norm is
continuously differentiable away from the origin exactly when its unit
sphere is a smooth hypersurface. Norm families live in ``norms``, the
chart and projection machinery in ``charts``, sample-based derivative
reconstruction in ``geometric``, and the command-line front end in
``cli``. Every object is an immutable value and every operation is pure,
so concurrent use needs no locking.

``cli`` (with ``argparse`` and ``jsonschema``) loads on first use of one
of its names, so importing the library does not pay for the front end.
"""

__version__ = "0.1.0"

from .errors import (ChartDomainError, ConvergenceError, DecompositionError,
                     EstimationError, GeometryError, NonManifoldSuspected,
                     NotDifferentiableError)
from .norms import (CLASSIFY_TOL, DEFAULT_STEP_SEQUENCE, TIE_REL_TOL,
                    GradientFunctional, L1Norm, LInfNorm, LpNorm, NormSpec,
                    PolyhedralNorm, ProductMaxNorm, QuadraticNorm,
                    SmoothnessVerdict, Vector, analytic_gradient, as_vector,
                    classify_point, eval_norm, fd_gradient,
                    one_sided_derivative, product_embed, product_norm_constants,
                    product_split, spec_from_dict, spec_to_dict)
from .charts import (AlphaOperator, Chart, ChartImageReport, ProbeRow, TangentFrame,
                     alpha_operator, build_chart, chart_forward, chart_inverse,
                     projection_continuity_probe, scale_chart,
                     sphere_chart_image_check, tangent_frame)
from .geometric import (EstimatedTangent, ExpansionReport, ExpansionRow,
                        RoundtripReport, directional_expansion_check,
                        equivalence_roundtrip, estimate_tangent, geometric_gradient)

#: Names re-exported from ``cli``, resolved on first access (PEP 562).
_CLI_NAMES = frozenset({"AnalysisRequest", "Report", "emit_plot_data", "run_cli",
                        "run_request"})


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # errors
    "GeometryError", "NotDifferentiableError", "ConvergenceError",
    "EstimationError", "NonManifoldSuspected", "ChartDomainError",
    "DecompositionError",
    # norms
    "Vector", "NormSpec", "LpNorm", "L1Norm", "LInfNorm", "QuadraticNorm",
    "PolyhedralNorm", "ProductMaxNorm", "GradientFunctional",
    "SmoothnessVerdict", "as_vector", "eval_norm", "analytic_gradient",
    "fd_gradient", "one_sided_derivative", "classify_point", "product_embed",
    "product_split", "product_norm_constants", "spec_from_dict", "spec_to_dict",
    "CLASSIFY_TOL", "TIE_REL_TOL", "DEFAULT_STEP_SEQUENCE",
    # charts
    "TangentFrame", "Chart", "ChartImageReport", "ProbeRow", "AlphaOperator",
    "tangent_frame", "build_chart", "chart_forward", "chart_inverse",
    "sphere_chart_image_check", "scale_chart", "alpha_operator",
    "projection_continuity_probe",
    # geometric
    "EstimatedTangent", "ExpansionRow", "ExpansionReport", "RoundtripReport",
    "estimate_tangent", "geometric_gradient", "directional_expansion_check",
    "equivalence_roundtrip",
    # cli
    "AnalysisRequest", "Report", "run_request", "run_cli", "emit_plot_data",
]
