"""Exception types for the geometric and numerical failure modes."""

from __future__ import annotations


class GeometryError(Exception):
    """Base for failures that witness a geometric obstruction."""


class NotDifferentiableError(GeometryError):
    """The norm has no (two-sided) derivative at the queried point."""


class ConvergenceError(GeometryError):
    """An iterative solve (Newton) failed to converge."""


class EstimationError(GeometryError):
    """A sample-based fit was degenerate."""


class NonManifoldSuspected(EstimationError):
    """Sphere samples are not flat to first order near the base point.

    Raised when the hyperplane-fit residual exceeds ``threshold``, a fixed
    fraction of the sampling radius: the signature of a corner or edge.
    """

    def __init__(self, residual: float, sample_radius: float, threshold: float):
        self.residual = float(residual)
        self.sample_radius = float(sample_radius)
        self.threshold = float(threshold)
        super().__init__(
            f"fit residual {self.residual:.3e} exceeds "
            f"{self.threshold:.3e} at sample radius "
            f"{self.sample_radius:.3e}; sphere not locally flat"
        )

    def __reduce__(self):
        # rebuilt from its fields: ``Exception`` would pass the message alone
        return type(self), (self.residual, self.sample_radius, self.threshold)


class ChartDomainError(GeometryError):
    """A point lies outside the chart's domain of validity."""


class DecompositionError(GeometryError):
    """Subspaces passed as complements do not actually split the space."""
