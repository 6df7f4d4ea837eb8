"""Exception hierarchy shared across the package.

Configuration problems (bad shapes, bad parameters) and runtime flow
failures (loss of convexity, unstable steps) are kept in separate branches
so the CLI can map them to distinct exit codes.
"""


class IcflowError(Exception):
    """Base class for everything raised deliberately by this package."""


class ParameterError(IcflowError):
    """A configuration or argument value is invalid before any flow runs."""


class DegenerateCurveError(IcflowError):
    """A polygon is unusable: too few vertices, repeated points, zero edges."""


class FlowError(IcflowError):
    """Base class for failures occurring while the flow is evolving."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class ConvexityLossError(FlowError):
    """The evolving polygon stopped being strictly convex."""


class StepRejectedError(FlowError):
    """No stable smoothing order exists for the requested time step."""


class NoAdmissibleOffsetError(IcflowError):
    """The offset search bracket contains no feasible value."""
