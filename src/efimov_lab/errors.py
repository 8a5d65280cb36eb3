"""Exception taxonomy shared by all modules.

Every failure mode of the numerical pipeline maps to one of these classes so
callers can distinguish "you asked for something outside the chart" from
"the geometry degenerated at this point".
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class PointOutsideChart(GeometryError):
    """A chart point (or a finite-difference stencil around it) leaves the box."""


class NonInvertibleMetric(GeometryError):
    """|det g| fell below the invertibility floor, or a 2x2 surface metric
    is not positive definite: det g at or below that floor, or g11 <= 0, or
    the Gram matrix a metric induces on 2-planes is not positive definite."""


class NonFiniteMetric(GeometryError):
    """A metric's values or its finite-difference derivatives at a point are
    inf or NaN: the metric overflows there, or its stencil differences do."""


class DegeneratePlane(GeometryError):
    """The two vectors supposed to span a tangent 2-plane are (nearly) parallel."""


class DegenerateVector(GeometryError):
    """A tangent vector to be normalised has zero or non-finite length."""


class DegenerateImmersion(GeometryError):
    """The differential of a surface map has rank < 2 at the requested point."""


class DegenerateShapeOperator(GeometryError):
    """|det B| fell below the degeneracy floor; dual objects are undefined."""


class NonHyperbolicPoint(GeometryError):
    """det of the inverse shape operator is >= 0; no asymptotic directions."""


class InvalidPinching(GeometryError):
    """Curvature constants violate the required ordering (e.g. K1 >= K_m)."""


class ModeUnsupported(GeometryError):
    """The operation needs immersion data but got an abstract connection."""


class EndpointSample(GeometryError):
    """A quantity needing interior differentiability was requested at a trace end."""


class OpenBoundary(GeometryError):
    """A region boundary does not close up within tolerance."""


class BoundViolated(GeometryError):
    """An input profile leaves its admissible range (e.g. sup|u| > 1/eps)."""


class NoCrossing(GeometryError):
    """A guaranteed zero-crossing was not found; signals a numerical fault."""


class WrongSignDeterminant(GeometryError):
    """det H does not equal -b with the required sign."""


class ParameterOutOfRange(GeometryError):
    """A builder, constructor or solver received parameters outside their
    documented range, non-finite values included."""


class LeftPatch(GeometryError):
    """A construction needed points beyond the declared patch; ``row`` is
    the row of a batched trace that left it (0 for one state)."""

    def __init__(self, message, row=0):
        super().__init__(message)
        self.row = row


class ExpressionError(GeometryError):
    """Malformed expression text."""


class ExpressionEvaluationError(GeometryError):
    """An expression failed to evaluate (division by zero, domain error)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point
