"""Exception hierarchy shared by all modules.

Two broad families: :class:`ValidationError` for inputs that violate a
documented precondition, and :class:`NumericalError` for computations that
could not be completed reliably. The ``exit_code`` attribute is what the CLI
reports when the error escapes to the top level.
"""


class GraphSplinesError(Exception):
    exit_code = 2


class ValidationError(GraphSplinesError):
    """Input rejected before any numerical work was attempted."""

    exit_code = 2


class NumericalError(GraphSplinesError):
    """A numerical routine failed or produced an unreliable result."""

    exit_code = 3


# --- graph construction -----------------------------------------------------

class SelfLoop(ValidationError):
    pass


class DuplicateEdge(ValidationError):
    pass


class NonPositiveWeight(ValidationError):
    pass


class NonPositiveLength(ValidationError):
    pass


class DisconnectedGraph(ValidationError):
    pass


class TooFewVertices(ValidationError):
    pass


class DuplicatePoint(ValidationError):
    pass


class IsolatedVertex(ValidationError):
    pass


class EmptyNodeSet(ValidationError):
    pass


# --- spectral ----------------------------------------------------------------

class EigensolverFailure(NumericalError):
    pass


class MultipleZeroEigenvalues(NumericalError):
    """More than one (near-)zero eigenvalue: the input was disconnected."""


class NonPositiveAlpha(ValidationError):
    pass


class EmptySubset(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class EmptyInterior(ValidationError):
    pass


class FullVertexSet(ValidationError):
    pass


# --- interpolation -----------------------------------------------------------

class SingularSystem(NumericalError):
    """The Dirichlet-form interpolation matrix ``(L^alpha)_UU`` is numerically rank deficient.

    Raised by the one symmetric solve when LAPACK's factorization meets an
    exactly zero pivot, or when its reciprocal condition estimate (1-norm) is
    below machine epsilon, where LAPACK's own drivers warn.
    """


class InconsistentDimensions(ValidationError):
    pass


# --- diagnostics -------------------------------------------------------------

class InsufficientData(ValidationError):
    pass


class DegenerateDenominator(NumericalError):
    """Semi-norm in the reference region is zero; the ratio is undefined."""


class NotACycle(ValidationError):
    pass


class TooFewNodes(ValidationError):
    pass


class HypothesisViolated(ValidationError):
    """The input graph does not satisfy the covering construction's hypotheses."""


# --- datasets ----------------------------------------------------------------

class MissingValue(ValidationError):
    pass


class NonNumericColumn(ValidationError):
    pass


class ZeroVarianceColumn(ValidationError):
    pass


class TooFewRows(ValidationError):
    pass
