"""Exception types shared across the package.

Every error raised on a contract violation derives from GeodensError so
callers can distinguish our failures from genuine bugs.  Each error belongs
to one of five categories, and the category's ``exit_code`` is the CLI's
exit status for it.  Any other exception is a bug, also while a scene loads;
an input check that a ValueError used to report raises an InputError that is
still a ValueError.
"""


class GeodensError(Exception):
    """Base class for all geodens errors; each category sets ``exit_code``."""

    exit_code: int


# categories

class InputError(GeodensError):
    """Scene, expression or argument error."""

    exit_code = 2


class GeometryError(GeodensError):
    """Rank, intersection, chart or frame failure."""

    exit_code = 3


class DegreeError(GeodensError):
    """Density degrees do not fit the operation."""

    exit_code = 4


class ConvergenceError(GeodensError):
    """Quadrature or oracle convergence failure, or no bounded domain."""

    exit_code = 5


class TransversalityError(GeodensError):
    """Cores fail to be transverse."""

    exit_code = 6


class AmbientMismatch(InputError):
    """Cores or frames passed to one operation live in different ambient spaces."""


# linear algebra kernels

class SingularFrame(GeometryError):
    """Determinant power of a singular matrix with a non-positive real degree."""


class SpanMismatch(GeometryError):
    """Two frames passed to a change of basis do not span the same subspace."""


class RankDeficient(GeometryError):
    """The vectors of a frame are linearly dependent."""


class DegenerateCovectors(GeometryError):
    """Covector family is linearly dependent, no dual frame exists."""


class ConormalMismatch(GeometryError):
    """Conormal covectors fail to annihilate the tangent frame."""


# expression language

class ExprSyntaxError(InputError, SyntaxError):
    """Malformed expression source.  Carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunction(InputError):
    """Call to a function outside the fixed catalog."""


class UnboundIdentifier(InputError):
    """Identifier with no binding at evaluation time."""


class DomainError(InputError):
    """Evaluation left the real domain (log of a non-positive value, etc.)."""


# geometry

class InvalidCore(InputError, ValueError):
    """Dimensions, form shapes or chart domain out of range, or an implicit form of
    the wrong length or that does not vanish on the core."""


class ImmersionFailure(GeometryError):
    """Chart jacobian loses rank somewhere on the sampled domain."""


class MissingImplicitForm(GeometryError):
    """Curved intersection requested without an implicit form to project onto."""


class NoIntersectionFound(GeometryError):
    """Intersection search found no common point."""


class UserChartRequired(GeometryError):
    """Positive-dimensional curved intersection needs a user-supplied chart."""


class ChartInversionFailure(GeometryError):
    """Newton iteration for chart coordinates did not stabilize."""


class DimensionMismatch(GeometryError):
    """Intersection core dimension differs from what transversality requires."""


# densities, states, products

class ConormalShapeMismatch(InputError, ValueError):
    """Declared conormal rows are not (n - k) rows of n numbers for their core."""


class DegreeMismatch(DegreeError):
    """Density degrees do not satisfy the operation's compatibility rule."""


class UnboundedDomain(ConvergenceError):
    """Integration domain is not a bounded box."""


class InvalidBox(InputError, ValueError):
    """Integration box not of shape (k, 2) or with lo > hi, or a panel width not positive."""


class QuadratureNotConverged(ConvergenceError):
    """Quadrature missed its tolerance.  Orders climb by a factor sqrt 2, and
    neither the change from the order before nor its rate-scaled form met the
    tolerance by MAX_ORDER, or the next rule would pass the node budget MAX_NODES."""


class NotOnBothCores(GeometryError):
    """Point that must lie on both cores is off one of them."""


class TransversalityFailure(TransversalityError):
    """Cores fail to be transverse where the operation needs them to be."""


# oracle

class NonAffineCore(GeometryError):
    """Mollification is only implemented for affine cores."""


class NonConvergent(ConvergenceError):
    """Oracle errors fail the convergence policy."""


class NonExpressionCoefficient(InputError):
    """Mollification needs an expression-backed coefficient, not a python callable."""


class InvalidEps(InputError):
    """Mollifier widths not positive, an eps sweep not strictly decreasing, or not
    one oracle value per eps."""


# scenes

class SceneError(InputError):
    """Malformed or inconsistent scene description."""
