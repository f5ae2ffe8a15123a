"""Exception hierarchy.

Every error the library raises derives from :class:`QcontractError` and
carries an ``exit_code`` used by the command line tool:

* 2 — input / parse error (bad files, bad matrices, bad parameters)
* 3 — mathematical precondition violated (singular reference state,
  non-primitive channel, ...)
* 4 — numerical failure (quadrature or optimizer did not converge)
"""

from __future__ import annotations


class QcontractError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InputError(QcontractError):
    """Malformed input: files, matrices, parameters."""

    exit_code = 2


class PreconditionError(QcontractError):
    """Input is well formed but violates a mathematical precondition."""

    exit_code = 3


class NumericalError(QcontractError):
    """A numerical routine failed to reach its tolerance."""

    exit_code = 4


# -- input errors -----------------------------------------------------------

class NotSquare(InputError):
    """Array is not a square 2-d matrix."""


class DimensionMismatch(InputError):
    """Operands have incompatible dimensions (or d < 2)."""


class NotHermitian(InputError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositive(InputError):
    """Matrix has an eigenvalue below -tol."""


class TraceZero(InputError):
    """Matrix trace is too small to normalize."""


class NotStochastic(InputError):
    """Transition matrix columns do not sum to one (or entries < 0)."""


class NotProbability(InputError):
    """Probability vector has negative entries or does not sum to one."""


class NotTracePreserving(InputError):
    """Kraus operators do not satisfy sum K^dag K = I."""


class NotCompletelyPositive(InputError):
    """Choi matrix has a negative eigenvalue beyond tolerance."""


class ParameterOutOfRange(InputError):
    """Scalar channel/divergence parameter outside its admissible range."""


class UnsupportedOrder(InputError):
    """Schatten order outside {1, 2, inf}."""


class NotOperatorConvex(InputError):
    """f-divergence spec is not flagged operator convex."""


class NotStandardMonotone(InputError):
    """Candidate g fails a standard-monotone property check."""


# -- precondition errors ----------------------------------------------------

class SingularReference(PreconditionError):
    """Reference state is rank deficient where full rank is required."""


class DomainError(PreconditionError):
    """Scalar function evaluated outside its domain (e.g. log at 0)."""


class NotPrimitive(PreconditionError):
    """Channel is not primitive (no unique full-rank fixed point)."""


class DegenerateFixedSpace(PreconditionError):
    """Fixed-point equation has a multi-dimensional solution space."""


class TraceZeroEigenvector(PreconditionError):
    """Fixed-space eigenvector has (near-)zero trace; cannot normalize."""


# -- numerical errors -------------------------------------------------------

class QuadratureFailure(NumericalError):
    """Adaptive quadrature exceeded its subdivision budget."""


class ConvergenceFailure(NumericalError):
    """Iterative routine did not converge within its budget."""


class AllRestartsDegenerate(NumericalError):
    """No variational restart found a valid starting point: each one fell in
    the excluded ball around sigma or gave an invalid ratio."""


#: every error class is public
__all__ = [name for name, obj in list(globals().items())
           if isinstance(obj, type) and issubclass(obj, QcontractError)]
