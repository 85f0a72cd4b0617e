"""Error taxonomy shared by all modules.

Every failure mode that callers are expected to handle gets its own class,
and every class carries the CLI exit code of its failure as ``exit_code``:
3 by default (invalid symbol or channel, inapplicable closed form), 4 for a
value out of range (:class:`InvalidOrder`, :class:`DimensionCap`) and 5 for
a complete-positivity violation.  The CLI reads the code off the caught
error, so there is no table to keep in step with this taxonomy.
"""


class QuasifreeError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 3


class NotHermitian(QuasifreeError):
    """Matrix is further from its conjugate transpose than the tolerance."""


class SpectrumOutOfRange(QuasifreeError):
    """Eigenvalues fall outside [0, 1] beyond the tolerance."""


class NotQuasiFreeMixture(QuasifreeError):
    """Convex combination of two quasi-free states is not quasi-free
    (symbol difference has numerical rank >= 2)."""


class NotOrthonormal(QuasifreeError):
    """Vectors expected to be orthonormal are not."""


class ZeroVector(QuasifreeError):
    """A nonzero vector was required."""


class NotEvenState(QuasifreeError):
    """State does not commute with the parity operator."""


class NotCompletelyPositive(QuasifreeError):
    """Channel data violates the complete-positivity constraint."""

    exit_code = 5


class DimensionMismatch(QuasifreeError):
    """Operands have incompatible dimensions."""


class SingularPivot(QuasifreeError):
    """The pivot matrix of a closed-form channel action is (numerically)
    singular; the closed form does not apply."""


class SingularB(QuasifreeError):
    """B is (numerically) singular; the closed-form Choi expression does
    not apply.  Fall back to the dense construction at small dimension."""


class ScaleOutOfRange(QuasifreeError):
    """A scale is no normal double: a closed form's determinant, kept in log
    form, when it is read (the message gives log|det|), or a dense
    exponential element's entry."""


class DimensionCap(QuasifreeError):
    """Dense oracle refused to build an exponentially large object."""

    exit_code = 4


class InconsistentB(QuasifreeError):
    """No environment symbol in [0, 1] reproduces B within the oracle's tolerance;
    raised also for a few valid channels, whose A has a singular value with
    1 - s^2 between about 1e-16 and 1e-14, where B's rounding meets the root's."""


class KernelConditionViolated(QuasifreeError):
    """Support condition between two symbols fails; the relative entropy
    is infinite."""


class InvalidArgument(QuasifreeError, ValueError):
    """An argument lies outside its documented domain (weight, kind, sign)."""


class InvalidOrder(QuasifreeError):
    """Renyi order must be positive, finite and different from 1."""

    exit_code = 4
