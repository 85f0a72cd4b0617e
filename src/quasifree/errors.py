"""Error taxonomy shared by all modules.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map exceptions to exit codes without string matching.
"""


class QuasifreeError(Exception):
    """Base class for all domain errors raised by this package."""


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


class DimensionMismatch(QuasifreeError):
    """Operands have incompatible dimensions."""


class SingularPivot(QuasifreeError):
    """The pivot matrix of a closed-form channel action is (numerically)
    singular; the closed form does not apply."""


class SingularB(QuasifreeError):
    """B is (numerically) singular; the closed-form Choi expression does
    not apply.  Fall back to the dense construction at small dimension."""


class ScaleOutOfRange(QuasifreeError):
    """The determinant scale of a closed form overflows or underflows double
    precision although its matrix is well conditioned; the message gives
    log|det|."""


class DimensionCap(QuasifreeError):
    """Dense oracle refused to build an exponentially large object."""


class InconsistentB(QuasifreeError):
    """No environment symbol in [0, 1] reproduces B (defensive check;
    cannot happen for a validated channel)."""


class KernelConditionViolated(QuasifreeError):
    """Support condition between two symbols fails; the relative entropy
    is infinite."""


class InvalidArgument(QuasifreeError, ValueError):
    """An argument lies outside its documented domain (weight, kind, sign)."""


class InvalidOrder(QuasifreeError):
    """Renyi order must be positive, finite and different from 1."""
