"""Quasi-free completely positive maps on symbols.

Two families, both parameterized by a pair (A, B) of one-particle matrices:

* ``lambda`` kind, valid iff 0 <= B <= 1 - A*A: lambda(A, B)(Q) = A* Q A + B;
* ``gamma`` kind, the lambda kind twisted by particle-hole, theta(Q) = 1 - Q^T:
  gamma(A, B) = lambda(conj A, B) . theta = theta . lambda(A, 1 - B^T - A*A),
  valid iff 0 <= B <= 1 - A^T conj(A).

Every closed form below is written once, for lambda(At, B) . theta^twisted:
:func:`_as_lambda` reads a channel that way (At = conj A for gamma) and
:func:`_twist_past` moves theta past a lambda map.  This reading makes the
Schrodinger action, the Heisenberg closed forms and the trace duality
tr(channel(rho) x) = tr(rho channel*(x)) mutually consistent; the dense
oracle, which routes gamma through the particle-hole unitary on its own,
pins it down.

The Heisenberg actions on exponential elements and on quasi-free density
matrices have closed forms (scale, argument) that never touch the 2^d-dim
Fock space; densifying a :class:`ScaledExponential` is an explicit
oracle-side call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NotCompletelyPositive,
    ScaleOutOfRange,
    SingularPivot,
)
from .symbols import Symbol, _operand, _trusted_symbol

KIND_LAMBDA = "lambda"
KIND_GAMMA = "gamma"

PIVOT_COND_MAX = 1e12
CP_TOL = 1e-10
#: tolerance of the range test on Schrodinger images
SCHRODINGER_TOL = 1e-8
#: relative singular-value threshold for the rank test in classify_affine_map
RANK_TOL = 1e-10


@dataclass(frozen=True)
class QuasiFreeChannel:
    """A quasi-free channel, completely positive by construction.

    The constructor, however it is reached (:func:`new_channel`,
    :func:`compose`, ``dataclasses.replace``, a direct call), checks the kind,
    reads A and B through the operand gate and proves B Hermitian and
    0 <= B <= :func:`cp_bound` at ``CP_TOL``: each inequality is first tried
    by a Cholesky certificate (:func:`_certified_psd`), which accepts only
    what the eigenvalue test accepts, and otherwise the eigenvalue test
    decides and words the error.  A and B are kept as read-only copies, so
    the symbols a channel produces are symbols by theorem.
    """

    kind: str
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if self.kind not in (KIND_LAMBDA, KIND_GAMMA):
            raise InvalidArgument(
                f"kind must be '{KIND_LAMBDA}' or '{KIND_GAMMA}', got {self.kind!r}"
            )
        A, B = _square_pair(self.A, self.B)
        herm_dev = np.abs(B - B.conj().T).max()
        if herm_dev > CP_TOL:
            raise NotCompletelyPositive(f"B must be Hermitian; max |B - B*| = {herm_dev:.3e}")
        B = (B + B.conj().T) / 2.0
        if not _certified_psd(B, CP_TOL):
            low = _min_eig(B)
            if low < -CP_TOL:
                raise NotCompletelyPositive(f"B has eigenvalue {low:.6e} < 0")
        upper = cp_bound(self.kind, A) - B
        if not _certified_psd(upper, CP_TOL):
            high = _min_eig(upper)
            if high < -CP_TOL:
                raise NotCompletelyPositive(
                    f"upper CP constraint violated by eigenvalue {high:.6e}"
                )
        A = A.copy()  # freeze private copies, never the caller's arrays
        for name, m in (("A", A), ("B", B)):
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ScaledExponential:
    """The pair (scale, argument) representing scale * E(argument); the closed
    form of Heisenberg channel outputs.  Kept unexpanded on purpose."""

    scale: complex
    argument: np.ndarray


@dataclass(frozen=True)
class AffineSymbolMap:
    """gamma(Q) = sign * A* (Q or Q^T) A + B, for CP classification."""

    sign: int
    transpose_input: bool
    A: np.ndarray
    B: np.ndarray


def _square_pair(A, B):
    A = _operand(A, "A", nonempty=True)
    B = _operand(B, "B", nonempty=True)
    if B.shape != A.shape:
        raise DimensionMismatch(f"A and B shapes differ: {A.shape} vs {B.shape}")
    return A, B


def _min_eig(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((H + H.conj().T) / 2.0)[0])


def _certified_psd(H: np.ndarray, tol: float) -> bool:
    """True only when lambda_min(H) >= -tol holds exactly; False means "not
    certified", and the caller's eigenvalue test decides.

    A Cholesky factorization that runs to completion on
    H' = H + (tol/2) 1 proves H' + E >= 0 for a backward error with
    |E| <= c |L||L*|, c = sqrt(2) gamma_{n+3} in complex arithmetic (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.3 and sec. 3.6).
    Hence ||E||_2 <= c || |L| ||_2^2 <= c min(||L||_F^2, ||L||_1 ||L||_inf),
    and when that is at most tol/2, lambda_min(H) >= -tol/2 - ||E||_2 >= -tol.
    For 0 <= H <= 1 the Frobenius form is at most sqrt(2) n (n+3) u, inside
    tol/2 = 5e-11 up to d ~ 560 whatever H is; beyond that the certificate
    holds when L is spread thinly enough (||L||_1 ||L||_inf small).
    """
    n = H.shape[0]
    half = tol / 2.0
    try:
        L = np.linalg.cholesky((H + H.conj().T) / 2.0 + half * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    u = np.finfo(float).eps / 2.0
    c = np.sqrt(2.0) * (n + 3) * u / (1.0 - (n + 3) * u)
    absL = np.abs(L)
    spread = min(
        float(np.vdot(absL, absL).real),
        float(absL.sum(axis=0).max() * absL.sum(axis=1).max()),
    )
    return c * spread <= half


def _lambda_A(kind: str, A: np.ndarray):
    """(At, twisted) with the channel (kind, A, B) = lambda(At, B) . theta^twisted."""
    twisted = kind == KIND_GAMMA
    return (np.conj(A) if twisted else A), twisted


def _as_lambda(channel: QuasiFreeChannel):
    """(At, B, twisted) with channel = lambda(At, B) . theta^twisted."""
    At, twisted = _lambda_A(channel.kind, channel.A)
    return At, channel.B, twisted


def _twist_past(At: np.ndarray, B: np.ndarray):
    """The pair of theta . lambda(At, B) = lambda(conj At, 1 - B^T - At^T conj At) . theta"""
    Ac = np.conj(At)
    return Ac, np.eye(At.shape[0]) - B.T - At.T @ Ac


def cp_bound(kind: str, A: np.ndarray) -> np.ndarray:
    """Upper bound 1 - At*At on B in the CP constraint of the given kind."""
    At, _ = _lambda_A(kind, A)
    return np.eye(At.shape[0]) - At.conj().T @ At


def new_channel(kind: str, A, B) -> QuasiFreeChannel:
    """The quasi-free channel (kind, A, B), the documented entry point:
    ``QuasiFreeChannel(kind, A, B)``, which proves it completely positive at
    ``CP_TOL`` or raises (:class:`InvalidArgument` for a kind other than
    ``lambda``/``gamma``, :class:`NotCompletelyPositive` for a violation)."""
    return QuasiFreeChannel(kind, A, B)


def apply_schrodinger(channel: QuasiFreeChannel, Q: Symbol) -> Symbol:
    """Image symbol of the state evolution.

    The image is At* theta^twisted(Q) At + B, a symbol by theorem: theta maps
    symbols to symbols, and 0 <= Q <= 1 gives B <= At*QAt + B <= At*At + B <= 1
    for every channel, as each has 0 <= B <= 1 - At*At.  It is returned exactly
    Hermitian, without an eigendecomposition, and range-checked at
    ``SCHRODINGER_TOL`` when its spectrum is first read.
    """
    if channel.dim != Q.dim:
        raise DimensionMismatch(f"channel dim {channel.dim} vs symbol dim {Q.dim}")
    At, B, twisted = _as_lambda(channel)
    Qm = np.eye(channel.dim) - Q.matrix.T if twisted else Q.matrix
    M = At.conj().T @ Qm @ At + B
    return _trusted_symbol((M + M.conj().T) / 2.0, tol=SCHRODINGER_TOL)


def checked_inverse(P: np.ndarray, cond_max: float, singular, what: str):
    """(P^-1, det P) for the pivot P of a closed form: ``singular(cond)`` is
    raised when cond_2(P) >= cond_max, and :class:`ScaleOutOfRange`, naming
    ``what`` and giving log|det P|, when det P is not finite or underflows to 0.

    One LU-based inverse screens the condition number: cond_2 <= d cond_1,
    so d ||P||_1 ||P^-1||_1 < cond_max / 2 accepts (the factor 2 absorbs the
    rounding of the computed inverse, whose relative error is about
    d u cond_1 << 1 below the limit).  Anything else, including a
    LinAlgError from the inverse, goes to np.linalg.cond, which decides.
    det P takes a second LU, as numpy keeps no factorization to reuse.
    """
    try:
        Pinv = np.linalg.inv(P)
        screened = P.shape[0] * np.linalg.norm(P, 1) * np.linalg.norm(Pinv, 1) < cond_max / 2.0
    except np.linalg.LinAlgError:
        Pinv, screened = None, False
    if not screened:
        cond = np.linalg.cond(P)
        if cond >= cond_max:
            raise singular(cond)
        # an LU breakdown below the limit re-raises its LinAlgError here; the
        # error is not kept across the cond call, where its traceback would
        # pin the caller's frames
        if Pinv is None:
            Pinv = np.linalg.inv(P)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        det = complex(np.linalg.det(P))
    if not (np.isfinite(det) and det != 0):
        logabsdet = np.linalg.slogdet(P)[1]
        raise ScaleOutOfRange(f"{what} is outside double range: log|det| = {logabsdet:.6e}")
    return Pinv, det


def _heisenberg(channel: QuasiFreeChannel, S: np.ndarray, T: np.ndarray) -> ScaledExponential:
    """Heisenberg image of the operator that the pair (S, T) stands for:
    scale det(pivot) and argument 1 + A pivot^-1 (T - S) A*, with
    pivot = S + (T - S) B for lambda(A, B).  A twisted channel is
    theta . lambda(A, 1 - B^T - A*A), and theta* maps (S, T) to (T^T, S^T)."""
    A, B, twisted = _as_lambda(channel)
    if twisted:
        A, B = _twist_past(A, B)
        S, T = T.T, S.T
    D = T - S
    pivot = S + D @ B
    inverse, scale = checked_inverse(
        pivot,
        PIVOT_COND_MAX,
        lambda cond: SingularPivot(
            f"pivot condition number {cond:.3e} >= {PIVOT_COND_MAX:.1e}; "
            "the closed form does not apply"
        ),
        "Heisenberg scale det(pivot)",
    )
    AD = A @ (inverse @ D)
    del inverse  # not kept through the last product, where it would raise the peak by d^2
    argument = np.eye(channel.dim) + AD @ A.conj().T
    return ScaledExponential(scale=scale, argument=argument)


def apply_heisenberg_exp(channel: QuasiFreeChannel, X) -> ScaledExponential:
    """Heisenberg image of an exponential element E(X), as (scale, argument);
    the pair (S, T) = (1, X)."""
    X = _operand(X, "X")
    if X.shape != (channel.dim, channel.dim):
        raise DimensionMismatch(f"X shape {X.shape} vs channel dim {channel.dim}")
    return _heisenberg(channel, np.eye(channel.dim), X)


def apply_heisenberg_state(channel: QuasiFreeChannel, Q: Symbol) -> ScaledExponential:
    """Heisenberg image of the quasi-free density matrix with symbol Q; the
    pair (S, T) = (1 - Q, Q).

    Well defined for every symbol, including projectors, as long as the pivot
    is invertible; agrees with ``det(1-Q) * apply_heisenberg_exp(c, Q/(1-Q))``
    on the interior.
    """
    if channel.dim != Q.dim:
        raise DimensionMismatch(f"channel dim {channel.dim} vs symbol dim {Q.dim}")
    return _heisenberg(channel, np.eye(channel.dim) - Q.matrix, Q.matrix)


def compose(c2: QuasiFreeChannel, c1: QuasiFreeChannel) -> QuasiFreeChannel:
    """The channel acting as c2 after c1, as a single validated channel.

    Twists compose like parities: theta is moved past lambda(A1, B1) when c2
    is twisted, then lambda(A2, B2) . lambda(A1, B1) = lambda(A1 A2, A2* B1 A2 + B2).
    """
    if c1.dim != c2.dim:
        raise DimensionMismatch(f"channel dims differ: {c1.dim} vs {c2.dim}")
    A1, B1, t1 = _as_lambda(c1)
    A2, B2, t2 = _as_lambda(c2)
    if t2:
        A1, B1 = _twist_past(A1, B1)
    A, B = A1 @ A2, A2.conj().T @ B1 @ A2 + B2
    if t1 != t2:
        return new_channel(KIND_GAMMA, np.conj(A), B)
    return new_channel(KIND_LAMBDA, A, B)


def _numerical_rank(A: np.ndarray) -> int:
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_TOL * sv[0]))


def classify_affine_map(m: AffineSymbolMap) -> str:
    """Decide whether the affine symbol map extends to a completely positive
    state map; returns "CP" or "NotCP".

    The two canonical forms carry the CP tests 0 <= B <= 1 - A*A (sign +, no
    transpose) and A*A <= B <= 1 (sign -, transpose).  The two remaining
    (sign, transpose) combinations are congruences composed with a bare
    transpose; the transpose can be absorbed by conjugating the factors
    exactly when A has rank <= 1 (write A = w u*, so that the quadratic part
    is <conj w, Q conj w> u u* resp. <w, Q w> u u*, a rank-one congruence of
    the untransposed or transposed canonical form with the same A*A).  For
    rank(A) >= 2 no rewriting exists and the map is never CP.
    Both tests are :func:`new_channel`'s, of lambda(A, B) and lambda(A, B - A*A).
    """
    A, B = _square_pair(m.A, m.B)
    if m.sign not in (1, -1):
        raise InvalidArgument(f"sign must be +1 or -1, got {m.sign}")
    canonical = (m.sign == 1) != bool(m.transpose_input)
    if not canonical and _numerical_rank(A) > 1:
        return "NotCP"
    if m.sign == -1:
        B = B - A.conj().T @ A
    try:
        new_channel(KIND_LAMBDA, A, B)
    except NotCompletelyPositive:
        return "NotCP"
    return "CP"
