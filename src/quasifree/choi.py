"""Jamiolkowski symbols and Choi matrices of quasi-free channels, plus the
dense Stinespring oracle used to validate them.

The Stinespring realization of a lambda-kind channel concatenates three maps:
embed the d modes as the first half of 2d modes, rotate by the exponential of
the block unitary

    V = [[A, sqrt(1 - A A*)], [-sqrt(1 - A* A), A*]],

and contract the second half against the quasi-free environment state whose
symbol reproduces B through B = sqrt(1 - A*A) Q' sqrt(1 - A*A).  The rotation
direction (conjugate by E(V), not E(V)*) is the one under which the trace
duality with the Schrodinger action holds; it is frozen here and enforced by
the test suite.  Both square roots come from one SVD of A, since 1 - AA*
and 1 - A*A share the spectrum 1 - s^2, and the environment symbol's
eigenvectors W from :func:`spectral`.  The environment state
E(W) diag(p) E(W)* is never formed:
E is multiplicative, so :func:`_kraus_factor` folds E(W)* into the rotation
once and every action takes the Kraus form channel*(x) = sum K x K*.
Gamma-kind channels route through the lambda channel with conjugated A
composed with the particle-hole automorphism, a signed reversal of the Fock
basis that the factor applies as an index, independently of the symbol-side
twist it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import QuasiFreeChannel, _as_lambda, checked_inverse
from .errors import (
    DimensionCap,
    DimensionMismatch,
    InconsistentB,
    SingularB,
    SpectrumOutOfRange,
)
from .fock import (
    _particle_hole_signs,
    _split_permutation,
    _subset_weights,
    exp_element,
    fock_basis,
)
from .symbols import SpectralSymbol, Symbol, _operand, _trusted_symbol, spectral

DENSE_CHOI_CAP = 6
B_COND_MAX = 1e12
ENV_SYMBOL_TOL = 1e-8
#: 1 - s^2 up to eight units of rounding of 1 counts as 0 in the pseudo-inverse
#: of sqrt(1 - A*A): the SVD's s and its square carry a few units each
ROOT_GAP_TOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class JamiolkowskiSymbol:
    """2d-dimensional symbol of the Jamiolkowski state of a channel; its
    top-left d x d block is the totally mixed marginal 1/2."""

    symbol: Symbol
    source: QuasiFreeChannel


@dataclass(frozen=True)
class ChoiExponentialForm:
    """Closed form det(B) * E(argument) of the Choi matrix of the Heisenberg
    channel; argument is 2d x 2d."""

    scale: float
    argument: np.ndarray


def jamiolkowski_symbol(channel: QuasiFreeChannel) -> JamiolkowskiSymbol:
    """Block symbol of the Jamiolkowski state.

    lambda(A, B):  J = 1/2 [[1, A], [A*, A*A + 2B]].  For lambda(At, B) . theta
    it is D conj(J_lambda(At, B)) D = D J_lambda(A, B^T) D, D = diag(1, -1).

    J = 1/2 [1; A*][1, A] + diag(0, B) and
    1 - J = 1/2 [1; -A*][1, -A] + diag(0, 1 - A*A - B), so 0 <= J <= 1 is
    exactly the complete-positivity test 0 <= B <= 1 - A*A of the source
    channel, which its constructor has proved.  J is therefore not validated
    again; its spectrum is range-checked when first read.
    """
    A, B, twisted = _as_lambda(channel)
    sign = 1.0
    if twisted:
        A, B, sign = np.conj(A), B.T, -1.0
    d = channel.dim
    J = np.empty((2 * d, 2 * d), dtype=complex)
    J[:d, :d] = 0.5 * np.eye(d)
    J[:d, d:] = (0.5 * sign) * A
    J[d:, :d] = (0.5 * sign) * A.conj().T
    gram = A.conj().T @ A
    J[d:, d:] = 0.25 * (gram + gram.conj().T)  # A*A / 2, exactly Hermitian
    J[d:, d:] += B
    return JamiolkowskiSymbol(symbol=_trusted_symbol(J), source=channel)


def choi_exponential_form(channel: QuasiFreeChannel) -> ChoiExponentialForm:
    """Closed form of the Choi matrix, defined when B is invertible.

    Argument [[B^-1 - 1, B^-1 At*], [At B^-1, 1 + At B^-1 At*]] for the
    channel lambda(At, B) . theta^twisted; the twist changes the Choi matrix
    by a unitary on the output factor only, which the form leaves out.
    Raises :class:`SingularB` when cond(B) >= ``B_COND_MAX``; callers may
    fall back to :func:`dense_choi` at small d.  A well-conditioned B whose det
    leaves double range raises :class:`ScaleOutOfRange`.
    """
    A, B, _ = _as_lambda(channel)
    d = channel.dim
    Binv, scale = checked_inverse(
        B,
        B_COND_MAX,
        lambda cond: SingularB(
            "B is numerically singular; the exponential Choi form does not apply"
        ),
        "Choi scale det(B)",
    )
    Binv = (Binv + Binv.conj().T) / 2.0
    AB = A @ Binv
    argument = np.empty((2 * d, 2 * d), dtype=complex)
    argument[:d, :d] = Binv - np.eye(d)
    argument[:d, d:] = AB.conj().T  # B^-1 A*, as B^-1 is Hermitian
    argument[d:, :d] = AB
    argument[d:, d:] = AB @ A.conj().T + np.eye(d)
    return ChoiExponentialForm(scale=scale.real, argument=argument)


def _check_dense_dim(d: int) -> None:
    if d > DENSE_CHOI_CAP:
        raise DimensionCap(
            f"dense Choi/Stinespring constructions are capped at d={DENSE_CHOI_CAP}, got {d}"
        )


def _stinespring_roots(A: np.ndarray):
    """sqrt(1 - AA*), sqrt(1 - A*A) and the pseudo-inverse of the latter, from
    one SVD A = U diag(s) Vh: both roots have the eigenvalues sqrt(1 - s^2),
    on the columns of U and of Vh* respectively.

    The pseudo-inverse drops the directions with 1 - s^2 <= ``ROOT_GAP_TOL``,
    where s is 1 up to rounding and the root is only the square root of
    rounding: inverting it there would divide B's rounding error by the
    rounding of 1 - s^2 and push Q' out of [0, 1]."""
    U, s, Vh = np.linalg.svd(A)
    gap = 1.0 - s * s
    root = np.sqrt(np.clip(gap, 0.0, None))
    inv_root = np.zeros_like(root)
    mask = gap > ROOT_GAP_TOL
    inv_root[mask] = 1.0 / root[mask]
    V = Vh.conj().T
    return (U * root) @ U.conj().T, (V * root) @ Vh, (V * inv_root) @ Vh


def _environment_symbol(
    root: np.ndarray, pinv_root: np.ndarray, B: np.ndarray
) -> SpectralSymbol:
    """Spectrum of Q' with B = root Q' root, for root = sqrt(1 - A*A) and its
    pseudo-inverse; :class:`InconsistentB` when no Q' in [0, 1] does it."""
    Qp = pinv_root @ B @ pinv_root
    Qp = (Qp + Qp.conj().T) / 2.0
    if np.abs(root @ Qp @ root - B).max() > ENV_SYMBOL_TOL:
        raise InconsistentB(
            "no environment symbol in [0, 1] reproduces B through sqrt(1-A*A)"
        )
    try:
        return spectral(_trusted_symbol(Qp, tol=ENV_SYMBOL_TOL))
    except SpectrumOutOfRange as exc:
        raise InconsistentB(str(exc)) from exc


def _kraus_factor(channel: QuasiFreeChannel) -> np.ndarray:
    """K[a, L, i, c] with channel*(x) = sum_{L,c} K[:, L, :, c] x K[:, L, :, c]*.

    The environment state is E(W) diag(p) E(W)*, W the eigenvectors of its
    symbol and p their subset weights; 1 (x) E(W)* = U E(1 + W*) U* under the
    split isomorphism U, so K is the rotation by
    V' = [[A, sqrt(1-AA*)], [-W* sqrt(1-A*A), W* A*]] with index L scaled by
    sqrt(p_L).  gamma(A, B) is lambda(conj A, B) after rho -> P* rho P, so its
    factor is (P (x) 1) K, P the particle-hole unitary.
    """
    d = channel.dim
    n = 1 << d
    A, B, twisted = _as_lambda(channel)
    root_left, root_right, pinv_right = _stinespring_roots(A)
    env = _environment_symbol(root_right, pinv_right, B)
    Wh = env.eigenvectors.conj().T
    V = np.block([[A, root_left], [-Wh @ root_right, Wh @ A.conj().T]])
    t = _split_permutation(d, d)
    K = np.empty((n, n, n, n), dtype=complex)
    K.reshape(n * n, n * n)[np.ix_(t, t)] = exp_element(V)  # U E(V') U*
    K *= np.sqrt(_subset_weights(env.eigenvalues))[:, None, None]
    if twisted:
        K = K[::-1] * _particle_hole_signs(d)[::-1, None, None, None]
    return K


def stinespring_heisenberg(channel: QuasiFreeChannel, x: np.ndarray) -> np.ndarray:
    """Dense Heisenberg action of the channel on a Fock operator x."""
    d = channel.dim
    _check_dense_dim(d)
    n = fock_basis(d).size
    x = _operand(x, "x")
    if x.shape != (n, n):
        raise DimensionMismatch(f"operator shape {x.shape}, expected {(n, n)}")
    K = _kraus_factor(channel)
    # out[a,b] = sum K[a,L,i,c] x[i,j] conj K[b,L,j,c]: two O(n^5) gemms
    Y = x.T @ K  # [a,L,j,c]
    np.conjugate(Y, out=Y)
    return (Y.reshape(n, -1) @ K.reshape(n, -1).T).conj()


def stinespring_schrodinger(channel: QuasiFreeChannel, rho: np.ndarray) -> np.ndarray:
    """Dense Schrodinger action (the trace dual of
    :func:`stinespring_heisenberg`) on a density matrix."""
    d = channel.dim
    _check_dense_dim(d)
    n = fock_basis(d).size
    rho = _operand(rho, "rho")
    if rho.shape != (n, n):
        raise DimensionMismatch(f"state shape {rho.shape}, expected {(n, n)}")
    # out[i,j] = sum conj K[a,L,i,c] rho[a,b] K[b,L,j,c]: two O(n^5) gemms
    Kt = _kraus_factor(channel).transpose(2, 0, 1, 3).reshape(n, n, n * n)  # [i,a,(L,c)]
    R = rho @ Kt  # [j,a,(L,c)]
    np.conjugate(R, out=R)
    return (Kt.reshape(n, -1) @ R.reshape(n, -1).T).conj()


def dense_choi(channel: QuasiFreeChannel) -> np.ndarray:
    """Choi matrix sum_ij e_ij (x) channel*(e_ij) over the Fock matrix units,
    with the Heisenberg action realized by the Stinespring oracle.  Its
    partial trace over the first factor is the identity."""
    d = channel.dim
    _check_dense_dim(d)
    n = fock_basis(d).size
    # C[(i,a),(j,b)] = [channel*(e_ij)]_ab = sum_{L,c} K[a,L,i,c] conj K[b,L,j,c]
    M = _kraus_factor(channel).transpose(2, 0, 1, 3).reshape(n * n, n * n)
    return M @ M.conj().T


def dense_jamiolkowski(channel: QuasiFreeChannel) -> np.ndarray:
    """Jamiolkowski state (1/2^d) sum_ij e_ij (x) channel(e_ij): the image of
    the maximally entangled projector under id (x) channel.

    Read off the Choi matrix by trace duality,
    [channel(e_ij)]_ab = [channel*(e_ba)]_ji.
    """
    C = dense_choi(channel)
    n = 1 << channel.dim
    return C.reshape(n, n, n, n).transpose(3, 2, 1, 0).reshape(C.shape) / n
