"""Seeded benchmark inputs, built from numpy alone.

Nothing here calls quasifree, so a change to the program cannot change what
the benchmark feeds it.  Every matrix is assembled from pieces whose spectra
are drawn directly (Haar unitaries times chosen eigenvalues), so the
correctness references can be computed from those pieces without an
eigendecomposition of the program's own output.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

#: stand-in for floating-point dust: eigenvalues this far outside [0, 1]
#: sit well inside the symbol tolerance (1e-10) but force the clamp path
DUST = 1e-12


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    """Independent stream per (seed, workload, pass index)."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    U, R = np.linalg.qr(Z)
    diag = np.diag(R)
    return U * (diag / np.abs(diag))


def from_spectrum(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exactly Hermitian V diag(w) V*."""
    M = (V * w) @ V.conj().T
    return (M + M.conj().T) / 2.0


def symbol(d: int, rng: np.random.Generator, low: float, high: float) -> dict:
    V = haar_unitary(d, rng)
    q = rng.uniform(low, high, d)
    return {"V": V, "q": q, "M": from_spectrum(V, q)}


def channel(d: int, rng: np.random.Generator, kind: str, s_range, mu_range) -> dict:
    """Valid (A, B) of the given kind with known factors.

    A = U1 diag(s) U2*, so the CP bound 1 - A*A is R diag(1 - s^2) R* with
    R = U2 for the lambda kind and R = conj(U2) for the gamma kind (whose
    bound 1 - A^T conj(A) is the conjugate).  B = root W diag(mu) W* root
    with root = sqrt(bound) lies strictly inside [0, bound] for mu in (0, 1).
    """
    U1, U2, W = (haar_unitary(d, rng) for _ in range(3))
    s = rng.uniform(*s_range, d)
    mu = rng.uniform(*mu_range, d)
    A = (U1 * s) @ U2.conj().T
    R = U2 if kind == "lambda" else np.conj(U2)
    root = from_spectrum(R, np.sqrt(1.0 - s**2))
    B = root @ from_spectrum(W, mu) @ root
    return {
        "kind": kind,
        "A": A,
        "B": (B + B.conj().T) / 2.0,
        "R": R,
        "s": s,
        "W": W,
        "mu": mu,
    }


def b_inverse(ch: dict) -> np.ndarray:
    """B^-1 from the generating factors, without a factorization of B."""
    inv_root = from_spectrum(ch["R"], 1.0 / np.sqrt(1.0 - ch["s"] ** 2))
    return inv_root @ from_spectrum(ch["W"], 1.0 / ch["mu"]) @ inv_root


def b_logdet(ch: dict) -> float:
    return float(np.sum(np.log(1.0 - ch["s"] ** 2)) + np.sum(np.log(ch["mu"])))


def matrix_doc(M: np.ndarray) -> dict:
    """The CLI's matrix document: row-major [re, im] pairs."""
    M = np.asarray(M, dtype=complex)
    pairs = np.stack([M.real.ravel(), M.imag.ravel()], axis=1)
    return {"rows": M.shape[0], "cols": M.shape[1], "data": pairs.tolist()}


def channel_doc(kind: str, A: np.ndarray, B: np.ndarray) -> dict:
    return {"kind": kind, "A": matrix_doc(A), "B": matrix_doc(B)}


def doc_matrix(doc: dict) -> np.ndarray:
    """Inverse of :func:`matrix_doc`, used to read the program's outputs."""
    pairs = np.asarray(doc["data"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(doc["rows"], doc["cols"])


def fingerprint(inputs: dict) -> str:
    """sha256 over every array, string and number of a pass's inputs, in key
    order; equal digests mean two runs fed the program identical inputs.
    Keys starting with "_" (run-local paths) are left out."""
    h = hashlib.sha256()
    for key in sorted(k for k in inputs if not k.startswith("_")):
        value = inputs[key]
        h.update(key.encode())
        if isinstance(value, dict):
            h.update(fingerprint(value).encode())
        elif isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()
