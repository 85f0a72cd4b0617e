"""Properties of the Hermitian gate and the spectrum reader on edge spectra:
exact 0 and 1, degenerate clusters, and dust just inside and outside the
tolerance at both ends of [0, 1]."""

import numpy as np
import pytest
from conftest import brute_subset_products
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifree import SpectrumOutOfRange, density_matrix, spectral, validate_symbol
from quasifree.sampling import random_unitary
from quasifree.symbols import HERMITIAN_TOL

U = np.finfo(float).eps / 2.0
MAX_D = 8
DUST = (0.4, 0.8, 3.0)  # multiples of tol: kept, kept, refused


@st.composite
def edge_spectra(draw):
    """(tol, spectrum, unitary seed): clusters of one value each, up to MAX_D entries."""
    tol = draw(st.sampled_from([HERMITIAN_TOL, 1e-8]))
    dust = [s * f * tol for f in DUST for s in (-1.0, 1.0)]
    value = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.sampled_from(dust),
        st.sampled_from([1.0 + x for x in dust]),
        st.floats(0.0, 1.0),
    )
    clusters = draw(st.lists(st.tuples(value, st.integers(1, 3)), min_size=1, max_size=MAX_D))
    q = np.array([v for v, k in clusters for _ in range(k)][:MAX_D])
    return tol, q, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(edge_spectra())
def test_validation_judges_the_spectrum_and_reads_it_once(case):
    tol, q, seed = case
    d = q.size
    band = 10 * d * U  # the rounding of V diag(q) V* and of the eigensolvers
    V = random_unitary(d, np.random.default_rng(seed))
    M = (V * q) @ V.conj().T
    M = (M + M.conj().T) / 2.0
    if q.min() < -tol - band or q.max() > 1.0 + tol + band:
        with pytest.raises(SpectrumOutOfRange):
            validate_symbol(M, tol)
        return
    if q.min() < -tol + band or q.max() > 1.0 + tol - band:
        return  # inside the rounding band either verdict is right
    values_first, spectral_first = validate_symbol(M, tol), validate_symbol(M, tol)
    w = values_first.eigenvalues
    assert np.abs(w - np.sort(np.clip(q, 0.0, 1.0))[::-1]).max() <= band
    assert spectral(values_first).eigenvalues.tobytes() == w.tobytes()
    s = spectral(spectral_first)
    assert spectral_first.eigenvalues.tobytes() == s.eigenvalues.tobytes()
    if d <= 6:
        rho = np.linalg.eigvalsh(density_matrix(values_first))
        weights = np.sort(brute_subset_products(np.clip(q, 0.0, 1.0)))
        assert np.abs(rho - weights).max() <= 10 * 2**d * U
