"""Differential tests of the block-wise ``opnorm`` against a dense oracle.

The oracle is the whole-matrix top singular value (``numpy.linalg.norm(m,
2)``, an SVD), whether or not the matrix is Hermitian.  A rectangular array
is zero-padded to a square one first, which leaves its norm unchanged.
"""

import numpy as np
import pytest

from coarsek.controlled import unitary_defects
from coarsek.errors import DomainError
from coarsek.generators import haar_unitary, random_banded, random_region_supported
from coarsek.geometry import circle_space, uniform_edge_space
from coarsek.operator import FiniteOperator, opnorm, restrict, spectrum

REL = 1e-12


def _nearly_hermitian(m, tol=1e-13):
    return np.linalg.norm(m - m.conj().T) <= tol * max(1.0, np.linalg.norm(m))


def dense_opnorm(op):
    """Operator (spectral) norm; accepts a FiniteOperator or a matrix."""
    m = op.concrete() if isinstance(op, FiniteOperator) else np.asarray(op)
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def padded(m):
    n = max(m.shape)
    out = np.zeros((n, n), dtype=complex)
    out[:m.shape[0], :m.shape[1]] = m
    return out


def agree(op):
    want = dense_opnorm(op)
    got = opnorm(op)
    assert got == pytest.approx(want, rel=REL, abs=1e-300)
    return got


@pytest.fixture(scope="module")
def circle():
    _, space, _ = circle_space(3, mesh=0.05)
    return space


@pytest.fixture(scope="module")
def spacing(circle):
    d = circle.dist
    return float(d[d > 0].min())


@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 1.5, 3.0, 20.0])
@pytest.mark.parametrize("amplification", [1, 2])
def test_random_banded_across_the_sample_spacing(circle, spacing, factor,
                                                 amplification):
    rng = np.random.default_rng(int(factor * 100) + amplification)
    for _ in range(3):
        agree(random_banded(circle, factor * spacing, rng, amplification))


@pytest.mark.parametrize("amplification", [1, 2])
def test_restricted_operators(circle, spacing, amplification):
    rng = np.random.default_rng(11)
    n = len(circle)
    for factor in (0.5, 2.0, 50.0):
        x = random_banded(circle, factor * spacing, rng, amplification)
        rows = rng.random(n) < 0.6
        cols = rng.random(n) < 0.6
        agree(restrict(x, rows, cols))
        agree(restrict(x, rows, rows))


@pytest.mark.parametrize("amplification", [1, 2])
def test_region_supported(circle, spacing, amplification):
    rng = np.random.default_rng(12)
    n = len(circle)
    region = np.zeros(n, dtype=bool)
    region[n // 4: n // 2] = True
    for band_r in (None, 0.5 * spacing, 3 * spacing):
        op = random_region_supported(circle, region, rng, amplification,
                                     band_r=band_r)
        assert agree(op) == pytest.approx(1.0, rel=REL)
        two = random_region_supported(circle, region | (rng.random(n) < 0.2),
                                      rng, amplification, band_r=band_r)
        agree(op - two)


@pytest.mark.parametrize("factor", [0.5, 2.0, 50.0])
def test_self_adjoint_and_nearly_self_adjoint(circle, spacing, factor):
    rng = np.random.default_rng(13)
    h = random_banded(circle, factor * spacing, rng, selfadjoint=True)
    agree(h)
    n = h.dim
    tiny = 1e-16 * (rng.standard_normal((n, n)) * (h.entries != 0))
    nearly = FiniteOperator(circle, h.entries + tiny)
    assert _nearly_hermitian(nearly.concrete())
    agree(nearly)
    # an entry below the Hermitian tolerance on one side only
    lopsided = h.entries.copy()
    lopsided[0, n // 2] = 1e-18
    agree(lopsided)


def test_one_sided_entry_below_the_hermitian_tolerance():
    # nearly Hermitian by hermitian_gap's rule, yet its norm is its one entry
    lower = np.zeros((3, 3), dtype=complex)
    lower[2, 0] = 1e-14
    for m in (lower, lower.T):
        assert opnorm(m) == dense_opnorm(m) == 1e-14


@pytest.mark.parametrize("amplification", [1, 2])
def test_unitized_operators(circle, spacing, amplification):
    rng = np.random.default_rng(14)
    for factor in (0.5, 2.0):
        x = random_banded(circle, factor * spacing, rng, amplification)
        scalar = rng.standard_normal(amplification) + 1j * rng.standard_normal(
            amplification)
        agree(x.with_scalar(scalar))
        agree(x.with_scalar(np.ones(amplification)) - x)


def test_permuted_block_diagonal():
    rng = np.random.default_rng(15)
    for trial in range(20):
        sizes = rng.integers(1, 6, size=rng.integers(1, 12))
        n = int(sizes.sum())
        m = np.zeros((n, n), dtype=complex)
        pos = 0
        for k in sizes:
            block = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            if trial % 2:
                block = block + block.conj().T
            m[pos:pos + k, pos:pos + k] = block
            pos += k
        perm = rng.permutation(n)
        agree(m[np.ix_(perm, perm)])
        agree(m[np.ix_(perm, rng.permutation(n))])


def test_rectangular_raw_arrays():
    rng = np.random.default_rng(16)
    for rows, cols in ((1, 7), (7, 1), (3, 8), (9, 4), (12, 30)):
        for density in (0.1, 0.4, 1.0):
            m = (rng.standard_normal((rows, cols))
                 + 1j * rng.standard_normal((rows, cols)))
            m = m * (rng.random((rows, cols)) < density)
            assert opnorm(m) == pytest.approx(dense_opnorm(padded(m)),
                                              rel=REL, abs=1e-300)


def test_exact_cases(circle):
    assert opnorm(FiniteOperator.identity(circle)) == 1.0
    assert opnorm(FiniteOperator.identity(circle, 2, unitized=False)) == 1.0
    assert opnorm(FiniteOperator.zeros(circle)) == 0.0
    assert opnorm(np.zeros((4, 6))) == 0.0
    assert opnorm(np.zeros((0, 0))) == 0.0
    assert opnorm(np.zeros((0, 5))) == 0.0
    rng = np.random.default_rng(17)
    d = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert opnorm(np.diag(d)) == np.abs(d).max()
    assert opnorm(np.diag(d.real)) == np.abs(d.real).max()


@pytest.mark.parametrize("n", [40, 200])
def test_adjoints_and_transposes(n):
    # adjoint() and .T are Fortran-ordered: every kernel reads them as it
    # reads the matrix itself, on small blocks and on large ones
    rng = np.random.default_rng(18)
    space = uniform_edge_space(n)
    op = FiniteOperator(space, rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    m = op.entries
    want = dense_opnorm(m)
    for other in (op.adjoint(), m.T, m.conj().T, np.asfortranarray(m)):
        assert opnorm(other) == pytest.approx(want, rel=REL, abs=0)
    # a scaled transpose stays Fortran-ordered and takes the power-of-two scaling
    assert opnorm(2.0 ** -560 * m.T) == pytest.approx(2.0 ** -560 * want, rel=REL, abs=0)
    values = np.sort(spectrum(m, False))
    assert np.sort(spectrum(m.T, False)) == pytest.approx(values, abs=1e-12 * values[-1])
    u = FiniteOperator(space, haar_unitary(n, rng))
    assert unitary_defects(u.adjoint()) == pytest.approx(unitary_defects(u), abs=1e-12)
    assert max(unitary_defects(u.adjoint())) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_entries_are_a_domain_error(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(DomainError):
        opnorm(m)
