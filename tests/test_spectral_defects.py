"""Differential tests of the spectral kernel and the defects read off it.

``operator.spectrum`` reads eigenvalues or squared singular values block by
block; ``projection_defect`` and ``unitary_defects`` read their numbers off
it.  The oracles here are whole-matrix dense solves: ``eigvalsh`` of a
nearly Hermitian ``p``, else the dense norm of ``p^2 - p``, and the two
products ``u*u - 1`` and ``uu* - 1`` with their dense norms, as the library
computed them before the kernel.  A defect that is zero up to rounding is
compared with an absolute tolerance of ``n * 1e-15``, the rounding of one
n-term inner product of unit vectors; every other one with ``rel=1e-12``.
"""

import numpy as np
import pytest

from coarsek.coarse import (
    CoarseMap,
    LipschitzHomotopy,
    delta_cover,
    homotopy_invariance_certificate,
    rotation_homotopy,
)
from coarsek.controlled import (
    QuasiParams,
    measure,
    projection_defect,
    unitary_defects,
)
from coarsek.errors import DomainError
from coarsek.generators import (
    banded_near_unitary,
    haar_unitary,
    phase_unitary,
    random_banded,
    random_blockdiag_quasi_projection,
    random_quasi_projection,
    random_quasi_unitary,
    random_region_supported,
    shift_unitary,
)
from coarsek.geometry import (
    SampledSpace,
    build_complex,
    circle_space,
    discretize,
    uniform_edge_space,
)
from coarsek.operator import FiniteOperator, hermitian_gap, herm_defect, spectrum
from test_opnorm_blocks import _nearly_hermitian, dense_opnorm

REL = 1e-12


def dense_projection_defect(m):
    if _nearly_hermitian(m):
        lam = np.linalg.eigvalsh(m)
        return float(np.abs(lam * lam - lam).max(initial=0.0))
    return dense_opnorm(m @ m - m)


def dense_unitary_defects(m):
    eye = np.eye(m.shape[0])
    return dense_opnorm(m.conj().T @ m - eye), dense_opnorm(m @ m.conj().T - eye)


def matrix(x):
    return x.concrete() if isinstance(x, FiniteOperator) else np.asarray(x)


def close(got, want, n):
    return got == pytest.approx(want, rel=REL, abs=n * 1e-15)


def agree_even(x):
    m = matrix(x)
    got = projection_defect(x)
    assert close(got, dense_projection_defect(m), len(m))
    return got


def agree_odd(x):
    m = matrix(x)
    left, right = unitary_defects(x)
    want_left, want_right = dense_unitary_defects(m)
    assert left == right
    assert close(left, want_left, len(m)) and close(right, want_right, len(m))
    return left


@pytest.fixture(scope="module")
def circle():
    _, space, order = circle_space(3, mesh=0.05)
    return space, order


@pytest.fixture(scope="module")
def edge():
    return uniform_edge_space(12, fiber_dim=2)


# -- the kernel against whole-matrix spectra --------------------------------


def padded_spectrum(m, herm):
    """The kernel's values with the zeros it leaves out, sorted."""
    values = spectrum(m, herm)
    full = len(m) if herm else min(m.shape)
    return np.sort(np.concatenate([values, np.zeros(full - values.size)]))


def same_spectrum(got, want):
    """Equal up to the rounding of a dense solve, 1e-13 of the largest value."""
    return np.allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("factor", [0.5, 2.0, 50.0])
def test_spectrum_is_the_whole_matrix_spectrum(circle, factor):
    space, _ = circle
    rng = np.random.default_rng(int(factor * 10))
    h = random_banded(space, factor * 0.02, rng, selfadjoint=True).concrete()
    assert same_spectrum(padded_spectrum(h, True), np.linalg.eigvalsh(h))
    a = random_banded(space, factor * 0.02, rng).concrete().copy()
    a[:, 7] = 0.0
    a[40] = 0.0
    for m in (a, a[:100], a[:, :70]):
        sv = np.linalg.svd(m, compute_uv=False)
        assert same_spectrum(padded_spectrum(m, False), np.sort(sv * sv))


def test_spectrum_of_nothing():
    for m in (np.zeros((0, 0)), np.zeros((4, 4)), np.zeros((3, 5))):
        assert spectrum(m, False).size == 0
    assert spectrum(np.zeros((4, 4)), True).size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectrum_rejects_non_finite(bad):
    m = np.eye(3, dtype=complex)
    m[0, 1] = bad
    for herm in (True, False):
        with pytest.raises(DomainError):
            spectrum(m, herm)
    with pytest.raises(DomainError):
        unitary_defects(m)
    with pytest.raises(DomainError):
        projection_defect(m)


# -- every generator family -------------------------------------------------


@pytest.mark.parametrize("factor", [0.5, 2.0, 50.0])
@pytest.mark.parametrize("amplification", [1, 2])
def test_banded_families(circle, factor, amplification):
    space, _ = circle
    rng = np.random.default_rng(int(factor * 100) + amplification)
    r = factor * 0.02
    for _ in range(2):
        a = random_banded(space, r, rng, amplification, norm=0.5)
        agree_even(a)
        agree_odd(a)
        agree_odd(FiniteOperator.identity(space, amplification) + a)
        h = random_banded(space, r, rng, amplification, selfadjoint=True, norm=0.5)
        agree_even(h)
        agree_odd(h)
        v = banded_near_unitary(space, r, rng, amplification)
        agree_odd(v)


@pytest.mark.parametrize("amplification", [1, 2])
def test_region_supported_has_zero_rows(circle, amplification):
    space, _ = circle
    rng = np.random.default_rng(21)
    region = np.zeros(len(space), dtype=bool)
    region[10:60] = True
    for band_r in (None, 0.01, 0.06):
        x = random_region_supported(space, region, rng, amplification, band_r=band_r)
        assert agree_odd(x) >= 1.0
        agree_even(x)
        agree_even(x + x.adjoint())


@pytest.mark.parametrize("seed", range(4))
def test_quasi_projections(edge, seed):
    rng = np.random.default_rng(seed)
    for eps in (0.02, 0.2):
        p, _ = random_quasi_projection(edge, QuasiParams(eps, 0.5), rng)
        assert agree_even(p) < eps
    ranks = rng.integers(0, 3, size=len(edge))
    for noise in (0.0, 0.02, 0.2):
        agree_even(random_blockdiag_quasi_projection(edge, rng, ranks, noise=noise))


@pytest.mark.parametrize("seed", range(4))
def test_unitaries(circle, edge, seed):
    space, order = circle
    rng = np.random.default_rng(seed)
    u = random_quasi_unitary(edge, QuasiParams(0.1, 0.5), rng)
    assert agree_odd(u) < 0.1
    angles = rng.uniform(0, 2 * np.pi, len(space))
    agree_odd(phase_unitary(space, angles))
    agree_odd(phase_unitary(space, angles, amplification=2, unitized=False))
    agree_odd(shift_unitary(space, order, power=seed + 1))
    agree_odd(haar_unitary(40, rng))
    agree_odd(haar_unitary(40, rng) * 1.05)


def test_certificate_samples():
    """The samples the certify benchmark measures: an even rotation homotopy
    (one 2x block over a fiber-2 target) and an odd homotopy-invariance path
    (nearly diagonal)."""
    edge1 = build_complex([(0, 1)])
    thin = discretize(edge1, 0.2)
    fat = discretize(edge1, 0.2, fiber_dim=2)
    f = CoarseMap(thin, fat, np.arange(len(thin)))
    params = QuasiParams(0.1, 0.3)
    p, _ = random_quasi_projection(thin, params, np.random.default_rng(3))
    cert = rotation_homotopy(delta_cover(f, 0.3),
                             delta_cover(f, 0.3, bias="pack-high"), p, params)
    for s in cert.samples:
        agree_even(s)
    n = 12
    base = uniform_edge_space(n)
    dims = np.ones(n, dtype=int)
    dims[n - 1] = 2
    line = SampledSpace(base.points, base.dist, dims, mesh=base.mesh)
    hom = LipschitzHomotopy([CoarseMap.identity(line),
                             CoarseMap(line, line, np.minimum(np.arange(n) + 1, n - 1))],
                            lipschitz_bound=2.0)
    u = phase_unitary(line, np.linspace(0.0, 1.2, n))
    noise = np.diag(0.002 * np.random.default_rng(4).standard_normal(line.total_dim))
    u = FiniteOperator(line, u.entries + noise, 1, u.scalar)
    delta = max(hom.displacement_table) * 1.2
    odd, _ = homotopy_invariance_certificate(hom, u, QuasiParams(0.01, 0.2), delta)
    for s in odd.samples:
        agree_odd(s)


# -- edge cases ---------------------------------------------------------------


def test_zero_rows_and_columns():
    rng = np.random.default_rng(31)
    q = haar_unitary(6, rng)
    p = (q[:, :2] @ q[:, :2].conj().T)
    m = np.zeros((9, 9), dtype=complex)
    keep = [0, 2, 3, 5, 7, 8]
    m[np.ix_(keep, keep)] = p
    agree_even(m)
    agree_even(m + 0.01 * np.eye(9))
    u = np.zeros((9, 9), dtype=complex)
    u[np.ix_(keep, keep)] = q
    assert agree_odd(u) == 1.0


def test_non_square_pattern_block(circle):
    space, order = circle
    shift = shift_unitary(space, order).concrete().copy()
    shift[:, 5] = 0.0
    assert agree_odd(shift) == 1.0
    # a connected band with one column zeroed: one n x (n - 1) block
    rng = np.random.default_rng(32)
    v = banded_near_unitary(space, 0.05, rng, strength=0.05).copy()
    v[np.abs(v) < 1e-3] = 0.0
    v[:, 100] = 0.0
    assert spectrum(v, False).size == len(v) - 1
    assert agree_odd(v) >= 1.0


def test_exactly_zero_singular_value():
    rng = np.random.default_rng(33)
    for n in (2, 5, 30):
        q = haar_unitary(n, rng)
        u = q.copy()
        u[1] = u[0]  # two equal rows: rank n - 1, no zero row or column
        assert agree_odd(u) >= 1.0 - 1e-12
    assert unitary_defects(np.array([[1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)) == (1.0, 1.0)


def test_one_by_one_blocks():
    rng = np.random.default_rng(34)
    for z in (0.0, 1.0, -1.0, 1j, 0.3 - 0.9j, 1.0 + 1e-9):
        assert unitary_defects(np.array([[z]])) == pytest.approx(
            dense_unitary_defects(np.array([[z]])), rel=REL, abs=1e-15)
    d = rng.uniform(-0.1, 1.1, 17)
    agree_even(np.diag(d))
    assert projection_defect(np.diag(d)) == float(np.abs(d * d - d).max())
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 17)) * rng.uniform(0.9, 1.1, 17)
    assert agree_odd(np.diag(z)) == pytest.approx(np.abs(np.abs(z) ** 2 - 1).max(),
                                                  rel=REL)


def test_hermitian_only_to_within_the_tolerance(edge):
    rng = np.random.default_rng(35)
    p, _ = random_quasi_projection(edge, QuasiParams(0.1, 0.5), rng)
    m = p.concrete()
    for scale in (1e-17, 1e-15, 1e-14):
        tiny = scale * rng.standard_normal(m.shape) * (m != 0)
        nearly = m + tiny
        assert _nearly_hermitian(nearly) == hermitian_gap(nearly)[1]
        agree_even(nearly)
        agree_odd(nearly)
    lopsided = m.copy()
    lopsided[0, len(m) // 2] = 1e-15
    agree_even(lopsided)


# -- one singular-value path for both unitary defects -----------------------


@pytest.mark.parametrize("n", [5, 50, 216])
def test_left_equals_right_for_non_normal_u(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    u = np.eye(n) + 0.3 * upper / np.linalg.norm(upper, 2)
    assert np.linalg.norm(u @ u.conj().T - u.conj().T @ u) > 1e-3  # not normal
    left, right = unitary_defects(u)
    assert left == right
    old_left, old_right = dense_unitary_defects(u)
    assert left == pytest.approx(old_left, rel=REL)
    assert right == pytest.approx(old_right, rel=REL)


def test_measure_reads_one_hermitian_test(edge):
    rng = np.random.default_rng(36)
    p, _ = random_quasi_projection(edge, QuasiParams(0.1, 0.5), rng)
    skew = FiniteOperator(edge, p.entries + 1e-6j * np.eye(edge.total_dim))
    for x in (p, skew):
        wit = measure(x, "even")
        assert wit["herm_defect"] == herm_defect(x)
        assert wit["projection_defect"] == projection_defect(x)
