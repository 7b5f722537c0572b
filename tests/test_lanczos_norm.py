"""Differential and guard tests of the certified Lanczos path of ``opnorm``.

A block of the bipartite nonzero pattern with both sides at least
``LANCZOS_MIN`` takes Lanczos on its Gram matrix; the Ritz value is kept
only when a Cholesky factorisation certifies it, else the Gram matrix's
``eigvalsh`` is the answer.  The oracle is the whole-matrix top singular
value (``dense_opnorm``).  The ``path`` fixture records how each such block
was settled: ``certified``, ``rejected`` (the certificate failed) or ``cap``
(no convergence within ``LANCZOS_STEPS`` steps).
"""

import numpy as np
import pytest

from coarsek import operator
from coarsek.generators import (
    banded_near_unitary,
    haar_unitary,
    random_banded,
    random_region_supported,
)
from coarsek.geometry import circle_space
from coarsek.operator import LANCZOS_MIN, FiniteOperator, opnorm, spectrum
from test_opnorm_blocks import dense_opnorm

REL = 1e-12
LANCZOS_TOP = operator._lanczos_top


@pytest.fixture(scope="module")
def circle():
    _, space, _ = circle_space(3, mesh=0.019)  # 318 points, the mv-split circle
    return space


@pytest.fixture(scope="module")
def spacing(circle):
    d = circle.dist
    return float(d[d > 0].min())


@pytest.fixture
def path(monkeypatch):
    seen = []
    top, certified = operator._lanczos_top, operator._certified

    def spy_top(g):
        theta = top(g)
        if theta is None:
            seen.append("cap")
        return theta

    def spy_certified(g, theta, inner):
        ok = certified(g, theta, inner)
        seen.append("certified" if ok else "rejected")
        return ok

    monkeypatch.setattr(operator, "_lanczos_top", spy_top)
    monkeypatch.setattr(operator, "_certified", spy_certified)
    return seen


def agree(m):
    assert opnorm(m) == pytest.approx(dense_opnorm(m), rel=REL, abs=0)


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def with_singular_values(rng, s):
    n = s.size
    return (haar_unitary(n, rng) * s) @ haar_unitary(n, rng).conj().T


@pytest.mark.parametrize("amplification", [1, 2])
def test_connected_banded(circle, spacing, path, amplification):
    rng = np.random.default_rng(21)
    for factor in (3.0, 10.0):
        agree(random_banded(circle, factor * spacing, rng, amplification))
    assert path == ["certified", "certified"]


@pytest.mark.parametrize("amplification", [1, 2])
def test_region_supported(circle, path, amplification):
    rng = np.random.default_rng(22)
    region = np.arange(len(circle)) < LANCZOS_MIN + 40
    op = random_region_supported(circle, region, rng, amplification)
    agree(op)
    assert opnorm(op) == pytest.approx(1.0, rel=REL)
    assert path and set(path) == {"certified"}  # the generator's normalisation too


@pytest.mark.parametrize("shape", [(240, 180), (180, 240)])
def test_rectangular_blocks(path, shape):
    rng = np.random.default_rng(23)
    agree(complex_gaussian(rng, shape))
    p, q = shape
    i, j = np.mgrid[:p, :q]
    band = np.abs(i * q / p - j) < 3  # one connected p x q block
    agree(complex_gaussian(rng, shape) * band)
    assert len(path) == 2 and set(path) <= {"certified", "rejected", "cap"}


def test_top_pair_within_1e_9(path):
    rng = np.random.default_rng(24)
    n = LANCZOS_MIN + 40
    s = np.concatenate([[1.0, 1.0 - 5e-10], np.linspace(0.9, 0.01, n - 2)])
    m = with_singular_values(rng, s)
    assert opnorm(m) == pytest.approx(1.0, rel=REL)
    agree(m)
    assert len(path) == 2


def lanczos_steps(monkeypatch, g, gap_rule):
    """The steps ``_lanczos_top`` takes on ``g``, with or without the
    Kato-Temple stop (without it, the second Ritz value reads as the first,
    so the estimate is zero only for a zero residual)."""
    sizes = []
    solve = operator._ritz_top

    def spy(alpha, beta):
        theta, s = solve(alpha, beta)
        sizes.append(alpha.size)
        return (theta if gap_rule else np.full_like(theta, theta[-1])), s

    with monkeypatch.context() as patch:
        patch.setattr(operator, "_ritz_top", spy)
        assert LANCZOS_TOP(g) is not None
    return sizes[-1]


def test_the_gap_rule_ends_a_dense_region_supported_block(circle, path, monkeypatch):
    rng = np.random.default_rng(34)
    op = random_region_supported(circle, np.arange(len(circle)) < 280, rng)
    grams, top = [], operator._lanczos_top
    monkeypatch.setattr(operator, "_lanczos_top",
                        lambda g: grams.append(g.copy()) or top(g))
    agree(op)
    assert len(grams) == 1 and set(path) == {"certified"}
    steps = [lanczos_steps(monkeypatch, grams[0], rule) for rule in (True, False)]
    assert steps[0] < steps[1]


def test_near_unitary_with_a_clustered_top(circle, spacing, path):
    rng = np.random.default_rng(25)
    w = banded_near_unitary(circle, 3 * spacing, rng)
    agree(w)
    assert path[-1] == "certified"
    # singular values 1 + 1e-4 r, r uniform in [0, 1): 318 of them in a cluster
    agree(w * (1 + 1e-4 * rng.random(w.shape[1])))
    assert path[-1] in {"cap", "rejected"}


def test_a_missed_top_is_rejected_and_falls_back(monkeypatch, path):
    rng = np.random.default_rng(26)
    m = complex_gaussian(rng, (LANCZOS_MIN + 20, LANCZOS_MIN + 20))
    s = np.linalg.svd(m, compute_uv=False)
    assert s[1] < s[0] * (1 - 1e-6)
    # the second eigenvalue of the Gram matrix: the square of the second singular value
    monkeypatch.setattr(operator, "_lanczos_top", lambda g: np.linalg.eigvalsh(g)[-2])
    assert opnorm(m) == pytest.approx(s[0], rel=REL, abs=0)
    assert path == ["rejected"]


def test_a_bound_inside_the_rounding_margin_is_rejected(monkeypatch, path):
    rng = np.random.default_rng(32)
    m = complex_gaussian(rng, (LANCZOS_MIN + 20, LANCZOS_MIN + 20))
    top = np.linalg.svd(m, compute_uv=False)[0]
    # c = theta (1 + 1e-10) lands 1e-13 above the top eigenvalue of the Gram
    # matrix: closer than the rounding margin, so not proof of a bound
    theta = top ** 2 * (1 + 1e-13) / (1 + 1e-10)
    monkeypatch.setattr(operator, "_lanczos_top", lambda g: theta)
    assert opnorm(m) == pytest.approx(top, rel=REL, abs=0)
    assert path == ["rejected"]


def test_the_certificate_proves_only_a_5e_11_window(monkeypatch, path):
    rng = np.random.default_rng(33)
    m = complex_gaussian(rng, (LANCZOS_MIN + 20, LANCZOS_MIN + 20))
    top = np.linalg.svd(m, compute_uv=False)[0]
    # a Ritz value 1e-11 below the top eigenvalue of the Gram matrix is
    # certified: the proof bounds the norm by sqrt(c), 5e-11 above sqrt(theta)
    monkeypatch.setattr(operator, "_lanczos_top", lambda g: top ** 2 * (1 - 1e-11))
    got = opnorm(m)
    assert path == ["certified"]
    assert got < top <= got * (1 + 5e-11)


def test_same_bits_whatever_the_global_rng(circle, spacing, path):
    m = random_banded(circle, 3 * spacing, np.random.default_rng(27))
    np.random.seed(1)
    first = opnorm(m)
    np.random.seed(2)
    np.random.standard_normal(1000)
    assert opnorm(m).hex() == first.hex()
    assert path == ["certified", "certified"]


def hermitian_and_not(circle, spacing, rng):
    """Small-block and large-block matrices, Hermitian and not."""
    small = complex_gaussian(rng, (40, 40))
    large = random_banded(circle, 3 * spacing, rng).entries
    for m in (small, large):
        yield m
        yield (m + m.conj().T) / 2


@pytest.mark.parametrize("power", [560, -560])
def test_power_of_two_scaling_is_exact(circle, spacing, path, power):
    rng = np.random.default_rng(28)
    scale = 2.0 ** power
    for m in hermitian_and_not(circle, spacing, rng):
        assert opnorm(scale * m) == scale * opnorm(m)
    assert path.count("certified") == 4


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_extreme_scales_match_the_oracle(circle, spacing, scale):
    rng = np.random.default_rng(29)
    for m in hermitian_and_not(circle, spacing, rng):
        want = scale * dense_opnorm(m)
        assert opnorm(scale * m) == pytest.approx(want, rel=REL, abs=0)


def test_spectrum_gram_values_scale_exactly():
    rng = np.random.default_rng(30)
    m = complex_gaussian(rng, (30, 20)) * (rng.random((30, 20)) < 0.3)
    values = spectrum(m, False)
    assert np.array_equal(spectrum(2.0 ** -300 * m, False), 2.0 ** -600 * values)
    assert np.array_equal(spectrum(2.0 ** 300 * m, False), 2.0 ** 600 * values)


def test_small_blocks_stay_off_the_lanczos_path(circle, spacing, path):
    rng = np.random.default_rng(31)
    n = LANCZOS_MIN - 1
    agree(complex_gaussian(rng, (n, 2 * n)))
    agree(FiniteOperator(circle, random_banded(circle, 0.5 * spacing, rng).entries))
    assert path == []


@pytest.mark.parametrize("shape", [(200, 170), (170, 200)])
def test_gram_is_hermitian_and_inside_its_rounding_bound(shape):
    rng = np.random.default_rng(35)
    b = complex_gaussian(rng, shape)
    g = operator._gram(b)
    assert g.shape == (shape[1], shape[1])
    assert np.array_equal(g, g.conj().T)  # exactly, the diagonal real
    exact = b.conj().T @ b
    bound = operator._gamma(2 * shape[0] + 2) * (np.abs(b).T @ np.abs(b))
    assert (np.abs(g - exact) <= bound).all()
    assert not operator._gram(b.real).imag.any()
