import numpy as np
import pytest

from coarsek.controlled import projection_defect
from coarsek.errors import DomainError, NoDecayError
from coarsek.generators import random_banded, random_blockdiag_quasi_projection
from coarsek.geometry import SampledSpace
from coarsek.operator import FiniteOperator, opnorm, propagation
from coarsek.paths import (
    PathOperator,
    eventual_propagation,
    evaluate,
    trim,
)


@pytest.fixture(scope="module")
def line4():
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    return SampledSpace.from_distance_matrix(d)


def banded_path(space, radii, seed=5):
    rng = np.random.default_rng(seed)
    vals = [random_banded(space, r, rng, norm=1.0) for r in radii]
    return PathOperator(np.arange(1.0, len(radii) + 1), vals)


class TestEventualPropagation:
    def test_constant_tight_path(self, line4, rng):
        v = random_banded(line4, 0.5, rng)
        p = PathOperator([1.0, 2.0, 3.0], [v, v, v])
        assert eventual_propagation(p, 1.0) == 1.0

    def test_decaying_path(self, line4):
        p = banded_path(line4, [3.5, 2.5, 1.5, 0.5])
        # propagation halves-ish per step; first time below 2.0
        props = [propagation(v) for v in p.values]
        expect = p.times[max(i for i, q in enumerate(props) if q >= 2.0) + 1]
        assert eventual_propagation(p, 2.0) == expect

    def test_never_decays(self, line4):
        p = banded_path(line4, [3.5, 3.5, 3.5])
        with pytest.raises(NoDecayError):
            eventual_propagation(p, 0.5)

    def test_monotone_in_r(self, line4):
        p = banded_path(line4, [3.5, 2.5, 1.5, 0.5])
        ns = [eventual_propagation(p, r) for r in (0.6, 1.6, 2.6, 3.6)]
        assert ns == sorted(ns, reverse=True)


class TestTrim:
    def test_identity_shift(self, line4):
        p = banded_path(line4, [3.5, 2.5, 1.5])
        q = trim(p, 1.0)
        assert (q.times == p.times).all()
        assert all(np.allclose(a.entries, b.entries)
                   for a, b in zip(p.values, q.values))

    def test_constant_path_unchanged(self, line4, rng):
        v = random_banded(line4, 1.0, rng)
        p = PathOperator([1.0, 2.0, 3.0], [v, v, v])
        q = trim(p, 2.0)
        assert np.allclose(q.values[0].entries, v.entries)
        assert q.times[0] == 1.0

    def test_trim_then_eventual_is_one(self, line4):
        p = banded_path(line4, [3.5, 2.5, 1.5, 0.5])
        n = eventual_propagation(p, 2.0)
        q = trim(p, n)
        assert eventual_propagation(q, 2.0) == 1.0

    def test_double_trim_adds(self, line4):
        p = banded_path(line4, [3.5, 2.5, 1.5, 0.5, 0.5])
        q = trim(trim(p, 2.0), 2.0)
        r = trim(p, 3.0)
        assert (q.times == r.times).all()
        assert all(np.allclose(a.entries, b.entries)
                   for a, b in zip(q.values, r.values))

    def test_unsampled_time_rejected(self, line4):
        p = banded_path(line4, [3.5, 2.5])
        with pytest.raises(DomainError):
            trim(p, 1.5)


class TestEvaluate:
    def test_first_value(self, line4):
        p = banded_path(line4, [3.5, 2.5])
        assert np.allclose(evaluate(p, 1.0).entries, p.values[0].entries)

    def test_trim_evaluation_identity(self, line4):
        p = banded_path(line4, [3.5, 2.5, 1.5])
        q = trim(p, 2.0)
        assert np.allclose(evaluate(q, 1.0).entries,
                           evaluate(p, 2.0).entries)

    def test_unsampled_needs_flag(self, line4):
        p = banded_path(line4, [3.5, 2.5])
        with pytest.raises(DomainError):
            evaluate(p, 1.5)

    def test_interpolated_midpoint_degrades_by_modulus(self, line4, rng):
        space = SampledSpace.from_distance_matrix(np.zeros((1, 1)),
                                                  internal_dims=[6])
        p0 = random_blockdiag_quasi_projection(space, rng, [3], noise=0.01)
        bump = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        bump = (bump + bump.conj().T) / 2
        bump *= 0.008 / opnorm(bump)
        p1 = FiniteOperator(space, p0.entries + bump)
        path = PathOperator([1.0, 2.0], [p0, p1])
        mid = evaluate(path, 1.5, interpolate=True)
        eps = projection_defect(p0) + 1e-6
        # the blend stays within the perturbation bound eps + 5 ||p0 - p1||
        assert projection_defect(mid) < eps + 5 * path.modulus


class TestPathQuasi:
    def test_modulus_recorded(self, line4):
        p = banded_path(line4, [3.5, 2.5, 1.5])
        gaps = [opnorm(b - a) for a, b in zip(p.values, p.values[1:])]
        assert p.modulus == pytest.approx(max(gaps))
        with pytest.raises(DomainError):
            PathOperator(p.times, p.values, modulus=p.modulus / 2)


def test_empty_path_is_a_domain_error():
    with pytest.raises(DomainError):
        PathOperator([], [])


@pytest.mark.parametrize("times", [[1.0, np.nan, 3.0], [1.0, 2.0, np.nan],
                                   [1.0, 2.0, np.inf]])
def test_non_finite_time_is_a_domain_error(line4, rng, times):
    v = random_banded(line4, 0.5, rng)
    with pytest.raises(DomainError, match="finite and strictly increasing"):
        PathOperator(times, [v, v, v])


@pytest.mark.parametrize("modulus", [np.nan, np.inf])
def test_non_finite_modulus_is_a_domain_error(line4, modulus):
    p = banded_path(line4, [3.5, 2.5])
    with pytest.raises(DomainError, match="not a finite bound"):
        PathOperator(p.times, p.values, modulus=modulus)
