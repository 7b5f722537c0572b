import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek import controlled
from coarsek.controlled import (
    HERM_TOL,
    ControlPair,
    HomotopyCertificate,
    KClassRep,
    QuasiParams,
    apply_control_pair,
    certificate_rank_profile,
    chi_rank,
    compose_control_pairs,
    forbidden_band,
    interpolation_certificate,
    is_quasi,
    is_quasi_projection,
    k0_points,
    kappa_even,
    judge_certificate,
    measure,
    perturb_bound,
    projection_defect,
    relaxed_params,
    scalar_rank,
    spectral_band_radius,
    stabilize,
    step_norms,
    unitary_defects,
    verify_certificate,
)
from conftest import assert_same_report
from coarsek.errors import (
    CertificateError,
    DomainError,
    SpectralGapError,
)
from coarsek.generators import (
    random_banded,
    random_blockdiag_quasi_projection,
    random_quasi_projection,
    random_quasi_unitary,
    shift_unitary,
    trial_rngs,
)
from coarsek.geometry import SampledSpace, build_complex, discretize, uniform_edge_space
from coarsek.operator import (
    FiniteOperator,
    coordinates_of,
    herm_defect,
    opnorm,
    propagation,
    spectrum,
)


@pytest.fixture(scope="module")
def pt2():
    # one point with a 2-dimensional fiber
    return SampledSpace.from_distance_matrix(np.zeros((1, 1)),
                                             internal_dims=[2])


@pytest.fixture(scope="module")
def pts5():
    d = np.full((5, 5), 1.0)
    np.fill_diagonal(d, 0.0)
    return SampledSpace.from_distance_matrix(d)


@pytest.fixture(scope="module")
def fat5():
    d = np.full((5, 5), 1.0)
    np.fill_diagonal(d, 0.0)
    return SampledSpace.from_distance_matrix(d, internal_dims=[1, 2, 1, 2, 3])


def diag_op(space, values):
    return FiniteOperator(space, np.diag(np.asarray(values, complex)))


class TestQuasiTests:
    def test_exact_projection(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        ok, wit = is_quasi_projection(p, QuasiParams(0.01, 1.0))
        assert ok and wit["projection_defect"] == 0.0

    def test_defect_arithmetic(self, pt2):
        p = diag_op(pt2, [0.9, 0.1])
        assert projection_defect(p) == pytest.approx(0.09)
        assert is_quasi_projection(p, QuasiParams(0.1, 1.0))[0]
        assert not is_quasi_projection(p, QuasiParams(0.08, 1.0))[0]

    def test_cross_component_projection_fails(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        s = SampledSpace.from_distance_matrix(d)
        m = np.full((2, 2), 0.5, dtype=complex)
        p = FiniteOperator(s, m)
        ok, wit = is_quasi_projection(p, QuasiParams(0.2, 100.0))
        assert not ok and wit["propagation"] == np.inf

    def test_identity_is_quasi_unitary(self, pt2):
        one = FiniteOperator.identity(pt2, unitized=True)
        assert is_quasi(one, "odd", QuasiParams(0.01, 0.5))[0]

    def test_shift_on_circle(self, small_circle):
        _, space, order = small_circle
        u = shift_unitary(space, order)
        spacing = space.dist[order[0], order[1]]
        assert max(unitary_defects(u)) <= 1e-12
        assert propagation(u) == pytest.approx(spacing)
        assert is_quasi(u, "odd", QuasiParams(0.01, spacing * 1.01))[0]
        assert not is_quasi(u, "odd", QuasiParams(0.01, spacing * 0.99))[0]

    def test_half_identity_fails(self, pt2):
        u = 0.5 * FiniteOperator.identity(pt2, unitized=False)
        _, wit = is_quasi(u, "odd", QuasiParams(0.2, 1.0))
        assert wit["left_defect"] == pytest.approx(0.75)
        assert not is_quasi(u, "odd", QuasiParams(0.2, 1.0))[0]


class TestPerturbBound:
    def test_formula(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        noise = diag_op(pt2, [0.01, -0.01])
        q = perturb_bound(p, p + noise, QuasiParams(0.1, 1.0))
        assert q.eps == pytest.approx(0.1 + 5 * 0.01)
        assert q.r == 1.0

    def test_identity_perturbation(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        q = perturb_bound(p, p, QuasiParams(0.1, 1.0))
        assert q.eps == pytest.approx(0.1)

    def test_random_6x6_measured_bound(self):
        d = np.zeros((1, 1))
        s = SampledSpace.from_distance_matrix(d, internal_dims=[6])
        for rng in trial_rngs(1234, 25):
            p, _ = random_quasi_projection(s, QuasiParams(0.05, 1.0), rng)
            h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            h = (h + h.conj().T) / 2
            h *= 0.015 / opnorm(h)
            p2 = FiniteOperator(s, p.entries + h)
            delta = opnorm(p - p2)
            perturb_bound(p, p2, QuasiParams(0.05, 1.0))
            assert projection_defect(p2) <= 0.05 + 5 * delta + 1e-9

    def test_large_delta_rejected(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        q = diag_op(pt2, [0.6, 0.35])
        with pytest.raises(DomainError):
            perturb_bound(p, q, QuasiParams(0.1, 1.0))


class TestKappa:
    def test_exact_projection_fixed(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        assert np.allclose(kappa_even(p).concrete(), p.concrete())

    def test_rounding(self, pt2):
        p = diag_op(pt2, [0.9, 0.1])
        assert np.allclose(kappa_even(p).concrete(), np.diag([1.0, 0.0]))

    def test_rank_recovery(self):
        # build quasi-projections with spectra within 0.05 of known 0/1
        # patterns and confirm the spectral projection recovers the rank
        s = SampledSpace.from_distance_matrix(np.zeros((1, 1)),
                                              internal_dims=[8])
        for i, rng in enumerate(trial_rngs(77, 10)):
            p, rank = random_quasi_projection(s, QuasiParams(0.1, 1.0), rng,
                                              rank=i % 9)
            assert chi_rank(kappa_even(p)) == rank == i % 9

    def test_forbidden_band_rejection(self, pt2):
        # the band is that of the measured defect, 1e-9 narrower each side;
        # near 1/2 only the rounding of the defect leaves it any width
        with pytest.raises(SpectralGapError):
            kappa_even(diag_op(pt2, [0.5 + 6e-9, 0.0]))
        assert chi_rank(kappa_even(diag_op(pt2, [0.5 + 8e-9, 0.0]))) == 1

    def test_defect_over_quarter_rejected(self, pt2):
        p = diag_op(pt2, [0.5, 0.5])
        with pytest.raises(DomainError):
            kappa_even(p)

    def test_kappa_even_idempotent_output(self, pt2, rng):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(z)
        p = FiniteOperator(pt2, (q[:, :1] @ q[:, :1].conj().T) + 0.05 * np.eye(2))
        out = kappa_even(p).concrete()
        assert opnorm(out @ out - out) <= 1e-12


class TestK0Points:
    def test_zero_operator(self, pts5):
        z = FiniteOperator.zeros(pts5)
        assert (k0_points(z, QuasiParams(0.1, 0.5)) == 0).all()

    def test_single_point_rank_one(self, pts5):
        m = np.zeros((5, 5), complex)
        m[2, 2] = 1.0
        p = FiniteOperator(pts5, m)
        assert (k0_points(p, QuasiParams(0.1, 0.5)) ==
                np.array([0, 0, 1, 0, 0])).all()

    def test_known_rank_profile_recovered(self, fat5, rng):
        ranks = np.array([1, 2, 0, 1, 3])
        p = random_blockdiag_quasi_projection(fat5, rng, ranks, noise=0.02)
        got = k0_points(p, QuasiParams(0.15, 0.5))
        assert (got == ranks).all()

    def test_one_spectrum_per_point_block(self, fat5, rng, monkeypatch):
        # a block's defect and rank come off one eigensolve
        p = random_blockdiag_quasi_projection(fat5, rng, [1, 2, 0, 1, 3])
        sizes = []
        monkeypatch.setattr(controlled, "spectrum",
                            lambda m, herm: sizes.append(len(m)) or spectrum(m, herm))
        k0_points(p, QuasiParams(0.15, 0.5))
        blocks = sorted(size for size in sizes if size < p.dim)
        assert blocks == sorted(fat5.internal_dims)

    def test_off_diagonal_rejected(self, pts5):
        m = np.zeros((5, 5), complex)
        m[0, 1] = 0.5
        m[1, 0] = 0.5
        p = FiniteOperator(pts5, m)
        with pytest.raises(DomainError, match="even quasi-test failed"):
            k0_points(p, QuasiParams(0.2, 0.5))

    def test_r_must_sit_below_separation(self, pts5):
        z = FiniteOperator.zeros(pts5)
        with pytest.raises(DomainError):
            k0_points(z, QuasiParams(0.1, 2.0))


class TestStabilize:
    def test_zero_summands(self, fat5, rng):
        p = random_blockdiag_quasi_projection(fat5, rng, [1, 0, 0, 2, 1])
        x = KClassRep("even", p.with_scalar(0.0), QuasiParams(0.1, 0.5))
        assert stabilize(x, 0) is x

    def test_scalar_rank_grows(self, fat5, rng):
        p = random_blockdiag_quasi_projection(fat5, rng, [1, 0, 0, 2, 1])
        x = KClassRep("even", p.with_scalar(0.0), QuasiParams(0.1, 0.5))
        y = stabilize(x, 2)
        assert scalar_rank(y.rep) == y.ell == 2
        ok, wit = is_quasi(y.rep, "even", y.params)
        assert ok, wit

    def test_class_vector_invariant(self, fat5, rng):
        ranks = np.array([1, 2, 0, 1, 3])
        p = random_blockdiag_quasi_projection(fat5, rng, ranks, noise=0.02)
        x = KClassRep("even", p.with_scalar(0.0), QuasiParams(0.15, 0.5))
        base = k0_points(x.rep, x.params, ell=x.ell)
        y = stabilize(x, 3)
        lifted = k0_points(y.rep, y.params, ell=y.ell)
        assert (lifted == base).all()


class TestCertificates:
    def test_trivial_interpolation(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        cert = interpolation_certificate(p, p, QuasiParams(0.1, 1.0))
        ok, _ = verify_certificate(cert)
        assert ok

    @pytest.mark.parametrize("seed", [20240817, 1, 2])
    def test_recorded_step_is_the_verifiers_number(self, seed):
        # the cli-batch certificate input: at seed 20240817 ||p - p'|| and
        # ||p' - p|| differ in the last bits
        rng = np.random.default_rng(seed)
        thin = discretize(build_complex([(0, 1)]), 0.08)
        p, _ = random_quasi_projection(thin, QuasiParams(0.1, 0.3), rng)
        nudge = random_banded(thin, 0.3, rng, selfadjoint=True, norm=0.005)
        cert = interpolation_certificate(
            p, FiniteOperator(thin, p.entries + nudge.entries), QuasiParams(0.2, 0.5))
        assert cert.step_bounds == step_norms(cert.samples)

    def test_margin_arithmetic_accepts(self, pt2):
        # defect 0.1 at the endpoint, gap 0.01: 5 * 0.01 + 0.1 = 0.15 < 0.16
        x = 0.5 + 0.5 * math.sqrt(1.4)  # x^2 - x = 0.1
        a = diag_op(pt2, [x, 0.0])
        b = FiniteOperator(pt2, a.entries - np.diag([0.01, 0.0]))
        cert = interpolation_certificate(a, b, QuasiParams(0.16, 1.0))
        ok, rep = verify_certificate(cert)
        assert ok and rep["worst_step_margin"] >= 0

    def test_margin_arithmetic_rejects(self, pt2):
        # defect 0.1, gap 0.05: 0.35 > 0.2
        vals = 0.5 + 0.5 * math.sqrt(1 + 0.4)  # x with x^2 - x = 0.1
        a = diag_op(pt2, [vals, 0.0])
        b = FiniteOperator(pt2, a.entries + np.diag([0.05, 0.0]))
        with pytest.raises(CertificateError):
            interpolation_certificate(a, b, QuasiParams(0.2, 1.0))

    def test_bad_propagation_reported(self):
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        s = SampledSpace.from_distance_matrix(d)
        wide = np.full((2, 2), 0.5, dtype=complex)
        p = FiniteOperator(s, wide)
        cert = HomotopyCertificate("even", [p], QuasiParams(0.2, 1.0), [])
        ok, rep = verify_certificate(cert)
        assert not ok
        assert rep["failures"][0][0] == 0

    def test_interpolation_is_judged_as_the_verifier_judges(self, pt2, judged):
        p = diag_op(pt2, [1.0, 0.0])
        b = FiniteOperator(pt2, p.entries + np.diag([0.01, -0.003]))
        cert = interpolation_certificate(p, b, QuasiParams(0.1, 1.0))
        built = judged[-1]
        assert_same_report(built, verify_certificate(cert)[1])

    def test_interpolation_rejects_wide_endpoint(self):
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        s = SampledSpace.from_distance_matrix(d)
        p = FiniteOperator(s, np.full((2, 2), 0.5, dtype=complex))
        with pytest.raises(CertificateError, match="propagation"):
            interpolation_certificate(p, p, QuasiParams(0.2, 1.0))

    def test_halved_step_bound_is_caught(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        b = FiniteOperator(pt2, p.entries + np.diag([0.01, -0.003]))
        cert = interpolation_certificate(p, b, QuasiParams(0.1, 1.0))
        half = HomotopyCertificate("even", cert.samples, cert.params,
                                   [cert.step_bounds[0] / 2])
        ok, rep = verify_certificate(half)
        assert not ok
        assert [(i, msg.split(" ")[:3]) for i, msg in rep["failures"]] == [
            (0, ["recorded", "step", "bound"])]
        assert "below actual" in rep["failures"][0][1]

    def test_step_across_the_band_is_caught(self, rng):
        # p and 1 - p are both quasi-projections, ||2p - 1|| is about 1
        s = SampledSpace.from_distance_matrix(np.zeros((1, 1)), internal_dims=[6])
        params = QuasiParams(0.1, 1.0)
        p, _ = random_quasi_projection(s, params, rng, rank=3)
        q = FiniteOperator.identity(s, unitized=False) - p
        assert is_quasi_projection(p, params)[0] and is_quasi_projection(q, params)[0]
        steps = step_norms([p, q])
        assert abs(steps[0] - 1) < 0.1
        ok, rep = verify_certificate(HomotopyCertificate("even", [p, q], params, steps))
        assert not ok
        assert [(i, msg.split(" by ")[0]) for i, msg in rep["failures"]] == [
            (0, "step margin violated")]

    def test_rank_constant_along_certificate(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        shift = np.diag([0.002, -0.002]).astype(complex)
        b = FiniteOperator(pt2, p.entries + shift)
        cert = interpolation_certificate(p, b, QuasiParams(0.1, 1.0))
        profile = certificate_rank_profile(cert)
        assert len(set(profile)) == 1


class TestSpectralBand:
    def test_band_radius_value(self):
        assert spectral_band_radius(0.1) == pytest.approx(
            (math.sqrt(1.4) - 1) / 2)

    def test_generated_suite_respects_band(self):
        s = SampledSpace.from_distance_matrix(np.zeros((1, 1)),
                                              internal_dims=[12])
        for eps in (0.01, 0.05, 0.1):
            a = spectral_band_radius(eps)
            for rng in trial_rngs(5, 20):
                p, _ = random_quasi_projection(s, QuasiParams(eps, 1.0), rng)
                lam = np.linalg.eigvalsh(p.entries)
                inside = (np.abs(lam) <= a + 1e-9) | (np.abs(lam - 1) <= a + 1e-9)
                assert inside.all()

    def test_forbidden_band_shape(self):
        lo, hi = forbidden_band(0.09)
        assert lo == pytest.approx(0.1)
        assert hi == pytest.approx(0.9)


class TestControlPairs:
    def test_composed_lambda(self):
        a = ControlPair.constant(2.0, 2.0)
        b = ControlPair.constant(3.0, 2.0)
        c = compose_control_pairs(a, b)
        assert c.lam == pytest.approx(6.0)

    def test_constant_composition(self):
        a = ControlPair.constant(1.5, 2.0)
        b = ControlPair.constant(1.5, 2.0)
        c = compose_control_pairs(a, b)
        grid, vals = c.table(16)
        assert np.allclose(vals, 4.0)

    def test_near_neutral(self):
        a = ControlPair.constant(1.0 + 1e-9, 1.0 + 1e-9)
        q = QuasiParams(0.01, 1.0)
        out = apply_control_pair(a, q)
        assert out.eps == pytest.approx(0.01, rel=1e-8)
        assert out.r == pytest.approx(1.0, rel=1e-8)

    def test_apply(self):
        a = ControlPair.constant(2.0, 3.0)
        out = apply_control_pair(a, QuasiParams(0.01, 0.1))
        assert out.eps == pytest.approx(0.02)
        assert out.r == pytest.approx(0.3)

    def test_composition_matches_sequential(self):
        a = ControlPair.from_function(1.7, lambda e: 1.5 + 10 * e)
        b = ControlPair.from_function(2.1, lambda e: 2.0 + math.exp(-e))
        comp = compose_control_pairs(a, b)
        grid, _ = comp.table(64)
        for eps in grid:
            q = QuasiParams(eps, 1.0)
            lhs = apply_control_pair(comp, q)
            step = apply_control_pair(b, q)
            rhs = apply_control_pair(a, step)
            assert lhs.eps == pytest.approx(rhs.eps, rel=1e-12)
            assert lhs.r == pytest.approx(rhs.r, rel=1e-12)

    def test_associativity(self):
        a = ControlPair.from_function(1.3, lambda e: 1.2 + 5 * e)
        b = ControlPair.from_function(1.4, lambda e: 1.1 + 1 / (1 + e))
        c = ControlPair.from_function(1.5, lambda e: 2.0 + e ** 0.5)
        left = compose_control_pairs(compose_control_pairs(a, b), c)
        right = compose_control_pairs(a, compose_control_pairs(b, c))
        grid, lv = left.table(64)
        _, rv = right.table(64)
        assert np.allclose(lv, rv, rtol=1e-12)
        assert left.lam == pytest.approx(right.lam, rel=1e-12)

    def test_domain_collapse(self):
        a = ControlPair.constant(4e8, 2.0)
        b = ControlPair.constant(4e8, 2.0)
        with pytest.raises(DomainError):
            compose_control_pairs(a, b)

    def test_relaxed_constant_k_cancels(self):
        h = ControlPair.from_function(2.0, lambda e: 3.0 + e)
        k = ControlPair.constant(1.5, 7.0)
        q = QuasiParams(0.01, 1.0)
        out = relaxed_params(k, h, q)
        assert out.eps == pytest.approx(2.0 * 0.01)
        assert out.r == pytest.approx(h(1.5 * 0.01), rel=1e-9)

    def test_relaxed_matching_pair(self):
        h = ControlPair.from_function(1.01, lambda e: 2.0 + 50 * e)
        q = QuasiParams(0.01, 1.0)
        out = relaxed_params(h, h, q)
        expect = h(1.01 * 0.01) * h(0.01) / h(1.01 * 0.01)
        assert out.r == pytest.approx(expect, rel=1e-9)

    def test_relaxed_numeric_spot_check(self):
        h = ControlPair.from_function(1.5, lambda e: 1.0 + 1.0 / (1 + 10 * e))
        k = ControlPair.from_function(1.2, lambda e: 3.0 - 5 * e)
        q = QuasiParams(0.01, 2.0)
        out = relaxed_params(k, h, q)
        expect_r = h(1.2 * 0.01) * k(0.01) / k(1.5 * 0.01) * 2.0
        assert out.eps == pytest.approx(0.015)
        assert out.r == pytest.approx(expect_r, rel=1e-9)


def test_random_quasi_unitary_meets_declared_level():
    from coarsek.generators import random_quasi_unitary
    d = 0.2 * np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    space = SampledSpace.from_distance_matrix(d, internal_dims=np.full(6, 2))
    params = QuasiParams(0.05, 0.5)
    for rng in trial_rngs(8, 10):
        u = random_quasi_unitary(space, params, rng)
        ok, wit = is_quasi(u, "odd", params)
        assert ok, wit


def test_kappa_even_preserves_scalar_tag(fat5, rng):
    p = random_blockdiag_quasi_projection(fat5, rng, [1, 0, 0, 1, 2])
    rep = stabilize(KClassRep("even", p.with_scalar(0.0),
                              QuasiParams(0.1, 0.5)), 2)
    chi = kappa_even(rep.rep)
    assert chi.scalar is not None
    assert scalar_rank(chi) == rep.ell
    m = chi.concrete()
    assert opnorm(m @ m - m) <= 1e-12


def test_stabilize_odd_parity(pt2):
    u = FiniteOperator.identity(pt2, unitized=True)
    rep = KClassRep("odd", u, QuasiParams(0.05, 1.0))
    big = stabilize(rep, 3)
    assert big.ell == 0
    assert big.rep.amplification == 4
    ok, wit = is_quasi(big.rep, "odd", big.params)
    assert ok, wit


class TestOneRule:
    """Membership is the certificate rule on the one-sample path."""

    @staticmethod
    def one_sample_verdict(x, parity, params):
        cert = HomotopyCertificate(parity, [x], params)
        return judge_certificate(cert, [measure(x, parity)], [])[0]

    @pytest.fixture(scope="class")
    def line(self):
        return uniform_edge_space(6, fiber_dim=2)

    @pytest.fixture(scope="class")
    def even_element(self, line):
        p, _ = random_quasi_projection(line, QuasiParams(0.1, 2.0),
                                       np.random.default_rng(3))
        return p

    @pytest.fixture(scope="class")
    def odd_element(self, line):
        return random_quasi_unitary(line, QuasiParams(0.1, 2.0),
                                    np.random.default_rng(4))

    @staticmethod
    def asymmetric(p, herm):
        """p plus i herm/2 at one diagonal entry: herm_defect is herm."""
        m = p.entries.copy()
        m[0, 0] += 0.5j * herm
        return FiniteOperator(p.space, m)

    @pytest.mark.parametrize("eps_factor", [1 - 1e-9, 1.0, 1 + 1e-9])
    @pytest.mark.parametrize("r_factor", [1 - 1e-9, 1.0, 1 + 1e-9])
    @pytest.mark.parametrize("herm_factor", [None, 1 - 1e-6, 1 + 1e-6])
    def test_even_bounds(self, even_element, eps_factor, r_factor,
                         herm_factor):
        p = even_element
        if herm_factor is not None:
            p = self.asymmetric(p, herm_factor * HERM_TOL)
            assert (herm_defect(p) > HERM_TOL) == (herm_factor > 1)
        defect, prop = projection_defect(p), propagation(p)
        params = QuasiParams(defect * eps_factor, prop * r_factor)
        ok, wit = is_quasi_projection(p, params)
        assert ok == self.one_sample_verdict(p, "even", params)
        assert ok == (herm_defect(p) <= HERM_TOL and defect < params.eps
                      and prop < params.r)
        assert ok == (eps_factor > 1 and r_factor > 1
                      and (herm_factor is None or herm_factor < 1))
        assert list(wit) == ["herm_defect", "projection_defect",
                             "propagation", "eps", "r"]

    @pytest.mark.parametrize("eps_factor", [1 - 1e-9, 1.0, 1 + 1e-9])
    @pytest.mark.parametrize("r_factor", [1 - 1e-9, 1.0, 1 + 1e-9])
    def test_odd_bounds(self, odd_element, eps_factor, r_factor):
        u = odd_element
        left, right = unitary_defects(u)
        prop = propagation(u)
        params = QuasiParams(max(left, right) * eps_factor, prop * r_factor)
        ok, wit = is_quasi(u, "odd", params)
        assert ok == self.one_sample_verdict(u, "odd", params)
        assert ok == (left < params.eps and right < params.eps
                      and prop < params.r)
        assert ok == (eps_factor > 1 and r_factor > 1)
        assert list(wit) == ["left_defect", "right_defect", "propagation",
                             "eps", "r"]

    def test_odd_parity_ignores_self_adjointness(self, pt2):
        u = FiniteOperator(pt2, np.diag([1.0, 1j]))
        assert herm_defect(u) > HERM_TOL
        assert is_quasi(u, "odd", QuasiParams(0.01, 1.0))[0]

    def test_unknown_parity(self, pt2):
        p = diag_op(pt2, [1.0, 0.0])
        with pytest.raises(DomainError):
            is_quasi(p, "neither", QuasiParams(0.1, 1.0))
        with pytest.raises(DomainError):
            measure(p, "neither")


def old_random_quasi_projection(space, params, rng, amplification=1,
                                rank=None):
    """The generator with its own eigenvalue reading, as it was before it
    called ``projection_defect`` and ``chi_rank``; the oracle below."""
    from coarsek.generators import band_mask, banded_near_unitary
    n = amplification * space.total_dim
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    diag01 = np.zeros(n)
    diag01[rng.permutation(n)[:rank]] = 1.0
    mask = band_mask(space, amplification, params.r)
    noise_level = params.eps / 2
    strength = min(0.25, 3 * params.eps)
    for _ in range(8):
        noise = rng.uniform(-noise_level, noise_level, size=n)
        d = diag01 + noise
        v = banded_near_unitary(space, params.r / 3, rng, amplification,
                                strength=strength)
        m = (v * d) @ v.conj().T
        m = m * mask
        m = (m + m.conj().T) / 2
        lam = np.linalg.eigvalsh(m)
        defect = float(np.abs(lam * lam - lam).max())
        if defect < 0.9 * params.eps and int((lam > 0.5).sum()) == rank:
            return m, rank
        noise_level /= 2
    raise DomainError("could not reach the requested quasi-projection level")


def old_k0_blocks(p):
    """Per-point (defect, chi-rank) read inline from the symmetrized block,
    as ``k0_points`` did before it called the shared readings."""
    out = []
    m = p.concrete()
    for j in range(len(p.space)):
        coords = coordinates_of(p.space, p.amplification, [j])
        block = m[np.ix_(coords, coords)]
        lam = np.linalg.eigvalsh((block + block.conj().T) / 2)
        out.append((float(np.abs(lam * lam - lam).max(initial=0.0)),
                    int((lam > 0.5).sum())))
    return out


class TestSharedSpectralReadings:
    @given(seed=st.integers(0, 10_000), fiber=st.integers(1, 3),
           eps=st.sampled_from([0.02, 0.1, 0.2]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_generator_matches_inline_reading(self, seed, fiber, eps, data):
        space = uniform_edge_space(5, fiber_dim=fiber)
        rank = data.draw(st.integers(0, space.total_dim))
        params = QuasiParams(eps, 0.8)
        rng_new, rng_old = (np.random.default_rng(seed) for _ in range(2))
        try:
            want = old_random_quasi_projection(space, params, rng_old,
                                               rank=rank)
        except DomainError:
            with pytest.raises(DomainError):
                random_quasi_projection(space, params, rng_new, rank=rank)
            return
        p, got_rank = random_quasi_projection(space, params, rng_new,
                                              rank=rank)
        assert got_rank == want[1]
        assert np.array_equal(p.entries, want[0])
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @given(seed=st.integers(0, 10_000),
           dims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
           noise=st.sampled_from([0.0, 0.02, 0.2]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_k0_points_matches_inline_reading(self, seed, dims, noise, data):
        n = len(dims)
        d = np.ones((n, n))
        np.fill_diagonal(d, 0.0)
        space = SampledSpace.from_distance_matrix(d, internal_dims=dims)
        ranks = [data.draw(st.integers(0, k)) for k in dims]
        p = random_blockdiag_quasi_projection(
            space, np.random.default_rng(seed), ranks, noise=noise)
        want = old_k0_blocks(p)
        m = p.concrete()
        for j, (defect, rank) in enumerate(want):
            coords = coordinates_of(space, 1, [j])
            block = m[np.ix_(coords, coords)]
            block = (block + block.conj().T) / 2
            assert repr(projection_defect(block)) == repr(defect)
            assert chi_rank(block) == rank
        params = QuasiParams(0.2, 0.5)
        if is_quasi_projection(p, params)[0]:
            assert list(k0_points(p, params)) == [rank for _, rank in want]
