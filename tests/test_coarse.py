import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_report
from coarsek import coarse
from coarsek.coarse import (
    CoarseMap,
    CoverIsometry,
    LipschitzHomotopy,
    _certify_path,
    ad,
    concatenate_certificates,
    delta_cover,
    expansion_function,
    homotopy_invariance_certificate,
    partition_homotopy,
    rotation_homotopy,
    swap_unitary,
)
from coarsek.controlled import (
    QuasiParams,
    is_quasi,
    measure,
    projection_defect,
    verify_certificate,
)
from coarsek.errors import CapacityError, CertificateError, DomainError
from coarsek.generators import (
    phase_unitary,
    random_banded,
    random_quasi_projection,
    trial_rngs,
)
from coarsek.geometry import (SampledSpace, build_complex, discretize,
                              uniform_edge_space)
from coarsek.operator import FiniteOperator, direct_sum, opnorm, propagation


@pytest.fixture(scope="module")
def edge_fine():
    return discretize(build_complex([(0, 1)]), 0.12)


@pytest.fixture(scope="module")
def edge_fat():
    return discretize(build_complex([(0, 1)]), 0.12, fiber_dim=2)


@pytest.fixture(scope="module")
def line5():
    d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
    return SampledSpace.from_distance_matrix(d)


def arc_sorted_ids(space):
    def angle(p):
        if p.carrier == (0,):
            return 0.0
        if p.carrier == (1,):
            return math.pi / 2
        return math.atan2(p.coords[1], p.coords[0])
    return sorted(range(len(space)), key=lambda i: angle(space.points[i]))


class TestExpansion:
    def test_identity_below_r(self, line5):
        f = CoarseMap.identity(line5)
        for r in (0.5, 1.5, 3.2):
            assert expansion_function(f, r) < r

    def test_constant_map(self, line5):
        f = CoarseMap(line5, line5, np.zeros(5, dtype=int))
        assert expansion_function(f, 2.0) == 0.0

    def test_doubling_map(self):
        # positions 0..9 on a line; f doubles the index (clamped)
        d = np.abs(np.subtract.outer(np.arange(10.0), np.arange(10.0)))
        s = SampledSpace.from_distance_matrix(d)
        f = CoarseMap(s, s, np.minimum(2 * np.arange(10), 9))
        # brute-force oracle over all pairs
        for r in (1.5, 2.5, 3.5):
            expect = 0.0
            for i in range(10):
                for j in range(10):
                    if d[i, j] < r:
                        expect = max(expect, d[f(i), f(j)])
            assert expansion_function(f, r) == pytest.approx(expect)
            assert expect >= 2 * (math.ceil(r) - 1) - 1e-12


class TestDeltaCover:
    def test_identity_equal_fibers(self, line5):
        v = delta_cover(CoarseMap.identity(line5), 0.5)
        assert np.allclose(v.matrix, np.eye(5))

    def test_two_sources_one_target(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        src = SampledSpace.from_distance_matrix(d, internal_dims=[1, 1])
        tgt = SampledSpace.from_distance_matrix(d, internal_dims=[3, 1])
        f = CoarseMap(src, tgt, [0, 0])
        v = delta_cover(f, 0.5)
        assert v.matrix.shape == (4, 2)
        assert np.allclose(v.matrix.conj().T @ v.matrix, np.eye(2))
        # both source fibers stack into the first target fiber
        assert np.abs(v.matrix[:3]).sum() == 2

    def test_support_condition_exhaustive(self, edge_fine, rng):
        n = len(edge_fine)
        assignment = rng.permutation(n)
        f = CoarseMap(edge_fine, edge_fine, assignment)
        v = delta_cover(f, 0.4)
        assert v.support_violations() == []
        for (y, x) in support_pairs_of_cover(v):
            assert edge_fine.dist[y, f(x)] < 0.4

    def test_capacity_error_names_point(self):
        d = np.array([[0.0, 9.0], [9.0, 0.0]])
        src = SampledSpace.from_distance_matrix(d, internal_dims=[2, 2])
        tgt = SampledSpace.from_distance_matrix(d, internal_dims=[1, 3])
        f = CoarseMap(src, tgt, [0, 1])
        with pytest.raises(CapacityError) as err:
            delta_cover(f, 0.5)
        assert "0" in str(err.value)

    def test_bias_variants_differ(self, edge_fine, edge_fat):
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        v1 = delta_cover(f, 0.3)
        v2 = delta_cover(f, 0.3, bias="pack-high")
        assert not np.allclose(v1.matrix, v2.matrix)
        assert v1.support_violations() == v2.support_violations() == []


def loop_support_violations(v, tau=1e-12):
    """The exhaustive point-pair scan, kept as the oracle for
    ``CoverIsometry.support_violations``."""
    src, tgt = v.map.source, v.map.target
    out = []
    for y in range(len(tgt)):
        ys = slice(tgt.offsets[y], tgt.offsets[y + 1])
        for x in range(len(src)):
            xs = slice(src.offsets[x], src.offsets[x + 1])
            if np.abs(v.matrix[ys, xs]).max(initial=0.0) > tau:
                if not tgt.dist[y, v.map(x)] < v.delta:
                    out.append((y, x))
    return out


@pytest.fixture(scope="module")
def cover_map():
    """The certify workload's map: the edge at mesh 0.08 into its fat copy."""
    edge = build_complex([(0, 1)])
    thin = discretize(edge, 0.08)
    fat = discretize(edge, 0.08, fiber_dim=2)
    return CoarseMap(thin, fat, np.random.default_rng(0).permutation(len(thin)))


@given(seed=st.integers(0, 10_000), fill=st.sampled_from([0.05, 0.3, 1.0]),
       delta=st.floats(0.01, 2.0))
@settings(max_examples=60, deadline=None)
def test_support_violations_match_the_pair_scan(cover_map, seed, fill, delta):
    src, tgt = cover_map.source, cover_map.target
    rng = np.random.default_rng(seed)
    n, m = tgt.total_dim, src.total_dim
    entries = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    entries *= rng.random((n, m)) < fill
    entries[rng.random((n, m)) < 0.1] = 1e-13  # held, but below tau
    v = object.__new__(CoverIsometry)  # any matrix, not only isometries
    v.map, v.delta, v.matrix = cover_map, delta, entries
    got = v.support_violations()
    assert got == loop_support_violations(v)
    assert all(type(i) is int for pair in got for i in pair)


def support_pairs_of_cover(v):
    src, tgt = v.map.source, v.map.target
    out = []
    for y in range(len(tgt)):
        for x in range(len(src)):
            blk = v.matrix[tgt.offsets[y]:tgt.offsets[y + 1],
                           src.offsets[x]:src.offsets[x + 1]]
            if np.abs(blk).max(initial=0.0) > 1e-12:
                out.append((y, x))
    return out


class TestAd:
    def test_identity_cover_fixes_operators(self, line5, rng):
        v = delta_cover(CoarseMap.identity(line5), 0.5)
        p, _ = random_quasi_projection(line5, QuasiParams(0.1, 1.5), rng)
        assert np.allclose(ad(v, p).concrete(), p.concrete())

    def test_propagation_bound(self, edge_fine, edge_fat):
        # snapped contraction toward the 0-vertex; fat target fibers keep
        # the greedy packing feasible where images pile up
        ids = arc_sorted_ids(edge_fine)
        rank = {j: k for k, j in enumerate(ids)}
        assignment = np.array([ids[max(0, rank[i] - 2)]
                               for i in range(len(edge_fine))])
        f = CoarseMap(edge_fine, edge_fat, assignment)
        delta = 0.3
        v = delta_cover(f, delta)
        for rng in trial_rngs(3, 8):
            r = 0.35
            p, _ = random_quasi_projection(edge_fine, QuasiParams(0.1, r), rng)
            out = ad(v, p)
            omega = expansion_function(f, r)
            assert propagation(out) < omega + 2 * delta + 1e-12

    def test_ad_preserves_quasi_params(self, edge_fine, edge_fat, rng):
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        v = delta_cover(f, 0.2, bias="pack-high")
        p, _ = random_quasi_projection(edge_fine, QuasiParams(0.1, 0.3), rng)
        out = ad(v, p)
        assert projection_defect(out) <= projection_defect(p) + 1e-12
        assert opnorm(out) <= opnorm(p) + 1e-12

    def test_unitization_transport(self, edge_fine, edge_fat, rng):
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        v = delta_cover(f, 0.2, bias="pack-high")
        angles = rng.uniform(0, 2 * np.pi, size=len(edge_fine))
        u = phase_unitary(edge_fine, angles)
        out = ad(v, u)
        assert out.scalar is not None
        ok, wit = is_quasi(out, "odd", QuasiParams(0.01, 0.5))
        assert ok, wit


class TestSwapAndRotation:
    def test_swap_unitary_is_selfadjoint_unitary(self, edge_fine, edge_fat):
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        v1 = delta_cover(f, 0.25)
        v2 = delta_cover(f, 0.25, bias="pack-high")
        u = swap_unitary(v1.matrix, v2.matrix)
        n = u.shape[0]
        assert np.allclose(u, u.conj().T, atol=1e-12)
        assert np.allclose(u @ u, np.eye(n), atol=1e-12)

    def test_same_cover_swap(self, edge_fine, rng):
        f = CoarseMap.identity(edge_fine)
        v = delta_cover(f, 0.25)
        params = QuasiParams(0.1, 0.3)
        p, _ = random_quasi_projection(edge_fine, params, rng)
        cert = rotation_homotopy(v, v, p, params)
        ok, rep = verify_certificate(cert)
        assert ok, rep["failures"]

    def test_rotation_is_judged_as_the_verifier_judges(self, edge_fine,
                                                        edge_fat, rng, judged):
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        v1 = delta_cover(f, 0.25)
        v2 = delta_cover(f, 0.25, bias="pack-high")
        params = QuasiParams(0.1, 0.3)
        p, _ = random_quasi_projection(edge_fine, params, rng)
        cert = rotation_homotopy(v1, v2, p, params)
        built = judged[-1]
        assert_same_report(built, verify_certificate(cert)[1])

    def test_too_few_steps_allowed(self, edge_fine, edge_fat, rng, monkeypatch):
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        v1 = delta_cover(f, 0.25)
        v2 = delta_cover(f, 0.25, bias="pack-high")
        params = QuasiParams(0.1, 0.3)
        p, _ = random_quasi_projection(edge_fine, params, rng)
        monkeypatch.setattr(coarse, "MAX_STEPS", 4)
        with pytest.raises(CertificateError, match="would need 8 > 4"):
            rotation_homotopy(v1, v2, p, params)

    def test_endpoint_placements(self, edge_fine, edge_fat, rng):
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        v1 = delta_cover(f, 0.25)
        v2 = delta_cover(f, 0.25, bias="pack-high")
        params = QuasiParams(0.1, 0.3)
        p, _ = random_quasi_projection(edge_fine, params, rng)
        cert = rotation_homotopy(v1, v2, p, params)
        start, end = cert.endpoints()
        n = edge_fat.total_dim
        a1 = ad(v1, p).concrete()
        a2 = ad(v2, p).concrete()
        expect_start = np.zeros((4 * n, 4 * n), complex)
        expect_start[:n, :n] = a1
        expect_end = np.zeros((4 * n, 4 * n), complex)
        expect_end[n:2 * n, n:2 * n] = a2
        assert np.allclose(start.concrete(), expect_start, atol=1e-12)
        assert np.allclose(end.concrete(), expect_end, atol=1e-12)

    def test_endpoint_placements_at_amplification_two(self, edge_fine,
                                                      edge_fat, rng):
        # the swap unitary acts on each of the two copies of each half
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        v1 = delta_cover(f, 0.25)
        v2 = delta_cover(f, 0.25, bias="pack-high")
        params = QuasiParams(0.1, 0.3)
        p = direct_sum([random_quasi_projection(edge_fine, params, rng)[0]
                        for _ in range(2)])
        cert = rotation_homotopy(v1, v2, p, params)
        ok, rep = verify_certificate(cert)
        assert ok, rep["failures"]
        start, end = cert.endpoints()
        zeros = [FiniteOperator.zeros(edge_fat, k) for k in (2, 4, 6)]
        expect_start = direct_sum([ad(v1, p), zeros[2]])
        expect_end = direct_sum([zeros[0], ad(v2, p), zeros[1]])
        assert start.amplification == end.amplification == 8
        assert np.allclose(start.concrete(), expect_start.concrete(), atol=1e-12)
        assert np.allclose(end.concrete(), expect_end.concrete(), atol=1e-12)

    def test_samples_respect_r_plus_8delta(self, edge_fine, edge_fat):
        f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
        delta = 0.25
        v1 = delta_cover(f, delta)
        v2 = delta_cover(f, delta, bias="pack-high")
        params = QuasiParams(0.1, 0.3)
        for rng in trial_rngs(11, 5):
            p, _ = random_quasi_projection(edge_fine, params, rng)
            omega = expansion_function(f, params.r)
            cert = rotation_homotopy(v1, v2, p, params)
            for s in cert.samples:
                assert propagation(s) < omega + 8 * delta + 1e-9
                assert projection_defect(s) <= projection_defect(p) + 1e-9

    def test_asymptotic_inverse_composition(self, edge_fat, rng):
        # covers of the identity in both directions (between two module
        # structures of equal size) compose to something rotation-homotopic
        # to the original at (eps, r + 32 delta)
        delta = 0.2
        ident = CoarseMap.identity(edge_fat)
        v1 = delta_cover(ident, delta, bias="pack-high")
        v2 = delta_cover(ident, delta)
        w_mat = v2.matrix @ v1.matrix
        from coarsek.coarse import CoverIsometry
        w = CoverIsometry(ident, 2 * delta, w_mat)
        plain = CoverIsometry(ident, 2 * delta,
                              np.eye(edge_fat.total_dim))
        params = QuasiParams(0.1, 0.25)
        p, _ = random_quasi_projection(edge_fat, params, rng)
        assert opnorm(ad(w, p) - p) > 1e-3  # the composition genuinely moves p
        cert = rotation_homotopy(w, plain, p, params)
        ok, rep = verify_certificate(cert)
        assert ok, rep["failures"]
        assert rep["r"] <= params.r + 32 * delta


class TestPartition:
    def slide_frames(self, space, hops, step=1):
        ids = arc_sorted_ids(space)
        rank = {j: k for k, j in enumerate(ids)}
        frames = []
        for h in range(hops + 1):
            assignment = np.array([ids[min(len(ids) - 1, rank[i] + h * step)]
                                   for i in range(len(space))])
            frames.append(CoarseMap(space, space, assignment))
        return frames

    def test_constant_homotopy(self, edge_fine):
        f = CoarseMap.identity(edge_fine)
        hom = LipschitzHomotopy([f, f, f])
        assert partition_homotopy(hom, 0.05) == [0, 2]

    def test_slide_produces_expected_cuts(self, edge_fine):
        frames = self.slide_frames(edge_fine, hops=5)
        hom = LipschitzHomotopy(frames)
        spacing = max(hom.displacement_table)
        idx = partition_homotopy(hom, spacing * 1.05)
        assert idx[0] == 0 and idx[-1] == 5
        for a, b in zip(idx, idx[1:]):
            assert frames[a].displacement(frames[b]) < spacing * 1.05

    def test_delta_larger_than_displacement(self, edge_fine):
        frames = self.slide_frames(edge_fine, hops=3)
        hom = LipschitzHomotopy(frames)
        assert partition_homotopy(hom, 10.0) == [0, 3]

    def test_too_coarse_frames_rejected(self, edge_fine):
        frames = self.slide_frames(edge_fine, hops=2)
        hom = LipschitzHomotopy(frames)
        with pytest.raises(CertificateError):
            partition_homotopy(hom, 1e-6)


def edge_onehop_slide(n=20):
    """One-hop slide toward vertex 1 on an arc-uniform edge, clamped at the
    end; the clamp vertex carries a 2-dimensional fiber so the single
    collision stays coverable.  Net slides of two or more hops on an
    interval admit no finite-dimensional covers at small delta (the flux
    into the terminal ball always exceeds its capacity), so one hop is the
    honest maximum here."""
    from coarsek.geometry import uniform_edge_space as _ue
    base = _ue(n)
    dims = np.ones(n, dtype=int)
    dims[n - 1] = 2
    space = SampledSpace(base.points, base.dist, dims, mesh=base.mesh)
    frames = [CoarseMap.identity(space),
              CoarseMap(space, space,
                        np.minimum(np.arange(n) + 1, n - 1))]
    return space, LipschitzHomotopy(frames)


def circle_rotation_slide(k=8, hops=3):
    """Rotation slide on a circle: every frame is a sample permutation, so
    covers exist at any positive delta and the partition keeps all frames."""
    from coarsek.geometry import circle_space
    _, space, order = circle_space(k)
    frames = []
    n = len(order)
    for h in range(hops + 1):
        assignment = np.empty(n, dtype=int)
        assignment[order] = order[np.roll(np.arange(n), -h)]
        frames.append(CoarseMap(space, space, assignment))
    return space, LipschitzHomotopy(frames)


class TestHomotopyInvariance:
    def test_constant_homotopy_reduces_to_rotation_case(self, edge_fine, rng):
        f = CoarseMap.identity(edge_fine)
        hom = LipschitzHomotopy([f])
        angles = rng.uniform(0, 1.0, size=len(edge_fine))
        u = phase_unitary(edge_fine, angles)
        params = QuasiParams(0.01, 0.2)
        cert, report = homotopy_invariance_certificate(hom, u, params, 0.1)
        assert report["frames_used"] == 1
        ok, _ = verify_certificate(cert)
        assert ok

    def test_sliding_pipeline_edge(self, rng):
        space, hom = edge_onehop_slide(n=20)
        delta = max(hom.displacement_table) * 1.2
        angles = np.linspace(0, 1.5, len(space))
        base = phase_unitary(space, angles)
        noise = rng.standard_normal(space.total_dim)
        noise = np.diag(0.003 * noise / np.abs(noise).max())
        u = FiniteOperator(space, base.entries + noise, 1, base.scalar)
        params = QuasiParams(0.01, 0.2)
        c = hom.lipschitz_bound
        assert c <= 2.0
        cert, report = homotopy_invariance_certificate(hom, u, params, delta)
        assert report["achieved_eps"] <= 21 * params.eps + 1e-9
        assert report["achieved_r"] <= 5 * (c * params.r + 4 * delta) + 1e-9
        assert report["bound_r"] == pytest.approx(5 * (c * params.r + 4 * delta))
        assert report["stated_bound_r"] == pytest.approx(
            5 * (c * params.r + 2 * delta))
        start, end = cert.endpoints()
        m = report["frames_used"]
        assert start.amplification == end.amplification == 2 * m

    def test_sliding_pipeline_circle_multiframe(self, rng):
        space, hom = circle_rotation_slide(k=8, hops=3)
        delta = max(hom.displacement_table) * 1.2
        angles = np.cos(np.linspace(0, 2 * np.pi, len(space), endpoint=False))
        u = phase_unitary(space, angles)
        params = QuasiParams(0.01, 1.0)
        cert, report = homotopy_invariance_certificate(hom, u, params, delta)
        assert report["frames_used"] == 4
        assert report["achieved_eps"] <= 21 * params.eps + 1e-9
        ok, rep = verify_certificate(cert)
        assert ok, rep["failures"]

    def test_assembly_is_judged_as_the_verifier_judges(self, judged):
        space, hom = edge_onehop_slide(n=12)
        delta = max(hom.displacement_table) * 1.2
        u = phase_unitary(space, np.linspace(0, 1.5, len(space)))
        cert, report = homotopy_invariance_certificate(
            hom, u, QuasiParams(0.01, 0.2), delta)
        built = judged[-1]
        verified = verify_certificate(cert)[1]
        assert_same_report(built, verified)
        assert repr(report["achieved_eps"]) == repr(verified["worst_defect"])
        assert repr(report["achieved_r"]) == repr(verified["worst_propagation"])


class TestCertifyPath:
    @staticmethod
    def rotating_projection(angle, calls):
        """Path t -> u(angle t) diag(1, 0) u(angle t)* on one point with a
        2-dimensional fiber, recording every sampled t."""
        space = SampledSpace.from_distance_matrix(np.zeros((1, 1)),
                                                  internal_dims=[2])

        def sample(t):
            calls.append(t)
            c, s = math.cos(angle * t), math.sin(angle * t)
            u = np.array([[c, -s], [s, c]], dtype=complex)
            return FiniteOperator(space, u @ np.diag([1.0, 0.0]) @ u.T)
        return sample

    def test_probe_is_the_certificate_when_eight_steps_suffice(self):
        calls = []
        sample = self.rotating_projection(math.pi / 2, calls)
        cert, measured = _certify_path(sample, "even", QuasiParams(0.1, 1.0))
        assert len(calls) == 9 and len(cert) == 9
        assert measured == [measure(s, "even") for s in cert.samples]
        assert verify_certificate(cert)[0]

    def test_resamples_only_when_the_budget_needs_more_steps(self):
        calls = []
        sample = self.rotating_projection(math.pi / 2, calls)
        cert, _ = _certify_path(sample, "even", QuasiParams(0.01, 1.0))
        assert len(cert) > 9
        assert len(calls) == 9 + len(cert)
        assert verify_certificate(cert)[0]


def test_concatenate_certificates_tracks_junctions(pt_space=None):
    d = np.zeros((1, 1))
    s = SampledSpace.from_distance_matrix(d, internal_dims=[2])
    p = FiniteOperator(s, np.diag([1.0, 0.0]).astype(complex))
    q = FiniteOperator(s, np.diag([0.98, 0.0]).astype(complex))
    from coarsek.controlled import interpolation_certificate
    c1 = interpolation_certificate(p, q, QuasiParams(0.2, 1.0))
    c2 = interpolation_certificate(q, p, QuasiParams(0.2, 1.0))
    joined = concatenate_certificates([c1, c2])
    assert len(joined) == 4
    ok, _ = verify_certificate(joined)
    assert ok


def test_ad_is_multiplicative_for_exact_isometries(edge_fine, edge_fat, rng):
    # the measured discrepancy is zero because V*V = 1 exactly, which sits
    # far inside the ||T|| ||S|| ||1 - V V*|| ceiling
    f = CoarseMap(edge_fine, edge_fat, np.arange(len(edge_fine)))
    v = delta_cover(f, 0.2, bias="pack-high")
    t = random_banded(edge_fine, 0.3, rng)
    s = random_banded(edge_fine, 0.3, rng)
    lhs = opnorm(ad(v, t @ s) - ad(v, t) @ ad(v, s))
    proj = v.matrix @ v.matrix.conj().T
    ceiling = opnorm(t) * opnorm(s) * opnorm(np.eye(proj.shape[0]) - proj)
    assert lhs <= 1e-12
    assert lhs <= ceiling + 1e-12
