import numpy as np
import pytest

from coarsek.controlled import projection_defect
from coarsek.errors import DomainError, PropagationError, VerificationFailure
from coarsek.generators import (
    phase_unitary,
    random_banded,
    random_region_supported,
    shift_unitary,
    trial_rngs,
)
from coarsek.geometry import (
    build_complex,
    circle_space,
    decompose,
    discretize,
    neighborhood,
)
from coarsek.mv import (
    CutFunction,
    MvPair,
    arc_positions,
    cia_midpoint,
    circle_cut,
    clutching_projection,
    coercive_split,
    local_index,
    split_masks,
    verify_weak_mv_pair,
)
from coarsek.operator import FiniteOperator, opnorm, propagation, restrict


@pytest.fixture(scope="module")
def circle_fine():
    # 3-gon circle sampled finely enough that r = 1/50 bands are nontrivial
    cx, space, order = circle_space(3, mesh=0.019)
    return cx, space, order


@pytest.fixture(scope="module")
def circle32():
    return circle_space(16)  # 32 samples


class TestCoerciveSplit:
    def masks(self, space, cx):
        x1, x2 = decompose(space, cx)
        return split_masks(x1, x2)

    def test_region_one_only(self, circle_fine, rng):
        cx, space, _ = circle_fine
        p1, p2, p3 = self.masks(space, cx)
        x = random_region_supported(space, p1, rng)
        a, b = coercive_split(x, (p1, p2, p3))
        assert np.allclose(a.concrete(), x.concrete())
        assert opnorm(b) == 0.0

    def test_identity_splits(self, circle_fine):
        cx, space, _ = circle_fine
        masks = self.masks(space, cx)
        one = FiniteOperator.identity(space, unitized=False)
        a, b = coercive_split(one, masks)
        assert np.allclose((a + b).concrete(), one.concrete())
        assert opnorm(a) <= 1.0 + 1e-12
        assert opnorm(b) <= 1.0 + 1e-12

    def test_random_banded_reconstruction_and_bounds(self, circle_fine):
        cx, space, _ = circle_fine
        masks = self.masks(space, cx)
        for rng in trial_rngs(21, 25):
            x = random_banded(space, 1 / 50, rng)
            a, b = coercive_split(x, masks)
            recon = np.abs((a + b - x).concrete()).max()
            assert recon <= 1e-15
            bound = 4 * opnorm(x)
            assert opnorm(a) <= bound and opnorm(b) <= bound

    def test_corner_violation_raises(self, circle_fine, rng):
        cx, space, _ = circle_fine
        masks = self.masks(space, cx)
        wide = random_banded(space, 0.5, rng)
        with pytest.raises(PropagationError):
            coercive_split(wide, masks)


class TestCiaMidpoint:
    def sigma_masks(self, space, cx, s):
        x1, x2 = decompose(space, cx)
        a1 = neighborhood(space, x1, 1 / 10 + s)
        a2 = neighborhood(space, x2, 1 / 10 + s)
        return split_masks(a1, a2)

    def test_shared_core(self, circle_fine, rng):
        cx, space, _ = circle_fine
        sig = self.sigma_masks(space, cx, 1 / 50)
        x = random_region_supported(space, sig[1], rng)
        z = cia_midpoint(x, x, sig, 1e-6)
        assert np.allclose(z.concrete(), x.concrete())

    def test_scalar_toy_midpoint(self):
        # three isolated points standing for the three regions
        d = np.full((3, 3), np.inf)
        np.fill_diagonal(d, 0.0)
        from coarsek.geometry import SampledSpace
        s = SampledSpace.from_distance_matrix(d)
        m1, m2, m3 = (np.eye(3, dtype=bool)[i] for i in range(3))
        x = FiniteOperator(s, np.diag([0.0, 0.4, 0.0]).astype(complex))
        y = FiniteOperator(s, np.diag([0.0, 0.6, 0.0]).astype(complex))
        z = cia_midpoint(x, y, (m1, m2, m3), 0.21)
        assert z.concrete()[1, 1] == pytest.approx(0.5)

    def test_distance_bound(self, circle_fine):
        cx, space, _ = circle_fine
        sig = self.sigma_masks(space, cx, 1 / 50)
        for rng in trial_rngs(33, 25):
            core = random_region_supported(space, sig[1], rng, norm=1.0)
            l1 = random_region_supported(space, sig[0] | sig[1], rng, norm=1.0)
            l2 = random_region_supported(space, sig[1] | sig[2], rng, norm=1.0)
            x = core + 0.05 * l1
            y = core + 0.05 * l2
            eps = opnorm(x - y) * (1 + 1e-9) + 1e-12
            z = cia_midpoint(x, y, sig, eps)
            assert opnorm(x - z) <= 4 * eps + 1e-9
            assert opnorm(y - z) <= 4 * eps + 1e-9

    def test_support_violation_raises(self, circle_fine, rng):
        cx, space, _ = circle_fine
        sig = self.sigma_masks(space, cx, 1 / 50)
        bad = random_region_supported(space, sig[2], rng)
        with pytest.raises(PropagationError):
            cia_midpoint(bad, bad, sig, 1.0)


class TestWeakMvPair:
    def test_circle_pair_passes(self, circle_fine):
        cx, space, _ = circle_fine
        pair = MvPair.from_decomposition(space, cx)
        rep = verify_weak_mv_pair(space, pair, trials=24, seed=7)
        assert rep["passed"], rep
        assert rep["worst_split_ratio"] <= 4.0
        assert rep["worst_cia_ratio"] <= 4.0
        assert rep["worst_reconstruction"] <= 1e-14

    def test_single_edge_pair(self):
        cx = build_complex([(0, 1)])
        space = discretize(cx, 0.05)
        pair = MvPair.from_decomposition(space, cx)
        rep = verify_weak_mv_pair(space, pair, trials=8, seed=9)
        assert rep["passed"]

    def test_triangle_pair(self):
        cx = build_complex([(0, 1, 2)])
        space = discretize(cx, 0.35, fiber_dim=2)
        pair = MvPair.from_decomposition(space, cx)
        rep = verify_weak_mv_pair(space, pair, trials=8, seed=11)
        assert rep["passed"]

    def test_two_triangles_shared_edge(self):
        cx = build_complex([(0, 1, 2), (1, 2, 3)])
        space = discretize(cx, 0.4, fiber_dim=2)
        pair = MvPair.from_decomposition(space, cx)
        rep = verify_weak_mv_pair(space, pair, trials=8, seed=13)
        assert rep["passed"]

    def test_table_is_plot_ready(self, circle_fine):
        cx, space, _ = circle_fine
        pair = MvPair.from_decomposition(space, cx)
        rep = verify_weak_mv_pair(space, pair, trials=8, seed=1)
        assert all(len(row) >= 4 for row in rep["table"])


class TestCutFunctions:
    def test_values_clamped(self):
        with pytest.raises(DomainError):
            CutFunction(np.array([0.5, 1.5]))

    @pytest.mark.parametrize("values", [[np.nan, np.nan], [0.5, np.nan], [-0.1, 0.5]])
    def test_values_outside_the_unit_interval(self, values):
        with pytest.raises(DomainError, match=r"cut values must lie in \[0, 1\]"):
            CutFunction(np.array(values))

    def test_circle_cut_plateaus(self, circle32):
        _, space, order = circle32
        phi, reg0, reg1 = circle_cut(space, order, width=0.1)
        pos = arc_positions(space, order)
        assert (phi.values[(pos > 0.15) & (pos < 0.35)] == 1.0).all()
        assert (phi.values[(pos > 0.65) & (pos < 0.85)] == 0.0).all()
        assert not (reg0 & reg1).any()


class TestClutching:
    def test_phi_zero_gives_uu_star(self, circle32, rng):
        _, space, order = circle32
        u = shift_unitary(space, order)
        phi = CutFunction(np.zeros(len(space)))
        p = clutching_projection(u, phi)
        n = space.total_dim
        expect = np.zeros((2 * n, 2 * n), complex)
        expect[:n, :n] = (u.concrete() @ u.concrete().conj().T)
        assert np.allclose(p.concrete(), expect, atol=1e-12)

    def test_identity_gives_exact_projection(self, circle32):
        _, space, order = circle32
        phi, _, _ = circle_cut(space, order)
        one = FiniteOperator.identity(space, unitized=False)
        p = clutching_projection(one, phi)
        assert projection_defect(p) <= 1e-12

    def test_defect_bound(self, circle32, rng):
        _, space, order = circle32
        phi, _, _ = circle_cut(space, order)
        u = shift_unitary(space, order)
        noise = random_banded(space, 0.9, rng, norm=0.05)
        u_noisy = FiniteOperator(space, u.entries + noise.entries)
        p = clutching_projection(u_noisy, phi)
        from coarsek.controlled import unitary_defects
        w_norm = 1 + 0.05
        assert projection_defect(p) <= w_norm ** 2 * max(
            unitary_defects(u_noisy)) + 1e-9

    def test_propagation_bound(self, circle32, rng):
        _, space, order = circle32
        phi, _, _ = circle_cut(space, order)
        u = shift_unitary(space, order, power=2)
        p = clutching_projection(u, phi)
        assert propagation(p) <= 2 * propagation(u) + 1e-9

    def test_continuity_in_u(self, circle32):
        _, space, order = circle32
        phi, _, _ = circle_cut(space, order)
        worst = 0.0
        for rng in trial_rngs(17, 10):
            u = shift_unitary(space, order)
            pert = random_banded(space, 0.9, rng, norm=0.02)
            u2 = FiniteOperator(space, u.entries + pert.entries)
            d = opnorm(clutching_projection(u, phi)
                       - clutching_projection(u2, phi))
            worst = max(worst, d / 0.02)
            assert d <= 4 * opnorm(u - u2) + 1e-9
        assert worst <= 4.0


class TestLocalIndex:
    def test_identity_is_zero(self, circle32):
        _, space, order = circle32
        phi, reg0, reg1 = circle_cut(space, order)
        one = FiniteOperator.identity(space, unitized=False)
        assert local_index(one, phi, reg0) == 0
        assert local_index(one, phi, reg1) == 0

    def test_shift_winding(self, circle32):
        _, space, order = circle32
        phi, reg0, reg1 = circle_cut(space, order)
        s = shift_unitary(space, order)
        i0 = local_index(s, phi, reg0)
        i1 = local_index(s, phi, reg1)
        assert abs(i0) == 1
        assert i1 == -i0

    def test_integer_region_is_a_mask(self, circle32):
        _, space, order = circle32
        phi, reg0, _ = circle_cut(space, order)
        s = shift_unitary(space, order)
        assert local_index(s, phi, reg0.astype(int)) == local_index(s, phi, reg0)

    def test_shift_squared_doubles(self, circle32):
        _, space, order = circle32
        phi, reg0, _ = circle_cut(space, order)
        s = shift_unitary(space, order)
        s2 = shift_unitary(space, order, power=2)
        assert local_index(s2, phi, reg0) == 2 * local_index(s, phi, reg0)

    def test_stability_under_perturbation(self, circle32):
        _, space, order = circle32
        phi, reg0, _ = circle_cut(space, order)
        s = shift_unitary(space, order)
        base = local_index(s, phi, reg0)
        for rng in trial_rngs(5, 5):
            pert = random_banded(space, 0.9, rng, norm=0.04)
            s2 = FiniteOperator(space, s.entries + pert.entries)
            assert local_index(s2, phi, reg0) == base

    def test_stability_under_refinement(self):
        for k, m in ((16, 2.0), (32, 2.0)):
            _, space, order = circle_space(k)
            phi, reg0, _ = circle_cut(space, order)
            s = shift_unitary(space, order)
            assert abs(local_index(s, phi, reg0)) == 1

    def test_stability_under_cut_change(self, circle32):
        _, space, order = circle32
        s = shift_unitary(space, order)
        base = None
        for width in (0.08, 0.1, 0.13):
            phi, reg0, _ = circle_cut(space, order, width=width)
            idx = local_index(s, phi, reg0)
            if base is None:
                base = idx
            assert idx == base


class TestSpecInvariantsBulk:
    def test_split_bulk_small_instances(self):
        # cheap complexes push the cumulative split/CIA instance count
        # across the suite past a thousand
        cx = build_complex([(0, 1, 2)])
        space = discretize(cx, 0.6, fiber_dim=2)
        x1, x2 = decompose(space, cx)
        masks = split_masks(x1, x2)
        for rng in trial_rngs(97, 600):
            x = random_banded(space, 1 / 50, rng)
            a, b = coercive_split(x, masks)
            assert np.abs((a + b - x).concrete()).max() <= 1e-15
            bound = 4 * opnorm(x) + 1e-12
            assert opnorm(a) <= bound and opnorm(b) <= bound

    def test_adversarial_overlap_concentration(self, circle_fine):
        # operators living entirely on the overlap band still split within
        # the claimed constant (both halves see the same band block)
        cx, space, _ = circle_fine
        x1, x2 = decompose(space, cx)
        masks = split_masks(x1, x2)
        worst = 0.0
        for rng in trial_rngs(13, 40):
            x = random_region_supported(space, masks[1], rng, norm=1.0)
            a, b = coercive_split(x, masks)
            nx = opnorm(x)
            worst = max(worst, opnorm(a) / nx, opnorm(b) / nx)
        assert worst <= 4.0 + 1e-9

    def test_phi_one_plateau(self, circle32):
        # with the cut pinned at 1 the rotation exchanges the two copies of
        # the unitary before the compression, and the projection collapses
        # to the first coordinate exactly
        _, space, order = circle32
        u = shift_unitary(space, order)
        phi = CutFunction(np.ones(len(space)))
        p = clutching_projection(u, phi)
        n = space.total_dim
        expect = np.zeros((2 * n, 2 * n), complex)
        expect[:n, :n] = np.eye(n)
        assert np.allclose(p.concrete(), expect, atol=1e-12)
