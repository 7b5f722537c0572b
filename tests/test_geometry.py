import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek import geometry
from coarsek.errors import (
    DomainError,
    MalformedInputError,
    UnknownSimplexError,
    UnsupportedDecompositionError,
)
from coarsek.geometry import (
    EDGE_LENGTH,
    SampledSpace,
    SamplePoint,
    build_complex,
    center_distances,
    cycle_complex,
    cyclic_order,
    decompose,
    discretize,
    neighborhood,
    simplex_center,
)
from coarsek.serialize import dumps_space, loads_space, space_hash
from test_numpy_kernels import scipy_graph_metric


def edge_angle(coords):
    # independent arc-length oracle on the edge {0,1}: the normalized
    # coordinate vector (a, 1-a)/|.| sits at angle atan((1-a)/a)
    a = coords[0] if len(coords) == 2 else (1.0 if coords == (1.0,) else 0.0)
    return math.atan2(1 - a, a)


def edge_coord_pair(point):
    if point.carrier == (0,):
        return (1.0, 0.0)
    if point.carrier == (1,):
        return (0.0, 1.0)
    return point.coords


def pairwise_arc(b1, b2):
    # the one-pair-at-a-time reference for geometry's vectorised arc kernel
    v1, v2 = np.asarray(b1, float), np.asarray(b2, float)
    ip = float(v1 @ v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    return math.acos(min(1.0, max(-1.0, ip)))


def center_index(space, simplex):
    # the sample discretize adds at the center of a simplex
    return next(i for i, p in enumerate(space.points) if p.carrier == simplex
                and np.allclose(p.coords, 1 / len(simplex), rtol=0, atol=1e-12))


# near arc 0, arccos turns an inner product a few roundings off into an
# arc error of about sqrt(eps)
ARC_TOL = 1e-7
ARC_CASES = [([(0, 1, 2)], 0.2), ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 0.3)]


class TestBuildComplex:
    def test_two_edges(self):
        x = build_complex([(0, 1), (1, 2)])
        assert sorted(x.simplices) == [(0,), (0, 1), (1,), (1, 2), (2,)]
        assert x.dimension == 1

    def test_triangle(self):
        x = build_complex([(0, 1, 2)])
        assert len([s for s in x.simplices if len(s) == 1]) == 3
        assert len([s for s in x.simplices if len(s) == 2]) == 3
        assert len([s for s in x.simplices if len(s) == 3]) == 1
        assert x.dimension == 2

    def test_isolated_points(self):
        x = build_complex([(0,), (1,)])
        assert x.dimension == 0

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(MalformedInputError):
            build_complex([(0, 0, 1)])

    def test_face_closure(self):
        x = build_complex([(0, 1, 2, 3), (3, 4, 5)])
        assert x.faces_closed()


class TestDiscretize:
    def test_edge_contains_vertices_and_center(self, edge_complex, edge_space):
        carriers = [(p.carrier, p.coords) for p in edge_space.points]
        assert ((0,), (1.0,)) in carriers
        assert ((1,), (1.0,)) in carriers
        assert ((0, 1), (0.5, 0.5)) in carriers

    def test_edge_geodesics_match_exact_arcs(self, edge_space):
        # every pairwise geodesic on a single edge equals the exact arc length
        for i, p in enumerate(edge_space.points):
            for j, q in enumerate(edge_space.points):
                exact = abs(edge_angle(edge_coord_pair(p))
                            - edge_angle(edge_coord_pair(q)))
                assert edge_space.dist[i, j] == pytest.approx(exact, abs=1e-12)

    def test_adjacent_spacing_below_mesh_scale(self, edge_space):
        angles = sorted(edge_angle(edge_coord_pair(p)) for p in edge_space.points)
        gaps = np.diff(angles)
        assert gaps.max() <= 0.5 * EDGE_LENGTH

    def test_zero_dim_components_are_infinitely_far(self):
        x = build_complex([(0,), (1,)])
        s = discretize(x, 1.0)
        assert s.dist[0, 1] == np.inf

    def test_coarse_mesh_gives_vertices_and_centers(self):
        x = build_complex([(0, 1), (1, 2)])
        s = discretize(x, 10.0)
        kinds = sorted((p.carrier, p.coords) for p in s.points)
        assert kinds == [((0,), (1.0,)), ((0, 1), (0.5, 0.5)),
                         ((1,), (1.0,)), ((1, 2), (0.5, 0.5)), ((2,), (1.0,))]

    @pytest.mark.parametrize("mesh", [0.0, -1.0, np.inf, np.nan])
    def test_mesh_must_be_finite_and_positive(self, edge_complex, mesh):
        # the space reader refuses any other mesh in a space file
        with pytest.raises(DomainError, match="finite and positive"):
            discretize(edge_complex, mesh)
        with pytest.raises(DomainError, match="finite and positive"):
            SampledSpace.from_distance_matrix(np.zeros((1, 1)), mesh=mesh)

    @pytest.mark.parametrize("mesh", [0.8, 0.4, 0.2])
    def test_covering_radius(self, mesh, rng):
        x = build_complex([(0, 1, 2)])
        s = discretize(x, mesh)
        vecs = np.array([p.embed((0, 1, 2)) for p in s.points])
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        for _ in range(200):
            b = rng.dirichlet(np.ones(3))
            v = b / np.linalg.norm(b)
            arcs = np.arccos(np.clip(vecs @ v, -1, 1))
            assert arcs.min() <= mesh

    def test_refinement_monotone(self):
        x = build_complex([(0, 1), (1, 2), (2, 3)])
        coarse = discretize(x, 1.0)
        fine = discretize(x, 0.25)
        fine_key = {(p.carrier, p.coords): i for i, p in enumerate(fine.points)}
        shared = [(i, fine_key[(p.carrier, p.coords)])
                  for i, p in enumerate(coarse.points)
                  if (p.carrier, p.coords) in fine_key]
        assert len(shared) >= len(coarse.points) // 2
        for (ic, jf) in shared:
            for (kc, lf) in shared:
                assert coarse.dist[ic, kc] >= fine.dist[jf, lf] - 1e-9

    def test_triangle_metric_is_a_metric(self, triangle_space):
        assert triangle_space.validate(tol=1e-9)

    def test_distance_matrix_is_frozen(self, edge_space):
        with pytest.raises(ValueError):
            edge_space.dist[0, 1] = 3.0


class TestNeighborhood:
    def test_r_zero_is_the_set_itself(self, edge_space):
        a = np.zeros(len(edge_space), dtype=bool)
        a[0] = True
        assert (neighborhood(edge_space, a, 0.0) == a).all()

    def test_whole_space_stays_whole(self, edge_space):
        a = np.ones(len(edge_space), dtype=bool)
        assert neighborhood(edge_space, a, 2.0).all()

    def test_left_endpoint_ball_matches_arc_scan(self):
        x = build_complex([(0, 1)])
        s = discretize(x, 0.2)
        angles = np.array([edge_angle(edge_coord_pair(p)) for p in s.points])
        h = np.diff(np.sort(angles)).max()
        a = np.zeros(len(s), dtype=bool)
        a[np.argmin(angles)] = True
        got = neighborhood(s, a, 2.5 * h)
        expect = angles - angles.min() <= 2.5 * h
        assert (got == expect).all()
        assert 3 <= got.sum() <= 4


class TestDecompose:
    def test_center_sample_only_in_x1(self, edge_complex, edge_space):
        x1, x2 = decompose(edge_space, edge_complex)
        c = center_index(edge_space, (0, 1))
        assert x1[c] and not x2[c]

    def test_band_lies_in_both(self):
        x = build_complex([(0, 1)])
        s = discretize(x, 0.05)
        d = center_distances(s, x, (0, 1))
        band = np.isfinite(d) & (d >= 0.45) & (d <= 0.55)
        assert band.any()
        x1, x2 = decompose(s, x)
        assert (x1[band] & x2[band]).all()

    def test_overlap_is_exactly_the_band(self):
        for maximal in ([(0, 1), (1, 2)], [(0, 1, 2)]):
            x = build_complex(maximal)
            s = discretize(x, 0.3)
            x1, x2 = decompose(s, x)
            assert (x1 | x2).all()
            band = np.zeros(len(s), dtype=bool)
            for top in x.top_simplices():
                d = center_distances(s, x, top)
                band |= np.isfinite(d) & (d >= 0.45) & (d <= 0.55)
            assert ((x1 & x2) == band).all()

    @pytest.mark.parametrize("maximal, mesh", ARC_CASES)
    def test_center_distances_match_the_pairwise_arc(self, maximal, mesh):
        x = build_complex(maximal)
        s = discretize(x, mesh)
        for top in x.top_simplices():
            center = np.full(len(top), 1 / len(top))
            ref = np.array([pairwise_arc(p.embed(top), center)
                            if set(p.carrier) <= set(top) else np.inf
                            for p in s.points])
            d = center_distances(s, x, top)
            on = np.isfinite(ref)
            assert np.array_equal(np.isfinite(d), on)
            assert np.allclose(d[on], ref[on], rtol=0, atol=ARC_TOL)

    def test_vertices_land_in_x2(self):
        # center-to-vertex distances: arccos(1/sqrt(2)) and arccos(1/sqrt(3))
        assert math.acos(1 / math.sqrt(2)) == pytest.approx(0.7853981633974484)
        assert math.acos(1 / math.sqrt(3)) == pytest.approx(0.9553166181245093)
        for maximal, nverts in (([(0, 1)], 2), ([(0, 1, 2)], 3)):
            x = build_complex(maximal)
            s = discretize(x, 0.4)
            x1, x2 = decompose(s, x)
            verts = [i for i, p in enumerate(s.points) if p.dim == 0]
            assert len(verts) == nverts
            assert x2[verts].all()
            assert not x1[verts].any()

    def test_dimension_zero_rejected(self):
        x = build_complex([(0,), (1,)])
        s = discretize(x, 1.0)
        with pytest.raises(UnsupportedDecompositionError):
            decompose(s, x)


class TestSimplexCenter:
    def test_examples(self, triangle_complex):
        assert simplex_center(triangle_complex, (0, 1)).coords == (0.5, 0.5)
        c = simplex_center(triangle_complex, (0, 1, 2))
        assert np.allclose(c.coords, (1 / 3, 1 / 3, 1 / 3))
        assert simplex_center(triangle_complex, (0,)).coords == (1.0,)

    def test_unknown_simplex(self, triangle_complex):
        with pytest.raises(UnknownSimplexError):
            simplex_center(triangle_complex, (0, 3))


class TestCircle:
    def test_cycle_needs_three(self):
        with pytest.raises(MalformedInputError):
            cycle_complex(2)

    def test_cyclic_order_visits_everything(self, small_circle):
        cx, space, order = small_circle
        assert sorted(order) == list(range(len(space)))
        hops = [space.dist[order[i], order[(i + 1) % len(order)]]
                for i in range(len(order))]
        # 8-gon sampled at vertices and edge centers: every hop is pi/4
        assert np.allclose(hops, EDGE_LENGTH / 2, atol=1e-12)

    def test_circumference(self, small_circle):
        _, space, order = small_circle
        hops = [space.dist[order[i], order[(i + 1) % len(order)]]
                for i in range(len(order))]
        assert sum(hops) == pytest.approx(8 * EDGE_LENGTH)


def test_raw_space_triangle_check():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    s = SampledSpace.from_distance_matrix(bad)
    with pytest.raises(MalformedInputError):
        s.validate()


def test_mixed_dimension_complex_decomposition():
    # a triangle plus a dangling edge and an isolated vertex: everything of
    # dimension below the top lands in the outer piece
    x = build_complex([(0, 1, 2), (2, 3), (9,)])
    s = discretize(x, 0.4)
    x1, x2 = decompose(s, x)
    assert (x1 | x2).all()
    for i, p in enumerate(s.points):
        if p.dim < 2:
            assert x2[i]
    triangle_center = center_index(s, (0, 1, 2))
    assert x1[triangle_center] and not x2[triangle_center]
    isolated = next(i for i, p in enumerate(s.points) if p.carrier == (9,))
    assert np.isinf(s.dist[isolated, triangle_center])


@pytest.mark.parametrize("bad", [np.nan, -5.0, -np.inf])
def test_nan_and_negative_distances_rejected(bad):
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    d[0, 2] = d[2, 0] = bad
    with pytest.raises(MalformedInputError):
        SampledSpace.from_distance_matrix(d)


def test_infinite_distances_kept():
    d = np.array([[0.0, np.inf], [np.inf, 0.0]])
    assert SampledSpace.from_distance_matrix(d).dist[0, 1] == np.inf


def test_mesh_is_read_only_and_hashed_as_dumped():
    s = discretize(build_complex([(0, 1)]), 0.5)
    digest = space_hash(s)
    with pytest.raises(AttributeError):
        s.mesh = 0.25
    assert s.mesh == 0.5
    assert space_hash(s) == digest == space_hash(loads_space(dumps_space(s)))


# the reader refuses this sample line in its own words: an empty carrier leaves 2 fields
READ_FIRST = {"empty carrier":
              "a sample line needs 4 fields (id carrier coords dim), found 2"}


@pytest.mark.parametrize("carrier, coords, message", [
    ((0, 0), (0.5, 0.5), "carrier (0, 0) repeats a vertex"),
    ((0, 1), (1.0,), "1 coordinates for 2 carrier vertices"),
    ((0,), (0.0,), "coordinates (0.0,) are not finite and positive"),
    ((), (), "empty carrier"),
    ((True,), (1.0,), "carrier vertex True is not an integer"),
])
def test_sample_rule_is_the_readers(carrier, coords, message):
    # no space holds a sample that its file, once written, could not hold
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SamplePoint(carrier, coords)
    text = dumps_space(SampledSpace([SamplePoint((0,), (1.0,))], np.zeros((1, 1)), [1]))
    sample = f"0 {','.join(map(str, carrier))} {','.join(map(str, coords))} 1"
    assert "\n0 0 1 1\n" in text
    read = READ_FIRST.get(message, message)
    with pytest.raises(MalformedInputError, match=f"^line 4: {re.escape(read)}$"):
        loads_space(text.replace("\n0 0 1 1\n", f"\n{sample}\n"))


def test_asymmetry_is_judged_absolutely():
    # numpy's default rtol=1e-5 would let this 5e-6 gap through
    with pytest.raises(MalformedInputError, match="not symmetric"):
        SampledSpace.from_distance_matrix([[0.0, 1.0], [1.000005, 0.0]])
    SampledSpace.from_distance_matrix([[0.0, 1.0], [1.0 + 1e-13, 0.0]])


def test_asymmetry_bound_is_inclusive():
    SampledSpace.from_distance_matrix([[0.0, 0.0], [1e-12, 0.0]])
    above = np.nextafter(1e-12, 1.0)
    with pytest.raises(MalformedInputError, match="not symmetric"):
        SampledSpace.from_distance_matrix([[0.0, 0.0], [above, 0.0]])


def test_infinite_asymmetry_rejected():
    with pytest.raises(MalformedInputError, match="not symmetric"):
        SampledSpace.from_distance_matrix([[0.0, np.inf], [1.0, 0.0]])


def test_symmetric_infinite_pairs_pass_without_warning():
    d = np.full((3, 3), np.inf)
    np.fill_diagonal(d, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(SampledSpace.from_distance_matrix(d).dist[0, 2])


# -- the portal metric against the all-sample graph metric -------------------


def all_sample_metric(space, complex_):
    """Oracle: Dijkstra over the graph joining every two samples on a common
    maximal simplex, weighted by their arc (the metric before portals)."""
    points, n = space.points, len(space)
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for s in complex_.maximal_simplices():
        idxs = [i for i, p in enumerate(points) if set(p.carrier) <= set(s)]
        vecs = np.array([points[i].embed(s) for i in idxs])
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        arcs = np.arccos(np.clip(vecs @ vecs.T, -1.0, 1.0))
        sub = np.ix_(idxs, idxs)
        w[sub] = np.minimum(w[sub], arcs)
    return scipy_graph_metric(w)


def assert_matches_oracle(complex_, mesh):
    space = discretize(complex_, mesh)
    d, want = space.dist, all_sample_metric(space, complex_)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(d), finite)
    assert np.array_equal(d, d.T)
    assert not np.diag(d).any()
    # largest difference seen: 3.2e-13 on the 318-point circle
    assert np.abs(d[finite] - want[finite]).max(initial=0.0) <= 1e-11


TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


@pytest.mark.parametrize("maximal, mesh", [
    ([(0, 1), (1, 2), (0, 2)], 0.019),        # the circle, N=318
    (TETRA, 0.15),                             # the 2-sphere
    ([(0, 1, 2, 3)], 0.4),                     # a solid 3-simplex: no portals
    ([(0, 1, 2), (2, 3), (9,)], 0.3),          # dangling edge, isolated vertex
    ([(0, 1, 2), (2, 3, 4)], 0.3),             # two triangles on one vertex
    ([(0, 1), (2, 3, 4), (5, 6)], 0.4),        # three components
    ([(0,), (1,), (2,)], 1.0),                 # dimension 0
])
def test_portal_metric_matches_graph_metric(maximal, mesh):
    assert_matches_oracle(build_complex(maximal), mesh)


# every triangle and edge on 6 vertices
FACES = list(itertools.combinations(range(6), 3)) + list(itertools.combinations(range(6), 2))


@given(st.lists(st.sampled_from(FACES), min_size=1, max_size=8, unique=True),
       st.sampled_from([0.6, 0.9, 1.5]))
@settings(max_examples=40, deadline=None)
def test_portal_metric_matches_graph_metric_on_random_complexes(maximal, mesh):
    assert_matches_oracle(build_complex(maximal), mesh)


def test_dijkstra_sees_only_portals(monkeypatch):
    seen = []
    metric = geometry._graph_metric
    monkeypatch.setattr(geometry, "_graph_metric",
                        lambda weights: seen.append(weights.shape[0]) or metric(weights))
    x = build_complex(TETRA)
    s = discretize(x, 0.12)
    maximal = [set(t) for t in x.maximal_simplices()]
    portals = sum(sum(set(p.carrier) <= t for t in maximal) > 1 for p in s.points)
    assert (len(s), portals) == (890, 130)
    assert seen and max(seen) <= portals
