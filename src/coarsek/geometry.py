"""Finite simplicial complexes with the round per-simplex metric, and their
discretizations into finite metric sample sets.

Each k-simplex is identified with the closed positive orthant of the unit
k-sphere: a point with barycentric coordinates ``b`` maps to ``b / |b|_2``,
and the distance between two points sharing a simplex is the arc
``arccos <v, w>`` of the normalized coordinate vectors.  An edge therefore
has length pi/2 and the center of an edge sits at pi/4 from either vertex.
Global distances are shortest paths in the graph whose edges join any two
samples lying on a common simplex, weighted by the exact arc distance;
samples in different connected components are at distance ``inf``.

That graph metric is computed through portals, the samples on two or more
maximal simplices.  Inside one maximal simplex the direct arc is the
geodesic, so a shortest path changes simplex only at a portal: Dijkstra runs
on the portal graph alone, and every other distance is a direct arc or a
min-plus of arcs to and from portals (the separator idea of George, *Nested
dissection of a regular finite element mesh*, SIAM J. Numer. Anal. 10, 1973).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    MalformedInputError,
    UnknownSimplexError,
    UnsupportedDecompositionError,
)

EDGE_LENGTH = math.pi / 2.0

# Decomposition thresholds: closed conditions on the distance to the simplex
# center, deliberately overlapping on [0.45, 0.55].
INNER_THRESHOLD = (1 + 1 / 10) / 2  # 0.55
OUTER_THRESHOLD = (1 - 1 / 10) / 2  # 0.45


class SimplicialComplex:
    """A finite abstract simplicial complex, closed under faces."""

    def __init__(self, simplices):
        simps = {tuple(sorted(s)) for s in simplices}
        for s in simps:
            if len(set(s)) != len(s):
                raise MalformedInputError(f"duplicate vertex in simplex {s}")
        if not simps:
            raise MalformedInputError("empty complex")
        self.simplices = sorted(simps, key=lambda s: (len(s), s))
        self.vertices = sorted({v for s in self.simplices for v in s})
        self.dimension = max(len(s) for s in self.simplices) - 1
        self._simplex_set = set(self.simplices)

    def __contains__(self, simplex):
        return tuple(sorted(simplex)) in self._simplex_set

    def faces_closed(self):
        """True iff every subset of a listed simplex is listed."""
        for s in self.simplices:
            for k in range(1, len(s)):
                for f in itertools.combinations(s, k):
                    if f not in self._simplex_set:
                        return False
        return True

    def maximal_simplices(self):
        out = []
        for s in self.simplices:
            sset = set(s)
            if not any(sset < set(t) for t in self.simplices if len(t) > len(s)):
                out.append(s)
        return out

    def top_simplices(self):
        """Simplices of maximal dimension."""
        return [s for s in self.simplices if len(s) - 1 == self.dimension]

    def __repr__(self):
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"{len(self.simplices)} simplices, dim {self.dimension})")


def build_complex(maximal_simplices):
    """Generate the face closure of the given maximal simplices.

    Vertex ids must be distinct within each simplex; the returned complex
    lists every face of every input simplex.
    """
    closure = set()
    for s in maximal_simplices:
        s = tuple(sorted(s))
        if len(set(s)) != len(s):
            raise MalformedInputError(f"duplicate vertex in simplex {s}")
        for k in range(1, len(s) + 1):
            closure.update(itertools.combinations(s, k))
    return SimplicialComplex(closure)


def cycle_complex(k):
    """Boundary of a k-gon: k vertices joined in a cycle (k >= 3)."""
    if k < 3:
        raise MalformedInputError("a cycle needs at least 3 vertices")
    return build_complex([(i, (i + 1) % k) for i in range(k)])


@dataclass(frozen=True)
class SamplePoint:
    """A point of the geometric realization, tagged by the face that carries
    it (the minimal simplex containing it) and its barycentric coordinates
    on that face: a nonempty carrier of integer vertices (a bool is not
    one), no vertex twice, and one finite positive coordinate per carrier
    vertex.  That is the rule for a sample, which its file can hold."""

    carrier: tuple
    coords: tuple

    def __post_init__(self):
        if not self.carrier:
            raise DomainError("empty carrier")
        for v in self.carrier:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise DomainError(f"carrier vertex {v!r} is not an integer")
        if len(set(self.carrier)) != len(self.carrier):
            raise DomainError(f"carrier {self.carrier} repeats a vertex")
        if len(self.coords) != len(self.carrier):
            raise DomainError(f"{len(self.coords)} coordinates for "
                              f"{len(self.carrier)} carrier vertices")
        if not all(0 < c < math.inf for c in self.coords):
            raise DomainError(f"coordinates {self.coords} are not finite and positive")

    @property
    def dim(self):
        return len(self.carrier) - 1

    def embed(self, simplex):
        """Barycentric coordinate vector of this point on a containing simplex."""
        v = np.zeros(len(simplex))
        pos = {vid: i for i, vid in enumerate(simplex)}
        for vid, c in zip(self.carrier, self.coords):
            v[pos[vid]] = c
        return v


class SampledSpace:
    """A finite metric-measure stand-in for the realization of a complex.

    points        tuple of SamplePoint
    dist          (N, N) symmetric nonnegative matrix, inf between components
    internal_dims per-point fiber dimension of the module
    mesh          discretization parameter used, finite and positive
                  (None for raw spaces)

    A built space does not change: ``points`` is a tuple, the arrays are
    read-only copies and ``mesh`` is a read-only property, so
    ``serialize.space_hash`` computes its digest once.
    """

    def __init__(self, points, dist, internal_dims, mesh=None):
        if not valid_mesh(mesh):
            raise DomainError(f"mesh {mesh} is not finite and positive")
        self.points = tuple(points)
        dist = np.array(dist, dtype=float)  # a copy: the caller's array may change
        n = len(self.points)
        if dist.shape != (n, n):
            raise MalformedInputError("distance matrix shape mismatch")
        if not (dist >= 0).all():  # false for NaN as for negative entries
            raise MalformedInputError("distances must be nonnegative or inf")
        with np.errstate(invalid="ignore"):  # inf - inf is nan, and equal inf pairs pass
            if (np.abs(dist - dist.T) > 1e-12).any():
                raise MalformedInputError("distance matrix not symmetric")
        dims = np.array(internal_dims, dtype=int)
        if dims.shape != (n,) or (dims < 1).any():
            raise MalformedInputError("internal_dims must be positive per point")
        self.dist = dist
        self.dist.flags.writeable = False
        self.internal_dims = dims
        self.internal_dims.flags.writeable = False
        self._mesh = mesh
        self.offsets = np.concatenate([[0], np.cumsum(dims)])
        self.total_dim = int(self.offsets[-1])
        # point id of each module coordinate
        self.point_of_coord = np.repeat(np.arange(n), dims)

    @property
    def mesh(self):
        return self._mesh

    def __len__(self):
        return len(self.points)

    @classmethod
    def from_distance_matrix(cls, dist, internal_dims=None, mesh=None):
        """Raw metric space: points get synthetic one-vertex carriers."""
        dist = np.asarray(dist, dtype=float)
        n = dist.shape[0]
        if internal_dims is None:
            internal_dims = np.ones(n, dtype=int)
        points = [SamplePoint((i,), (1.0,)) for i in range(n)]
        return cls(points, dist, internal_dims, mesh=mesh)

    def validate(self, tol=1e-9):
        """Check metric axioms; triangle inequality on every finite triple."""
        d = self.dist
        if np.abs(np.diag(d)).max(initial=0.0) > tol:
            raise MalformedInputError("nonzero diagonal")
        n = len(self)
        for k in range(n):
            via = d[:, k, None] + d[None, k, :]
            bad = d > via + tol
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise MalformedInputError(
                    f"triangle inequality fails: d({i},{j})={d[i, j]} "
                    f"> d({i},{k})+d({k},{j})={via[i, j]}")
        return True

    def __repr__(self):
        return (f"SampledSpace({len(self)} points, total fiber dim "
                f"{self.total_dim}, mesh {self.mesh})")


def valid_mesh(mesh):
    """The rule for the mesh of a space, which its file can hold: none (a
    raw space) or a finite positive number."""
    return mesh is None or 0 < mesh < math.inf


# The largest fiber dimension a space file can hold: a dense operator over
# one fiber of this dimension alone would take 64 GiB.
MAX_FIBER_DIM = 1 << 16

# The most samples discretize builds: the dense N x N float64 metric of
# 2**14 samples already takes 2 GiB.
MAX_SAMPLES = 1 << 14


def _lattice_subdivisions(mesh, dim):
    # Arc distance is sqrt(k+1)-Lipschitz in the l2 barycentric metric and the
    # step-1/m lattice covers a k-simplex to l2 radius sqrt(2)/m, so this step
    # count keeps every point within `mesh` of a sample.  Past MAX_SAMPLES + 1
    # an edge alone holds too many samples, so the count stops there.
    return max(1, math.ceil(min(math.sqrt(2.0 * (dim + 1)) / mesh, MAX_SAMPLES + 1)))


def _support_face(simplex, coords):
    face = tuple(v for v, c in zip(simplex, coords) if c != 0)
    vals = tuple(c for c in coords if c != 0)
    return face, vals


def discretize(complex_, mesh, fiber_dim=1):
    """Sample the realization of ``complex_`` at resolution ``mesh``.

    Samples are the barycentric lattices of step 1/m on every simplex
    (deduplicated across shared faces) together with every simplex center;
    all vertices are lattice corners.  Distances are shortest paths over
    exact per-simplex arcs, computed through the portal samples (see the
    module docstring); they equal the all-sample graph metric up to rounding.
    All fibers get dimension ``fiber_dim``.
    """
    if mesh is None or not valid_mesh(mesh):
        raise DomainError("mesh must be finite and positive")
    if not 1 <= fiber_dim <= MAX_FIBER_DIM:
        raise DomainError(f"fiber_dim must be in 1..{MAX_FIBER_DIM}")
    m = _lattice_subdivisions(mesh, complex_.dimension)
    # each simplex's interior lattice points and its center, counted before
    # any is built
    count = sum(math.comb(m - 1, len(s) - 1) + 1 for s in complex_.simplices)
    if count > MAX_SAMPLES:
        raise DomainError(f"mesh {mesh} is too fine: discretize builds at most"
                          f" {MAX_SAMPLES} samples")

    seen = {}
    points = []

    def add_point(face, vals):
        key = (face, vals)
        if key not in seen:
            seen[key] = len(points)
            points.append(SamplePoint(face, tuple(float(v) for v in vals)))
        return seen[key]

    for simplex in complex_.simplices:
        k = len(simplex)
        for comp in _compositions(m, k):
            face, vals = _support_face(simplex, [Fraction(c, m) for c in comp])
            add_point(face, vals)
        add_point(simplex, tuple(Fraction(1, k) for _ in simplex))

    members, arcs = [], []
    for s in complex_.maximal_simplices():
        idxs, vecs = _on_simplex(points, s)
        arc = _arcs(vecs, vecs)
        np.fill_diagonal(arc, 0.0)
        members.append(idxs)
        arcs.append(arc)

    dist = _portal_metric(len(points), members, arcs)
    dims = np.full(len(points), fiber_dim, dtype=int)
    return SampledSpace(points, dist, dims, mesh=mesh)


def _on_simplex(points, simplex):
    """``(ids, vecs)``: the ids of the points on the closed ``simplex`` and,
    row by row, their unit barycentric vectors on it."""
    sset = set(simplex)
    ids = np.array([i for i, p in enumerate(points) if set(p.carrier) <= sset], dtype=int)
    vecs = np.array([points[i].embed(simplex) for i in ids]).reshape(len(ids), len(simplex))
    return ids, vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _arcs(u, w):
    """The arcs ``arccos <u_i, w_j>`` between two stacks of unit vectors."""
    return np.arccos(np.clip(u @ w.T, -1.0, 1.0))


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _portal_metric(n, members, arcs):
    """Shortest-path metric of ``n`` samples from the maximal simplices'
    sample ids ``members`` and their direct-arc matrices ``arcs``.

    Two samples of one simplex are at their direct arc ``w(x, y)``: every
    simplex sits isometrically in the unit sphere of R^vertices, whose angle
    bounds each path from below.  Otherwise ``d(x, y)`` is the least
    ``w(x, a) + D(a, b) + w(b, y)`` over the portals ``a`` of a simplex of
    ``x`` and ``b`` of a simplex of ``y``, where ``D`` is the Dijkstra metric
    of the portal graph.  One pair of simplices and one portal at a time, so
    every temporary is a simplex's samples by the portals or by another
    simplex's samples.
    """
    count = np.zeros(n, dtype=int)
    for idxs in members:
        count[idxs] += 1
    portals = np.flatnonzero(count > 1)
    slot = np.full(n, -1)
    slot[portals] = np.arange(len(portals))
    # per simplex: the positions of its portals among its samples, and their slots
    gates = []
    for idxs in members:
        at = np.flatnonzero(count[idxs] > 1)
        gates.append((at, slot[idxs[at]]))
    links = np.full((len(portals), len(portals)), np.inf)
    np.fill_diagonal(links, 0.0)
    for a, (at, ids) in zip(arcs, gates):
        sub = np.ix_(ids, ids)
        links[sub] = np.minimum(links[sub], a[np.ix_(at, at)])
    between = _graph_metric(links)

    dist = np.full((n, n), np.inf)

    def merge(rows, cols, block):  # both orientations, so dist stays exactly symmetric
        for r, c, b in ((rows, cols, block), (cols, rows, block.T)):
            sub = np.ix_(r, c)
            dist[sub] = np.minimum(dist[sub], b)

    for s, (rows, a_s, (at_s, ids_s)) in enumerate(zip(members, arcs, gates)):
        merge(rows, rows, a_s)
        if not len(at_s):
            continue
        # distance from each sample of s to every portal, leaving s at one of its own
        leave = np.full((len(rows), len(portals)), np.inf)
        tmp = np.empty_like(leave)
        for k, q in zip(at_s, ids_s):
            np.minimum(leave, np.add(a_s[:, k, None], between[q], out=tmp), out=leave)
        for cols, a_t, (at_t, ids_t) in zip(members[s + 1:], arcs[s + 1:], gates[s + 1:]):
            if not len(at_t):
                continue
            block = np.full((len(rows), len(cols)), np.inf)
            tmp = np.empty_like(block)
            for k, q in zip(at_t, ids_t):
                np.minimum(block, np.add(leave[:, q, None], a_t[k], out=tmp), out=block)
            merge(rows, cols, block)
    return dist


def _graph_metric(weights):
    """Shortest-path metric of the undirected graph whose edges are the
    finite positive ``weights`` (the smaller one where both orientations
    have one), ``inf`` between components.  Dijkstra from every source at
    once: each round settles, in every row, the nearest node not yet
    settled and relaxes that row with ``d_u + w_uv``.  A distance is thus
    the least sum along a path, added in path order, as in scipy's
    Dijkstra; the metric takes the smaller of ``d_xy`` and ``d_yx``."""
    n = weights.shape[0]
    w = np.where(np.isfinite(weights) & (weights > 0), weights, np.inf)
    w = np.minimum(w, w.T)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    unsettled = np.ones((n, n), bool)
    rows = np.arange(n)
    for _ in range(n):
        u = np.where(unsettled, d, np.inf).argmin(axis=1)
        du = d[rows, u]
        if not np.isfinite(du).any():
            break  # every row has settled all it reaches
        unsettled[rows, u] = False
        np.minimum(d, du[:, None] + w[u], out=d)
    return np.minimum(d, d.T)


def neighborhood(space, mask, r):
    """Closed r-neighborhood { x : d(x, A) <= r } of the masked set."""
    if r < 0:
        raise DomainError("radius must be nonnegative")
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return mask.copy()
    dmin = space.dist[:, mask].min(axis=1)
    return dmin <= r


def simplex_center(complex_, simplex):
    """The equal-coordinates point of a simplex of the complex."""
    key = tuple(sorted(simplex))
    if key not in complex_:
        raise UnknownSimplexError(f"{simplex} not in complex")
    k = len(key)
    return SamplePoint(key, tuple(1.0 / k for _ in key))


def center_distances(space, complex_, simplex):
    """Distance from every sample lying on ``simplex`` (a simplex of
    ``complex_``) to its center.

    Exact per-simplex arcs, in the arithmetic of ``discretize``'s metric;
    samples not on the closed simplex get inf.
    """
    s = tuple(sorted(simplex))
    ids, vecs = _on_simplex(space.points, s)
    _, center = _on_simplex([simplex_center(complex_, s)], s)
    out = np.full(len(space), np.inf)
    out[ids] = _arcs(vecs, center)[:, 0]
    return out


def decompose(space, complex_):
    """Split samples into the two closed pieces used for two-set coverings.

    X1 collects, over every top-dimensional simplex, the samples within
    0.55 of its center; X2 collects samples at center distance >= 0.45
    together with everything carried by lower-dimensional faces.  The two
    masks cover the space and overlap exactly in the [0.45, 0.55] band.
    """
    n = complex_.dimension
    if n < 1:
        raise UnsupportedDecompositionError(
            "dimension-0 complexes have no two-piece decomposition")
    x1 = np.zeros(len(space), dtype=bool)
    x2 = np.array([p.dim < n for p in space.points])
    for simplex in complex_.top_simplices():
        d = center_distances(space, complex_, simplex)
        x1 |= d <= INNER_THRESHOLD
        x2 |= np.isfinite(d) & (d >= OUTER_THRESHOLD)
    return x1, x2


def cyclic_order(space, complex_):
    """Sample indices of a discretized cycle ordered once around the circle.

    Requires a 1-dimensional complex whose edges form a single cycle.
    """
    if complex_.dimension != 1:
        raise DomainError("cyclic order needs a 1-dimensional complex")
    edges = [s for s in complex_.simplices if len(s) == 2]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(len(v) != 2 for v in adj.values()):
        raise DomainError("complex is not a single cycle")
    start = min(adj)
    loop = [start, min(adj[start])]
    while True:
        nxt = [v for v in adj[loop[-1]] if v != loop[-2]][0]
        if nxt == start:
            break
        loop.append(nxt)
    if len(loop) != len(adj):
        raise DomainError("complex is not a single cycle")

    vert_idx = {}
    edge_idx = {}
    for i, p in enumerate(space.points):
        if p.dim == 0:
            vert_idx[p.carrier[0]] = i
        else:
            edge_idx.setdefault(p.carrier, []).append(i)
    order = []
    for a, b in zip(loop, loop[1:] + [loop[0]]):
        order.append(vert_idx[a])
        edge = tuple(sorted((a, b)))
        interior = edge_idx.get(edge, [])
        pos_along = []
        for i in interior:
            p = space.points[i]
            t = p.coords[p.carrier.index(b)]
            pos_along.append((t, i))
        order.extend(i for _, i in sorted(pos_along))
    return np.array(order, dtype=int)


def circle_space(k, mesh=2.0):
    """Convenience builder: k-gon circle, its discretization (fiber 1),
    cyclic order."""
    cx = cycle_complex(k)
    space = discretize(cx, mesh)
    return cx, space, cyclic_order(space, cx)


def uniform_edge_space(n, fiber_dim=1):
    """The edge {0, 1} sampled at n points equally spaced in arc length.

    Unlike the barycentric lattice, consecutive distances are all equal
    (pi/2 divided by n-1), which keeps snapped slides exactly 2-Lipschitz;
    points are listed in order from vertex 0 to vertex 1.
    """
    if n < 2:
        raise DomainError("need at least the two vertices")
    thetas = np.linspace(0.0, EDGE_LENGTH, n)
    points = [SamplePoint((0,), (1.0,))]
    for th in thetas[1:-1]:
        # invert the radial identification: the point at angle th has
        # normalized vector (cos th, sin th)
        a = math.cos(th) / (math.cos(th) + math.sin(th))
        points.append(SamplePoint((0, 1), (a, 1 - a)))
    points.append(SamplePoint((1,), (1.0,)))
    dist = np.abs(np.subtract.outer(thetas, thetas))
    dims = np.full(n, fiber_dim, dtype=int)
    return SampledSpace(points, dist, dims, mesh=float(thetas[1]))
