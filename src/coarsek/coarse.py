"""Coarse maps between sampled spaces, isometry covers, the induced
conjugation functor, and homotopy certificates for coarsely homotopic maps.

A delta-cover of a map f is an isometry between the modules whose support
pairs (y, x) all satisfy d(y, f(x)) < delta; conjugating by it moves
operators from the source algebra to the target algebra while stretching
propagation by at most the expansion of f plus 2 delta.  Two covers of the
same map are linked by an explicit two-by-two rotation homotopy, and a
uniformly Lipschitz homotopy of maps yields a certified path between the
transported representatives built from a chain of covers along a fine
partition of the homotopy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controlled import (
    HomotopyCertificate,
    QuasiParams,
    judge_certificate,
    measure,
    require_quasi,
    step_norms,
    witness_defect,
)
from .errors import CapacityError, CertificateError, DomainError, ShapeError
from .operator import (
    DEFAULT_TAU,
    FiniteOperator,
    amplify_map,
    amplify_scalar_matrix,
    block_diag,
    direct_sum,
    doubled_rotation,
    opnorm,
    point_block_max,
)

MAX_STEPS = 4096  # the most steps a sampled path certificate may take


class CoarseMap:
    """A sample-to-sample map between two sampled spaces."""

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = np.asarray(assignment, dtype=int)
        if self.assignment.shape != (len(source),):
            raise ShapeError("one target index per source point required")
        if ((self.assignment < 0) | (self.assignment >= len(target))).any():
            raise DomainError("assignment hits indices outside the target")

    def __call__(self, i):
        return int(self.assignment[i])

    @classmethod
    def identity(cls, space):
        return cls(space, space, np.arange(len(space)))

    def displacement(self, other):
        """Sup over source points of the target distance between images."""
        if other.source is not self.source or other.target is not self.target:
            raise ShapeError("maps must share source and target")
        return float(np.max(self.target.dist[self.assignment, other.assignment],
                            initial=0.0))

    def lipschitz_constant(self):
        """Max ratio d(f(x), f(y)) / d(x, y) over finite-distance pairs."""
        dsrc = self.source.dist
        dtgt = self.target.dist[np.ix_(self.assignment, self.assignment)]
        finite = np.isfinite(dsrc) & (dsrc > 0)
        if not finite.any():
            return 0.0
        return float(np.max(dtgt[finite] / dsrc[finite]))


def expansion_function(f, r):
    """sup { d(f(x1), f(x2)) : d(x1, x2) < r } over sampled pairs."""
    close = f.source.dist < r
    if not close.any():
        return 0.0
    dtgt = f.target.dist[np.ix_(f.assignment, f.assignment)]
    return float(dtgt[close].max())


@dataclass
class CoverIsometry:
    """An isometry of modules supported delta-near the graph of a map."""

    map: CoarseMap
    delta: float
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        src, tgt = self.map.source, self.map.target
        if self.matrix.shape != (tgt.total_dim, src.total_dim):
            raise ShapeError("cover matrix shape mismatch")
        gram = self.matrix.conj().T @ self.matrix
        if opnorm(gram - np.eye(src.total_dim)) > 1e-12:
            raise DomainError("cover matrix is not an isometry to 1e-12")
        bad = self.support_violations()
        if bad:
            raise DomainError(f"support pair {bad[0]} farther than delta from the graph")

    def support_violations(self):
        """Every point pair (y, x) of the support (entries above
        ``DEFAULT_TAU``) with d(y, f(x)) >= delta, in row-major order."""
        src, tgt = self.map.source, self.map.target
        held = point_block_max(np.abs(self.matrix), tgt, src) > DEFAULT_TAU
        near = tgt.dist[:, self.map.assignment] < self.delta
        return [(int(y), int(x)) for y, x in np.argwhere(held & ~near)]


def delta_cover(f, delta, bias="nearest"):
    """Deterministic fiber packing: each source coordinate goes to a distinct
    coordinate of an admissible target point (d(y, f(x)) < delta), solved as
    a minimum-cost assignment so nearest targets are preferred and any
    feasible packing is found.

    ``bias`` breaks cost ties ("nearest" prefers low fiber slots,
    "pack-high" prefers high ones), giving genuinely different covers of
    the same map whenever the targets have slack capacity.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    if bias not in ("nearest", "pack-high"):
        raise DomainError(f"unknown bias {bias!r}")
    src, tgt = f.source, f.target
    if src.total_dim > tgt.total_dim:
        raise CapacityError(
            f"source module dimension {src.total_dim} exceeds the target's "
            f"{tgt.total_dim}; no isometry exists")
    admissible = tgt.dist[:, f.assignment] < delta  # (target point, source point)
    demand = src.internal_dims
    supply_of = tgt.internal_dims
    for x in range(len(src)):
        if supply_of[admissible[:, x]].sum() < demand[x]:
            raise CapacityError(
                f"target fibers within delta={delta} of f({x}) cannot absorb "
                f"a fiber of dimension {demand[x]}")
    cost = np.full((src.total_dim, tgt.total_dim), np.inf)
    tgt_point = tgt.point_of_coord
    slot_rank = np.arange(tgt.total_dim) - tgt.offsets[tgt_point]
    tie = slot_rank if bias == "nearest" else slot_rank.max() - slot_rank
    for x in range(len(src)):
        open_slots = admissible[:, x][tgt_point]
        row = np.where(open_slots, tgt.dist[tgt_point, f(x)] + 1e-9 * tie, np.inf)
        cost[src.offsets[x]:src.offsets[x + 1], :] = row
    try:
        cols = _assignment(cost)
    except ValueError as exc:
        raise CapacityError(
            f"no isometry packing exists at delta={delta}: {exc}") from exc
    matrix = np.zeros((tgt.total_dim, src.total_dim))
    matrix[cols, np.arange(src.total_dim)] = 1.0
    return CoverIsometry(f, delta, matrix)


def _assignment(cost):
    """The column of each row in a minimum-cost assignment of the rows of
    ``cost``, a matrix with no more rows than columns and with entries that
    are finite or +inf; ValueError ``cost matrix is infeasible`` when every
    assignment meets an inf.

    A numpy port of ``scipy.optimize.linear_sum_assignment``: one shortest
    augmenting path per row, with dual potentials (Crouse, On implementing
    2D rectangular assignment algorithms, IEEE TAES 52(4), 2016).  It keeps
    scipy's scan over the columns not yet reached (in reverse order at
    first, each reached column swapped out for the last one), its
    arithmetic and its tie rule: of the columns at the least path cost, the
    last unassigned one, else the first.  So it picks scipy's columns."""
    n_rows, n_cols = cost.shape
    u, v = np.zeros(n_rows), np.zeros(n_cols)
    col4row, row4col = np.full(n_rows, -1), np.full(n_cols, -1)
    path = np.full(n_cols, -1)
    for cur in range(n_rows):
        remaining = np.arange(n_cols)[::-1].copy()
        left = n_cols
        rows_seen = np.zeros(n_rows, bool)
        cols_seen = np.zeros(n_cols, bool)
        lengths = np.full(n_cols, np.inf)
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows_seen[i] = True
            cols = remaining[:left]
            r = min_val + cost[i, cols] - u[i] - v[cols]
            shorter = r < lengths[cols]
            path[cols[shorter]] = i
            lengths[cols[shorter]] = r[shorter]
            reach = lengths[cols]
            min_val = reach.min()
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            free = np.flatnonzero((reach == min_val) & (row4col[cols] == -1))
            index = free[-1] if free.size else int(reach.argmin())
            j = cols[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            left -= 1
            remaining[index] = remaining[left]
        u[cur] += min_val
        rows_seen[cur] = False
        u[rows_seen] += min_val - lengths[col4row[rows_seen]]
        v[cols_seen] -= min_val - lengths[cols_seen]
        j = sink
        while True:  # augment along the path back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def ad(cover, op):
    """Transport an operator through a cover: V T V* blockwise over copies.

    Unitization elements keep their scalar vector (the unital extension),
    so quasi-unitaries stay quasi-unitary with the same defect.
    """
    src, tgt = cover.map.source, cover.map.target
    if op.space.total_dim != src.total_dim:
        raise ShapeError("operator does not live over the cover's source")
    v = amplify_map(cover.matrix, op.amplification)
    entries = v @ op.entries @ v.conj().T
    return FiniteOperator(tgt, entries, op.amplification, op.scalar)


def ad_doubled(pair_matrix, op):
    """Conjugate a doubled-module operator (amplification 2k) by a raw
    isometry of the doubled modules; needs a constant scalar vector."""
    if op.scalar is not None and not np.allclose(op.scalar, op.scalar[0]):
        raise DomainError("doubled transport needs a constant scalar part")
    entries = pair_matrix @ op.entries @ pair_matrix.conj().T
    return entries, (None if op.scalar is None else op.scalar[0])


def swap_unitary(v, w):
    """The self-adjoint unitary exchanging the ranges of isometries v and w."""
    py, qy = v @ v.conj().T, w @ w.conj().T
    eye = np.eye(py.shape[0])
    return np.block([[eye - py, v @ w.conj().T],
                     [w @ v.conj().T, eye - qy]])


def rotation_homotopy(Vf, Vg, p, params):
    """Certificate joining diag(V_f p V_f*, 0, 0, 0) to diag(0, V_g p V_g*, 0, 0)
    over 4x amplification, through quasi-projections at (eps, R + 8 delta).

    Both covers must cover the same map at the same delta; R is just above
    the measured expansion of the map at the declared propagation level.
    The path takes as many steps as its certificate needs, at most
    ``MAX_STEPS``.
    """
    if Vf.map is not Vg.map and not np.array_equal(Vf.map.assignment,
                                                   Vg.map.assignment):
        raise DomainError("covers must cover the same map")
    if Vf.delta != Vg.delta:
        raise DomainError("covers must share delta")
    require_quasi(p, "even", params)
    delta = Vf.delta
    R = expansion_function(Vf.map, params.r) * (1 + 1e-12) + 1e-12
    ambient = QuasiParams(params.eps, R + 8 * delta)

    tgt = Vf.map.target
    k = p.amplification
    kd = k * tgt.total_dim
    # 0/1 covers: the swap unitary of the lifted covers is exact
    u_lift = swap_unitary(amplify_map(Vf.matrix, k), amplify_map(Vg.matrix, k))
    x = block_diag(ad(Vf, p).concrete(), np.zeros((3 * kd, 3 * kd)))
    diag_u_1 = block_diag(u_lift, np.eye(2 * kd))
    diag_1_ustar = block_diag(np.eye(2 * kd), u_lift.conj().T)

    def sample(t):
        theta = (1.0 - t) * math.pi / 2
        rot = doubled_rotation(np.full(2 * kd, theta))
        u_t = diag_u_1 @ rot @ diag_1_ustar @ rot.conj().T
        out = u_t @ x @ u_t.conj().T
        return FiniteOperator(tgt, (out + out.conj().T) / 2, 4 * k)

    return _certify_path(sample, "even", ambient)[0]


def _certify_path(sample_fn, parity, ambient):
    """Sample a continuous path finely enough that its certificate passes;
    returns the certificate and the sample measurements it was judged on.

    The first sampling, at 8 steps, is the probe: its arc length and worst
    defect fix the step budget the perturbation margin allows.  The path
    is sampled again only when that budget needs more steps or a verdict
    fails (the count then doubles, up to ``MAX_STEPS``)."""
    def sampled(n):
        samples = [sample_fn(t) for t in np.linspace(0.0, 1.0, n + 1)]
        return samples, [measure(s, parity) for s in samples], step_norms(samples)

    samples, measured, bounds = sampled(8)
    worst = max(map(witness_defect, measured))
    margin = ambient.eps - worst
    if margin <= 0:
        raise CertificateError(
            f"probe sample defect {worst} already exceeds eps {ambient.eps}")
    n = max(8, math.ceil(sum(bounds) / (1.8 * math.sqrt(margin)) * 1.1))
    if n > MAX_STEPS:
        raise CertificateError(f"certificate would need {n} > {MAX_STEPS} steps")
    while True:
        if len(samples) != n + 1:
            samples, measured, bounds = sampled(n)
        cert = HomotopyCertificate(parity, samples, ambient, bounds)
        ok, report = judge_certificate(cert, measured, bounds)
        if ok:
            return cert, measured
        if n >= MAX_STEPS:
            raise CertificateError(
                f"path not certifiable at {n} steps: {report['failures'][:3]}")
        n *= 2


def partition_homotopy(F, delta):
    """Minimal frame subsequence with consecutive sup-displacement < delta."""
    frames = F.frames
    idx = [0]
    i = 0
    while i < len(frames) - 1:
        j = None
        for cand in range(len(frames) - 1, i, -1):
            if frames[i].displacement(frames[cand]) < delta:
                j = cand
                break
        if j is None:
            raise CertificateError(
                f"adjacent frames past index {i} already displace >= {delta}; "
                "supply denser frames")
        idx.append(j)
        i = j
    return idx


class LipschitzHomotopy:
    """An ordered family of coarse maps with recorded displacement table and
    a uniform Lipschitz bound."""

    def __init__(self, frames, lipschitz_bound=None):
        if len(frames) < 1:
            raise DomainError("need at least one frame")
        self.frames = list(frames)
        src, tgt = frames[0].source, frames[0].target
        for f in frames:
            if f.source is not src or f.target is not tgt:
                raise ShapeError("all frames must share source and target")
        self.displacement_table = [a.displacement(b) for a, b
                                   in zip(self.frames, self.frames[1:])]
        measured = max((f.lipschitz_constant() for f in self.frames), default=0.0)
        self.lipschitz_bound = lipschitz_bound if lipschitz_bound is not None \
            else measured
        self.measured_lipschitz = measured


def _cyclic_fraction(m, s):
    """Fractional power of the m-cycle block shift e_j -> e_{j+1}, exactly
    unitary for every s."""
    j = np.arange(m)
    f = np.exp(2j * np.pi * np.outer(j, j) / m) / math.sqrt(m)
    lam = np.exp(-2j * np.pi * j / m)
    return (f * lam ** s) @ f.conj().T


def _dsum2(u):
    """u (+) I over the source, amplification doubled, scalar kept constant."""
    pad = FiniteOperator.identity(u.space, u.amplification, unitized=True)
    return direct_sum([u, pad])


def homotopy_invariance_certificate(F, u, params, delta):
    """Certified path between the transports of a quasi-unitary along the two
    ends of a uniformly Lipschitz homotopy.

    Builds covers V_i along a partition with consecutive displacement below
    delta, the chained comparison unitaries w_i = u_i u_l*, their block sums,
    the two-by-two rotations sliding each w_i to w_{i+1}, and a cyclic block
    rotation; the assembled path joins (u_0 (+) I (+) ...) to
    (u_l (+) I (+) ...) inside (21 eps, 5 (c r + 4 delta)).  Returns the
    certificate and a parameter report including the achieved (eps', r').
    """
    if u.scalar is None:
        raise DomainError("the transported element must live in the unitization")
    if u.amplification != 1:
        raise DomainError("transport is implemented for amplification 1")
    if params.eps >= 1 / 84:
        # the conclusion lives at 21 eps, which must stay a valid level
        raise DomainError("homotopy transport needs eps < 1/84")
    require_quasi(u, "odd", params)
    c = F.lipschitz_bound
    idx = partition_homotopy(F, delta)
    maps = [F.frames[i] for i in idx]
    covers = [delta_cover(f, delta) for f in maps]
    ell = len(maps) - 1
    m = ell + 1
    tgt = maps[0].target

    us = [ad(v, u) for v in covers]
    u_last = us[-1]
    w = [ui @ u_last.adjoint() for ui in us]

    ident2 = _dsum2(FiniteOperator.identity(tgt, 1, unitized=True))
    dw = [_dsum2(wi) for wi in w]
    dul2 = _dsum2(u_last)
    base_blocks = [dul2] + [ident2] * ell
    a = direct_sum(dw)
    b = direct_sum(dw[1:] + dw[-1:])
    c_op = direct_sum(dw[-1:] + dw[1:])
    base = direct_sum(base_blocks)
    a0 = direct_sum([_dsum2(us[0])] + [ident2] * ell)

    du2 = _dsum2(u)
    dul2_star = dul2.adjoint()

    def pair_cover(i, s):
        rot_y = doubled_rotation(np.full(tgt.total_dim, math.pi / 2 * s))
        rot_x = doubled_rotation(np.full(u.space.total_dim, math.pi / 2 * s))
        stacked = block_diag(covers[i].matrix, covers[i + 1].matrix)
        return rot_y @ stacked @ rot_x.conj().T

    def gamma_slide_blocks(s):
        """First homotopy stage (a to b), one 2-amplification block per
        summand: each w_i rotates to w_{i+1} through doubled covers."""
        parts = []
        for i in range(ell):
            entries, scal = ad_doubled(pair_cover(i, s), du2)
            parts.append(FiniteOperator(tgt, entries, 2,
                                        None if scal is None else [scal, scal]))
        parts.append(dul2)
        return [p @ dul2_star for p in parts]

    def gamma_cycle(s):
        """Second stage (b to c): cyclic rotation of the block summands;
        the mixed result is no longer block-diagonal."""
        mix = np.kron(_cyclic_fraction(m, s), np.eye(2))
        rot = amplify_scalar_matrix(tgt, 2 * m, mix)
        return rot @ b @ rot.adjoint()

    ab_blocks = [dwi @ blk_base for dwi, blk_base in zip(dw, base_blocks)]
    a_base = a @ base

    def seg2_sample(t):
        # runs gamma backwards from c to a so the junctions line up
        s = 1 - t
        if s <= 0.5:
            parts = gamma_slide_blocks(2 * s)
            return direct_sum([g.adjoint() @ abk
                               for g, abk in zip(parts, ab_blocks)])
        return gamma_cycle(2 * s - 1).adjoint() @ a_base

    ambient = QuasiParams(21 * params.eps, 5 * (c * params.r + 4 * delta))
    segs, measured = [], []
    bee = (c_op.adjoint() @ a) @ base
    aa_base = (a.adjoint() @ a) @ base
    stages = [
        ("opening interpolation", lambda t: (1 - t) * a0 + t * bee),
        ("chain rotation", seg2_sample),
        ("closing interpolation", lambda t: (1 - t) * aa_base + t * base),
    ]
    for stage, fn in stages:
        try:
            seg, seg_measured = _certify_path(fn, "odd", ambient)
        except (CertificateError, DomainError) as exc:
            raise CertificateError(f"{stage} stage failed: {exc}") from exc
        segs.append(seg)
        measured += seg_measured
    # every step bound of the joined certificate is a measured norm
    cert = concatenate_certificates(segs)
    ok, report = judge_certificate(cert, measured, cert.step_bounds)
    if not ok:
        raise CertificateError(f"assembled certificate failed: {report['failures'][:3]}")
    report["achieved_eps"] = report.pop("worst_defect")
    report["achieved_r"] = report.pop("worst_propagation")
    report["bound_eps"] = ambient.eps
    report["bound_r"] = ambient.r
    report["stated_bound_r"] = 5 * (c * params.r + 2 * delta)
    report["frames_used"] = m
    report["lipschitz_bound"] = c
    return cert, report


def concatenate_certificates(certs):
    """Join certificates end to start; junction gaps become explicit steps."""
    if not certs:
        raise CertificateError("nothing to concatenate")
    parity = certs[0].parity
    params = certs[0].params
    samples = list(certs[0].samples)
    bounds = list(certs[0].step_bounds)
    for nxt in certs[1:]:
        if nxt.parity != parity or nxt.params != params:
            raise CertificateError("certificates disagree on ambient data")
        bounds.append(opnorm(nxt.samples[0] - samples[-1]))
        samples.extend(nxt.samples)
        bounds.extend(nxt.step_bounds)
    return HomotopyCertificate(parity, samples, params, bounds)
