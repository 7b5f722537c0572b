"""Two-piece decomposition checks and a clutching-projection index detector.

The decomposition machinery verifies, on random banded operators, the two
quantitative axioms that make a pair of overlapping regions usable for
gluing: a coercive splitting x = x1 + x2 with ||x_i|| <= 4 ||x|| along the
three-block structure of the overlap, and the midpoint construction that
approximates two nearby region-supported operators by one supported in the
intersection, within 4 eps.

The detector turns a quasi-unitary u and a cut function phi (1 on one deep
region, 0 on the other, ramping only across the overlap band) into the
projection

    p = W diag(1, 0) W*,   W = R(pi phi / 2) diag(u, 1) R(pi phi / 2)*,

whose spectral projection differs from the reference (u = 1) only near the
cut regions; the rounded partial trace over one cut region is an integer
index detecting the winding of u across that cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controlled import kappa_even
from .errors import DomainError, PropagationError, VerificationFailure
from .generators import random_banded, random_region_supported, trial_rngs
from .geometry import decompose, neighborhood
from .operator import (
    DEFAULT_TAU,
    FiniteOperator,
    block_abs_max,
    block_diag,
    doubled_rotation,
    lift,
    opnorm,
    restrict,
)

MARGIN = 1 / 10  # neighborhood width of a decomposition's regions, before scale
# Weight of the region lobes that set apart the two operators of a midpoint
# trial.  The checked ratios ||x - z|| / ||x - y|| are scale-free, so the
# weight changes no verdict; it only sets the rounding of the reported ratios.
LOBE_WEIGHT = 0.05


def split_masks(m1, m2):
    """Disjoint three-block partition (only-1, overlap, only-2) of two masks."""
    m1 = np.asarray(m1, dtype=bool)
    m2 = np.asarray(m2, dtype=bool)
    if not (m1 | m2).all():
        raise DomainError("masks must cover every sample")
    return m1 & ~m2, m1 & m2, m2 & ~m1


def coercive_split(x, masks):
    """Split x into region-supported x1 + x2 along a three-block partition.

    The corner blocks joining the outer regions must vanish below ``DEFAULT_TAU``
    (guaranteed when the propagation of x is below the region separation);
    then x1 carries blocks {11, 12, 21, 22}, x2 carries {23, 32, 33}, the
    sum reproduces x exactly, and both norms are at most 4 ||x||.
    """
    p1, p2, p3 = masks
    if ((p1 & p2) | (p1 & p3) | (p2 & p3)).any():
        raise DomainError("split masks must be disjoint")
    corners = block_abs_max(x) * (np.outer(p1, p3) | np.outer(p3, p1))
    if corners.max(initial=0.0) > DEFAULT_TAU:
        y, z = np.unravel_index(np.argmax(corners), corners.shape)
        raise PropagationError(
            f"corner block ({y}, {z}) holds {corners[y, z]} > {DEFAULT_TAU}; "
            "propagation too large for this decomposition")
    x1 = restrict(x, p1 | p2, p1 | p2)
    x2 = restrict(x, p2 | p3, p2 | p3) - restrict(x, p2, p2)
    return x1, x2


def cia_midpoint(x, y, masks, eps):
    """Midpoint of the overlap blocks of two nearby region-supported operators.

    x must be supported in the (only-1 + overlap) region, y in the
    (overlap + only-2) region (entries above ``DEFAULT_TAU``), and
    ||x - y|| < eps; the returned z is supported in the overlap and
    satisfies ||x - z|| <= 4 eps and ||y - z|| <= 4 eps.
    """
    z, dx, dy = _midpoint(x, y, masks)
    gap = opnorm(x - y)
    if gap >= eps:
        raise DomainError(f"||x - y|| = {gap} not below eps = {eps}")
    if dx > 4 * eps + 1e-12 or dy > 4 * eps + 1e-12:
        raise VerificationFailure(
            f"midpoint distances ({dx}, {dy}) exceed 4 eps = {4 * eps}")
    return z


def _midpoint(x, y, masks):
    """(z, ||x - z||, ||y - z||) of cia_midpoint, with no level: only the
    supports of x and y are checked.  In exact arithmetic
    x - z = (P1 + P2)(x - y)(P1 + P2) - P2 (x - y) P2 / 2, so both
    distances are at most 3/2 ||x - y||."""
    s1, s2, s3 = masks
    for op, bad, side in ((x, s3, "first"), (y, s1, "second")):
        reach = block_abs_max(op)
        leak = max(reach[bad, :].max(initial=0.0), reach[:, bad].max(initial=0.0))
        if leak > DEFAULT_TAU:
            raise PropagationError(
                f"{side} operator leaks {leak} outside its region")
    z = restrict(0.5 * (x + y), s2, s2)
    return z, opnorm(x - z), opnorm(y - z)


@dataclass
class MvPair:
    """Two operator-support regions and a degree; ``coercity`` is the
    constant every pair is claimed to satisfy."""

    delta1: np.ndarray
    delta2: np.ndarray
    r: float
    coercity = 4.0  # a class attribute, not a field

    @classmethod
    def from_decomposition(cls, space, complex_, r=1 / 50):
        return cls(*decompose(space, complex_), r)


def verify_weak_mv_pair(space, pair, trials=100, seed=0):
    """Exercise the splitting and midpoint axioms at a grid of scales s <= r.

    Random banded operators at each scale are split along the region
    partition and recombined; random region-supported pairs feed the
    midpoint construction.  Reports the worst measured constants against
    the claimed coercivity and a plot-ready table.
    """
    if trials < 1 or seed < 0:
        raise DomainError(f"need trials >= 1 and seed >= 0, got {trials} and {seed}")
    p1, p2, p3 = split_masks(pair.delta1, pair.delta2)
    s_grid = [pair.r / 4, pair.r / 2, pair.r * 3 / 4, pair.r]
    per_scale = max(1, trials // len(s_grid))
    worst_split = 0.0
    worst_recon = 0.0
    worst_cia = 0.0
    rows = []
    rngs = iter(trial_rngs(seed, per_scale * len(s_grid) + len(s_grid)))
    for s in s_grid:
        scale_split = 0.0
        scale_cia = 0.0
        sig1 = neighborhood(space, pair.delta1, MARGIN + s)
        sig_masks = split_masks(sig1, neighborhood(space, pair.delta2, MARGIN + s))
        for _ in range(per_scale):
            rng = next(rngs)
            x = random_banded(space, s, rng, norm=1.0)
            x1, x2 = coercive_split(x, (p1, p2, p3))
            worst_recon = max(worst_recon,
                              float(np.abs((x1 + x2 - x).concrete()).max()))
            # random_banded has scaled x to norm 1 by its own opnorm, so the
            # split norms are the ratios
            scale_split = max(scale_split, opnorm(x1), opnorm(x2))

            core = random_region_supported(space, sig_masks[1], rng, norm=1.0)
            lobe1 = random_region_supported(space, sig_masks[0] | sig_masks[1],
                                            rng, norm=1.0)
            lobe2 = random_region_supported(space, sig_masks[1] | sig_masks[2],
                                            rng, norm=1.0)
            xa = core + LOBE_WEIGHT * lobe1
            ya = core + LOBE_WEIGHT * lobe2
            gap = opnorm(xa - ya)
            _, dx, dy = _midpoint(xa, ya, sig_masks)
            if gap > 1e-12:
                scale_cia = max(scale_cia, dx / gap, dy / gap)
        worst_split = max(worst_split, scale_split)
        worst_cia = max(worst_cia, scale_cia)
        rows.append((f"split_ratio s={s:.6g}", scale_split, pair.coercity,
                     pair.coercity - scale_split))
        rows.append((f"cia_ratio s={s:.6g}", scale_cia, pair.coercity,
                     pair.coercity - scale_cia))
    passed = (worst_split <= pair.coercity + 1e-9
              and worst_cia <= pair.coercity + 1e-9
              and worst_recon <= 1e-14)
    return {
        "trials": per_scale * len(s_grid),
        "degree": pair.r,
        "worst_split_ratio": worst_split,
        "worst_cia_ratio": worst_cia,
        "worst_reconstruction": worst_recon,
        "coercity_bound": pair.coercity,
        "passed": passed,
        "table": rows,
    }


# -- cut functions and the index detector -----------------------------------


@dataclass
class CutFunction:
    """Per-sample values in [0, 1] whose ramp is confined to a declared band."""

    values: np.ndarray
    band: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if (~((self.values >= 0) & (self.values <= 1))).any():  # NaN fails too
            raise DomainError("cut values must lie in [0, 1]")
        if self.band is None:
            self.band = (self.values > 0) & (self.values < 1)
        self.band = np.asarray(self.band, dtype=bool)
        ramp = (self.values > 0) & (self.values < 1)
        if (ramp & ~self.band).any():
            raise DomainError("cut ramp escapes the declared band")


def arc_positions(space, order):
    """Fractional arc-length position of each ordered circle sample."""
    hops = np.array([space.dist[order[i], order[(i + 1) % len(order)]]
                     for i in range(len(order))])
    total = float(hops.sum())
    pos = np.zeros(len(order))
    pos[1:] = np.cumsum(hops[:-1]) / total
    out = np.zeros(len(space))
    out[order] = pos
    return out


def circle_cut(space, order, width=0.1):
    """Smoothed indicator of the upper arc of an ordered circle.

    Returns the cut function plus the two cut-region masks (around arc
    positions 0 and 1/2), each wide enough to contain its ramp.
    """
    if not 0 < width < 0.25:
        raise DomainError("ramp width must lie in (0, 1/4)")
    pos = arc_positions(space, order)
    vals = np.zeros(len(space))
    for i, t in enumerate(pos):
        if t >= 1 - width:
            vals[i] = (t - (1 - width)) / (2 * width)
        elif t < width:
            vals[i] = (t + width) / (2 * width)
        elif t <= 0.5 - width:
            vals[i] = 1.0
        elif t < 0.5 + width:
            vals[i] = (0.5 + width - t) / (2 * width)
    wrap = np.minimum(pos, 1 - pos)
    region0 = wrap <= 2 * width
    region1 = np.abs(pos - 0.5) <= 2 * width
    band = (vals > 0) & (vals < 1)
    return CutFunction(vals, band | region0 | region1), region0, region1


def clutching_projection(u, phi):
    """The clutching projection of a quasi-unitary along a cut function.

    Exactly a projection when u is exactly unitary; in general
    ||p^2 - p|| <= ||W||^2 max(||u*u - 1||, ||uu* - 1||).  Its propagation
    never exceeds twice the propagation of u since the rotation acts
    pointwise.
    """
    if phi.values.shape != (len(u.space),):
        raise DomainError("cut function must match the operator's space")
    n = u.dim
    rot = doubled_rotation(lift(u.space, u.amplification, 0.5 * math.pi * phi.values))
    w = rot @ block_diag(u.concrete(), np.eye(n)) @ rot.conj().T
    d10 = block_diag(np.eye(n, dtype=complex), np.zeros((n, n)))
    p = w @ d10 @ w.conj().T
    p = (p + p.conj().T) / 2
    return FiniteOperator(u.space, p, 2 * u.amplification)


def local_index(u, phi, region):
    """Rounded partial trace of chi(p(u, phi)) - chi(p(1, phi)) over one cut
    region; integral within 0.1, else the detector reports itself
    inconclusive (refine the mesh or shrink the propagation)."""
    if np.shape(region) != (len(u.space),):
        raise DomainError("region must have one entry per sample point")
    p_u = clutching_projection(u, phi)
    # at u = 1, W = R R* = 1, so chi(p(1, phi)) is exactly diag(1, 0)
    reference = np.arange(p_u.dim) < u.dim
    diff = np.diag(kappa_even(p_u).concrete()) - reference
    mask = lift(u.space, p_u.amplification, np.asarray(region, dtype=bool))
    raw = float(np.real(diff[mask].sum()))
    nearest = round(raw)
    if abs(raw - nearest) > 0.1:
        raise DomainError(
            f"detector inconclusive: partial trace {raw} not within 0.1 of an "
            "integer; refine the mesh or shrink r")
    return int(nearest)
