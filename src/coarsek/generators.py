"""Deterministic randomized construction of banded operators and
quasi-elements with known structure, for verification harnesses and tests.

All generators take a numpy Generator; harnesses derive per-trial
generators from a master seed via SeedSequence.spawn so trial k is
reproducible independently of the others.
"""

from __future__ import annotations

import numpy as np

from .controlled import defect_and_rank, unitary_defects
from .errors import DomainError
from .operator import FiniteOperator, coordinates_of, lift, opnorm, restrict

TRIES = 8  # attempts of the quasi-element generators, each with weaker noise


def rng_from(seed):
    return np.random.default_rng(seed)


def trial_rngs(seed, trials):
    """Independent per-trial generators derived from one master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trials)]


def band_mask(space, amplification, r):
    """Coordinate mask of the strict metric band d < r (diagonal included)."""
    pts = space.dist < r
    np.fill_diagonal(pts, True)
    return lift(space, amplification, pts)


def random_banded(space, r, rng, amplification=1, selfadjoint=False, norm=None):
    """Dense complex Gaussian matrix supported on the open band d < r."""
    n = amplification * space.total_dim
    m = np.empty((n, n), complex)  # the bits of re + 1j * im, without the temporaries
    m.real = rng.standard_normal((n, n))
    m.imag = rng.standard_normal((n, n))
    if not (space.dist < r).all():  # an all-true mask (r = inf, connected) is skipped
        m *= band_mask(space, amplification, r)
    if selfadjoint:
        m = (m + m.conj().T) / 2
    if norm is not None and m.any():
        m *= norm / opnorm(m)
    return FiniteOperator._owning(space, m, amplification)


def random_region_supported(space, region, rng, amplification=1, norm=1.0,
                            band_r=None):
    """Random operator with support inside region x region (optionally banded)."""
    op = restrict(random_banded(space, band_r if band_r is not None else np.inf,
                                rng, amplification), region, region)
    size = 0.0 if norm is None else opnorm(op)
    return op * (norm / size) if size else op  # a zero draw stays zero


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def banded_near_unitary(space, r, rng, amplification=1, strength=0.25):
    """exp of a small banded skew-Hermitian; nearly banded, exactly unitary.

    The skew-Hermitian ``(a - a*) / 2`` is ``i h`` for the Hermitian
    ``h = (a - a*) / 2i``, so its exponential is ``Q diag(exp(i w)) Q*``
    from ``eigh(h) = (w, Q)``: the eigenvector method, well conditioned for
    a normal matrix (Moler & Van Loan, Nineteen Dubious Ways to Compute the
    Exponential of a Matrix, Twenty-Five Years Later, SIAM Review 45,
    2003)."""
    a = random_banded(space, r, rng, amplification, norm=strength).concrete()
    w, q = np.linalg.eigh((a - a.conj().T) / 2j)
    return (q * np.exp(1j * w)) @ q.conj().T


def random_quasi_projection(space, params, rng, rank=None):
    """Quasi-projection with a known spectral-projection rank.

    Conjugates a 0/1 diagonal (plus uniform diagonal noise below eps/2) by a
    banded near-unitary, masks the result back onto the band d < r, and
    re-symmetrizes; retries with weaker noise until the measured defect sits
    inside eps.  Returns (operator, rank).
    """
    n = space.total_dim
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    if not 0 <= rank <= n:
        raise DomainError("rank outside [0, dim]")
    diag01 = np.zeros(n)
    diag01[rng.permutation(n)[:rank]] = 1.0
    mask = band_mask(space, 1, params.r)
    noise_level = params.eps / 2
    # keep the rotation weak enough that masking its tails costs less than eps
    strength = min(0.25, 3 * params.eps)
    for _ in range(TRIES):
        noise = rng.uniform(-noise_level, noise_level, size=n)
        d = diag01 + noise
        v = banded_near_unitary(space, params.r / 3, rng, strength=strength)
        m = (v * d) @ v.conj().T
        m = m * mask
        m = (m + m.conj().T) / 2
        defect, found = defect_and_rank(m)
        if defect < 0.9 * params.eps and found == rank:
            return FiniteOperator(space, m), rank
        noise_level /= 2
    raise DomainError("could not reach the requested quasi-projection level; "
                      "band too tight for this space")


def random_quasi_unitary(space, params, rng):
    """Quasi-unitary: random phases times a masked banded near-unitary."""
    strength = 0.25
    for _ in range(TRIES):
        v = banded_near_unitary(space, params.r / 3, rng, strength=strength)
        v = v * band_mask(space, 1, params.r)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=space.total_dim))
        m = phases[:, None] * v
        u = FiniteOperator(space, m)
        if max(unitary_defects(u)) < 0.9 * params.eps:
            return u
        strength /= 2
    raise DomainError("could not reach the requested quasi-unitary level")


def random_blockdiag_quasi_projection(space, rng, ranks, noise=0.02):
    """Independent per-point blocks with exact chi-ranks plus small noise.

    Propagation is 0, so the result is a quasi-projection at any r; the
    noise bound keeps each block's spectrum within `noise` of {0, 1}.
    """
    ranks = np.asarray(ranks, dtype=int)
    if len(ranks) != len(space):
        raise DomainError("one rank per point required")
    n = space.total_dim
    m = np.zeros((n, n), dtype=complex)
    for j in range(len(space)):
        d = int(space.internal_dims[j])
        if not 0 <= ranks[j] <= d:
            raise DomainError(f"rank {ranks[j]} outside [0, {d}] at point {j}")
        q = haar_unitary(d, rng)
        diag = np.zeros(d)
        diag[:ranks[j]] = 1.0
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (h + h.conj().T) / 2
        h *= noise / max(opnorm(h), 1e-15)
        block = (q * diag) @ q.conj().T + h
        coords = coordinates_of(space, 1, [j])
        m[np.ix_(coords, coords)] = block
    return FiniteOperator(space, m)


def phase_unitary(space, angles, amplification=1, unitized=True):
    """Diagonal multiplication unitary e^{i theta(x)}, propagation 0."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (len(space),):
        raise DomainError("one angle per sample point required")
    full = np.diag(lift(space, amplification, np.exp(1j * angles)))
    scalar = np.ones(amplification, dtype=complex) if unitized else None
    return FiniteOperator.from_concrete(space, full, amplification, scalar)


def shift_unitary(space, order, power=1, amplification=1):
    """Cyclic shift along an ordered circle of samples (equal fibers);
    ``order`` lists every sample point once."""
    order = np.asarray(order, dtype=int)
    if order.ndim != 1 or not np.array_equal(np.sort(order), np.arange(len(space))):
        raise DomainError("order must list every sample point exactly once")
    if not (space.internal_dims == space.internal_dims[0]).all():
        raise DomainError("cyclic shift needs equal fiber dimensions")
    n = amplification * space.total_dim
    m = np.zeros((n, n), dtype=complex)
    m[coordinates_of(space, amplification, np.roll(order, -power)),
      coordinates_of(space, amplification, order)] = 1.0
    return FiniteOperator(space, m, amplification)
