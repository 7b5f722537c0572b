"""Quasi-projections and quasi-unitaries, the comparison map from a
quasi-projection to an exact projection, class representatives, homotopy
certificates, and the (lambda, h) parameter bookkeeping.

A self-adjoint p with ||p^2 - p|| < eps and propagation < r is an
(eps, r)-quasi-projection; u with ||u*u - 1|| < eps, ||uu* - 1|| < eps and
propagation < r is an (eps, r)-quasi-unitary.  Homotopies are represented
only by verifiable certificates: sampled paths with one bound per step.
The quasi-test (``is_quasi``) is the certificate rule on the one-sample
path at the element, so ``judge_certificate`` alone states it.
``judge_certificate`` admits a step of size d between samples of defects
e0, e1 when max(e0, e1) + d^2/4 stays within eps (an exact identity); only
``perturb_bound`` and the first check of ``interpolation_certificate`` use
the coarser ||p'^2 - p'|| <= eps + 5 ||p - p'||.  Builders judge what they
measured once; ``verify_certificate`` re-measures, for loaded certificates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateError,
    DomainError,
    PropagationError,
    SpectralGapError,
    VerificationFailure,
)
from .operator import (
    FiniteOperator,
    coordinates_of,
    direct_sum,
    herm_defect,
    hermitian_gap,
    opnorm,
    propagation,
    spectrum,
)

HERM_TOL = 1e-12


@dataclass(frozen=True)
class QuasiParams:
    """An (eps, r) control level with eps in (0, 1/4) and r > 0."""

    eps: float
    r: float

    def __post_init__(self):
        if not 0 < self.eps < 0.25:
            raise DomainError(f"eps={self.eps} outside (0, 1/4)")
        if not self.r > 0:  # NaN too
            raise DomainError("r must be positive")


def projection_defect(op, herm=None):
    """||p^2 - p||: max |lambda^2 - lambda| over the block eigenvalues of a
    nearly Hermitian p (``herm``: ``hermitian_gap``'s verdict, if known)."""
    m = op.concrete() if isinstance(op, FiniteOperator) else np.asarray(op)
    if herm is None:
        herm = hermitian_gap(m)[1]
    if herm:
        return defect_and_rank(m)[0]
    return opnorm(m @ m - m)


def defect_and_rank(m):
    """(||m^2 - m||, rank of the spectral projection above 1/2) of a
    Hermitian matrix, both read off one ``spectrum``."""
    lam = spectrum(m, True)
    return float(np.abs(lam * lam - lam).max(initial=0.0)), int((lam > 0.5).sum())


def unitary_defects(op):
    """(||u*u - 1||, ||uu* - 1||), both max |sigma^2 - 1| for a square u (polar
    decomposition); a singular value the split leaves out is 0, so then >= 1."""
    m = op.concrete() if isinstance(op, FiniteOperator) else np.asarray(op)
    sq = spectrum(m, False)
    d = max(float(np.abs(sq - 1.0).max(initial=0.0)), 1.0 if sq.size < len(m) else 0.0)
    return d, d


def measure(x, parity):
    """Witness norms of one element: the self-adjointness and projection
    defects (even) or the two unitary defects (odd), then propagation."""
    if parity == "even":
        gap, herm = hermitian_gap(x.concrete())
        wit = {"herm_defect": herm_defect(x, gap),
               "projection_defect": projection_defect(x, herm)}
    elif parity == "odd":
        wit = dict(zip(("left_defect", "right_defect"), unitary_defects(x)))
    else:
        raise DomainError(f"parity must be 'even' or 'odd', not {parity!r}")
    wit["propagation"] = propagation(x)
    return wit


def is_quasi(x, parity, params):
    """Quasi-test: the certificate rule on the one-sample path at ``x``;
    returns (verdict, witness norms with the level)."""
    wit = measure(x, parity)
    ok, _ = judge_certificate(HomotopyCertificate(parity, [x], params), [wit], [])
    return ok, {**wit, "eps": params.eps, "r": params.r}


def is_quasi_projection(p, params):
    return is_quasi(p, "even", params)


def require_quasi(x, parity, params):
    """Raise DomainError unless ``x`` passes its quasi-test."""
    ok, wit = is_quasi(x, parity, params)
    if not ok:
        raise DomainError(f"{parity} quasi-test failed: {wit}")


def perturb_bound(p, p_prime, params):
    """Degraded parameters (eps + 5 delta, r) after replacing p by p_prime.

    Requires p to be an (eps, r)-quasi-projection, p_prime self-adjoint with
    propagation below r, and delta = ||p - p_prime|| < 1/4.  Asserts the
    bound on p_prime and on nine sampled interpolants before returning.
    """
    require_quasi(p, "even", params)
    if herm_defect(p_prime) > HERM_TOL:
        raise DomainError("perturbed operator is not self-adjoint")
    if propagation(p_prime) >= params.r:
        raise PropagationError("perturbed operator exceeds the propagation bound")
    delta = opnorm(p - p_prime)
    if delta >= 0.25:
        raise DomainError(f"||p - p'|| = {delta} >= 1/4")
    bound = params.eps + 5 * delta
    for t in np.linspace(0.0, 1.0, 9):
        pt = t * p + (1 - t) * p_prime
        if projection_defect(pt) > bound + 1e-9:
            raise VerificationFailure(
                f"interpolant at t={t} violates the perturbation bound")
    if bound >= 0.25:
        raise DomainError("degraded eps leaves the quasi-projection regime")
    return QuasiParams(bound, params.r)


def spectral_band_radius(eps):
    """Half-width a of the admissible eigenvalue clusters [-a, a] and
    [1 - a, 1 + a]."""
    return (math.sqrt(1 + 4 * eps) - 1) / 2


def forbidden_band(eps):
    """Open interval around 1/2 that a quasi-projection spectrum avoids."""
    if not 0 < eps < 0.25:
        raise DomainError("eps outside (0, 1/4)")
    half = math.sqrt(1 - 4 * eps) / 2
    return 0.5 - half, 0.5 + half


def kappa_even(p):
    """Spectral projection chi_[1/2, inf)(p) of a quasi-projection.

    Verifies self-adjointness, ||p^2 - p|| < 1/4, and that no eigenvalue
    falls more than 1e-9 inside the forbidden band of the measured defect
    before projecting.
    """
    if herm_defect(p) > HERM_TOL:
        raise DomainError("kappa_even needs a self-adjoint operator")
    m = p.concrete()
    m = (m + m.conj().T) / 2
    lam, q = np.linalg.eigh(m)
    defect = float(np.abs(lam * lam - lam).max(initial=0.0))
    if defect >= 0.25:
        raise DomainError(f"||p^2 - p|| = {defect} >= 1/4")
    lo, hi = forbidden_band(max(defect, 1e-15))
    inside = (lam > lo + 1e-9) & (lam < hi - 1e-9)
    if inside.any():
        raise SpectralGapError(
            f"eigenvalue {lam[inside][0]} inside the forbidden band ({lo}, {hi})")
    proj = (q * (lam > 0.5)) @ q.conj().T
    proj = (proj + proj.conj().T) / 2
    scalar = None if p.scalar is None else (np.real(p.scalar) >= 0.5).astype(complex)
    return FiniteOperator.from_concrete(p.space, proj, p.amplification, scalar)


def chi_rank(p):
    """Rank of the spectral projection above 1/2."""
    m = p.concrete() if isinstance(p, FiniteOperator) else np.asarray(p)
    return defect_and_rank((m + m.conj().T) / 2)[1]


def scalar_rank(op):
    """Number of unitization copies whose scalar lies above 1/2."""
    if op.scalar is None:
        return 0
    return int((np.real(op.scalar) >= 0.5).sum())


# -- class representatives ------------------------------------------------


@dataclass
class KClassRep:
    """A stabilized quasi-projection (even) or quasi-unitary (odd) together
    with its (eps, r) level and, for even parity, the scalar-rank tag."""

    parity: str
    rep: FiniteOperator
    params: QuasiParams
    ell: int = 0

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise DomainError("parity must be 'even' or 'odd'")


def stabilize(x, k):
    """diag(rep, I_k); even parity tags the added scalar rank onto ell."""
    if k < 0:
        raise DomainError("cannot remove stabilization summands")
    if k == 0:
        return x
    pad = FiniteOperator.identity(x.rep.space, k, unitized=True)
    rep = direct_sum([x.rep, pad])
    ell = x.ell + k if x.parity == "even" else x.ell
    return KClassRep(x.parity, rep, x.params, ell)


def k0_points(p, params, ell=None):
    """Per-point class vector of a quasi-projection over a 0-dimensional space.

    With r below every distance between points the operator is
    block-diagonal over points; the value at point j is rank chi(p_j)
    minus the scalar contribution ell * d_j.
    """
    space = p.space
    n = len(space)
    if n > 1:
        separation = float(space.dist[~np.eye(n, dtype=bool)].min())
        if params.r >= separation:
            raise DomainError(
                f"r={params.r} not below the point separation {separation}")
    require_quasi(p, "even", params)
    if ell is None:
        ell = scalar_rank(p)
    m = p.concrete()
    classes = np.zeros(n, dtype=int)
    for j in range(n):
        coords = coordinates_of(space, p.amplification, [j])
        block = m[np.ix_(coords, coords)]
        defect, rank = defect_and_rank((block + block.conj().T) / 2)
        if defect >= 0.25:
            raise SpectralGapError(f"block at point {j} has no spectral gap")
        classes[j] = rank - ell * int(space.internal_dims[j])
    return classes


# -- homotopy certificates -------------------------------------------------


@dataclass
class HomotopyCertificate:
    """A sampled operator path plus the step bounds that make every linear
    interpolant provably stay inside the ambient quasi-regime."""

    parity: str
    samples: list
    params: QuasiParams
    step_bounds: list = field(default_factory=list)

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise DomainError("parity must be 'even' or 'odd'")
        if len(self.samples) < 1:
            raise CertificateError("certificate needs at least one sample")
        if len(self.step_bounds) != len(self.samples) - 1:
            raise CertificateError("need one step bound per consecutive pair")

    def __len__(self):
        return len(self.samples)

    def endpoints(self):
        return self.samples[0], self.samples[-1]


def step_norms(ops):
    """||x_{i+1} - x_i|| for each consecutive pair of a sequence."""
    return [opnorm(b - a) for a, b in zip(ops, ops[1:])]


def witness_defect(wit):
    """The defect that eps bounds: the projection or larger unitary one."""
    if "projection_defect" in wit:
        return wit["projection_defect"]
    return max(wit["left_defect"], wit["right_defect"])


def interpolation_certificate(p, p_prime, ambient):
    """Two-sample certificate for the straight line between nearby
    quasi-projections.

    Valid when 5 ||p - p'|| + max of the measured defects stays below the
    ambient eps (checked first) and the certificate rule accepts it.
    """
    delta = step_norms([p, p_prime])[0]  # the verifier's number, bit for bit
    measured = [measure(s, "even") for s in (p, p_prime)]
    worst = max(map(witness_defect, measured))
    if 5 * delta + worst >= ambient.eps:
        raise CertificateError(
            f"gap too large: 5*{delta} + {worst} >= {ambient.eps}; subdivide")
    cert = HomotopyCertificate("even", [p, p_prime], ambient, [delta])
    ok, report = judge_certificate(cert, measured, [delta])
    if not ok:
        raise CertificateError(
            f"interpolation fails verification at {report['failures'][0]}")
    return cert


def judge_certificate(cert, measured, steps):
    """The certificate rule on measurements already taken; returns
    (verdict, report).

    ``measured`` holds the ``measure`` of each sample and ``steps`` the
    ``step_norms`` of the samples.  Each sample must be self-adjoint (even
    parity) with defect below eps and propagation below r.  For a linear
    step p_t = (1-t) p0 + t p1 of size d the defect obeys the exact identity
    p_t^2 - p_t = (1-t)(p0^2-p0) + t(p1^2-p1) - t(1-t)(p0-p1)^2
    (and its unitary analogue), so a step is admissible when
    max(e0, e1) + d^2/4 stays within the ambient eps.
    """
    failures = []
    defects = [witness_defect(w) for w in measured]
    props = [w["propagation"] for w in measured]
    for i, (w, d, p) in enumerate(zip(measured, defects, props)):
        if cert.parity == "even" and w["herm_defect"] > HERM_TOL:
            failures.append((i, "sample not self-adjoint"))
        if d >= cert.params.eps:
            failures.append((i, f"sample defect {d} >= eps {cert.params.eps}"))
        if p >= cert.params.r:
            failures.append((i, f"sample propagation {p} >= r {cert.params.r}"))
    margins = []
    for i, (bound, actual) in enumerate(zip(cert.step_bounds, steps)):
        if actual > bound + 1e-12:
            failures.append((i, f"recorded step bound {bound} below actual {actual}"))
        margin = cert.params.eps - (max(defects[i], defects[i + 1])
                                    + bound * bound / 4)
        margins.append(margin)
        if margin < -1e-12:
            failures.append((i, f"step margin violated by {-margin}"))
    report = {
        "samples": len(cert.samples),
        "parity": cert.parity,
        "eps": cert.params.eps,
        "r": cert.params.r,
        "worst_defect": max(defects),
        "worst_propagation": max(props),
        "worst_step_margin": min(margins) if margins else math.inf,
        "failures": failures,
    }
    return not failures, report


def verify_certificate(cert):
    """Re-measure every sample and every step of a certificate and judge
    them (``judge_certificate``); returns (verdict, report).  This is the
    check on a certificate read from a file."""
    return judge_certificate(cert, [measure(s, cert.parity) for s in cert.samples],
                             step_norms(cert.samples))


def certificate_rank_profile(cert):
    """chi-rank at every sample; constant along any verified even certificate."""
    return [chi_rank(s) for s in cert.samples]


# -- control pairs ---------------------------------------------------------


class ControlPair:
    """A degradation bookkeeping pair (lambda, h) with lambda > 1 and h a
    tabulated function on (0, 1/(4 lambda)) taking values above 1.

    Composition is evaluated lazily through the stored interpolants so that
    nested compositions agree with sequential application to rounding.
    """

    GRID = 64

    def __init__(self, lam, evaluator, floor, label="h"):
        if lam <= 1:
            raise DomainError("lambda must exceed 1")
        self.lam = float(lam)
        self._eval = evaluator
        self.floor = float(floor)
        self.label = label
        if self.floor >= self.domain_sup:
            raise DomainError("empty evaluation domain")

    @property
    def domain_sup(self):
        return 1.0 / (4.0 * self.lam)

    @classmethod
    def from_table(cls, lam, eps_grid, values, label="h"):
        eps_grid = np.asarray(eps_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if eps_grid.ndim != 1 or eps_grid.shape != values.shape:
            raise DomainError("grid and values must be matching vectors")
        if (np.diff(eps_grid) <= 0).any():
            raise DomainError("grid must be strictly increasing")
        if eps_grid[0] <= 0 or eps_grid[-1] >= 1 / (4 * lam):
            raise DomainError("grid must lie inside (0, 1/(4 lambda))")
        if (values <= 1).any():
            raise DomainError("h must take values above 1")
        logx, logy = np.log(eps_grid), np.log(values)

        def evaluate(eps):
            return float(np.exp(np.interp(math.log(eps), logx, logy)))

        return cls(lam, evaluate, eps_grid[0], label)

    @classmethod
    def from_function(cls, lam, fn, label="h"):
        hi = 1 / (4 * lam)
        eps_grid = np.geomspace(hi * 1e-6, hi * (1 - 1e-9), cls.GRID)
        return cls.from_table(lam, eps_grid, [fn(e) for e in eps_grid], label)

    @classmethod
    def constant(cls, lam, value):
        return cls.from_function(lam, lambda _: value, f"const {value}")

    def __call__(self, eps):
        if not 0 < eps < self.domain_sup:
            raise DomainError(
                f"eps={eps} outside the control-pair domain (0, {self.domain_sup})")
        return self._eval(max(eps, self.floor))

    def table(self, n=None):
        n = n or self.GRID
        lo = max(self.floor, self.domain_sup * 1e-6)
        grid = np.geomspace(lo, self.domain_sup * (1 - 1e-9), n)
        return grid, np.array([self(e) for e in grid])

    def __repr__(self):
        return f"ControlPair(lambda={self.lam}, {self.label})"


def compose_control_pairs(a, b):
    """(lambda lambda', eps -> h(lambda' eps) h'(eps)), evaluated lazily."""
    lam = a.lam * b.lam
    floor = max(b.floor, a.floor / b.lam)
    if floor >= 1 / (4 * lam):
        raise DomainError("composed domain collapses below the tabulation floor")

    def evaluate(eps):
        return a._eval(max(b.lam * eps, a.floor)) * b._eval(max(eps, b.floor))

    return ControlPair(lam, evaluate, floor, label=f"({a.label})*({b.label})")


def apply_control_pair(cp, params):
    """Degrade (eps, r) to (lambda eps, h(eps) r)."""
    if params.eps >= cp.domain_sup:
        raise DomainError(
            f"eps={params.eps} outside the domain (0, {cp.domain_sup})")
    return QuasiParams(cp.lam * params.eps, cp(params.eps) * params.r)


def relaxed_params(relax, morphism, params):
    """Parameter degradation of a morphism acting on a relaxed group.

    With relax = (alpha, k) and morphism = (lambda, h) the degraded radius
    follows h'(eps) = h(alpha eps) k(eps) / k(lambda eps).
    """
    alpha, k = relax.lam, relax
    lam, h = morphism.lam, morphism
    eps = params.eps
    if alpha * eps >= h.domain_sup:
        raise DomainError("alpha * eps outside the domain of h")
    if eps >= k.domain_sup or lam * eps >= k.domain_sup:
        raise DomainError("eps or lambda * eps outside the domain of k")
    h_prime = h(alpha * eps) * k(eps) / k(lam * eps)
    return QuasiParams(lam * eps, h_prime * params.r)
