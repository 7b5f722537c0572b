"""Finite operators over a sampled space, with support and propagation.

An operator acts on ``k`` copies of the module ``H = sum_i C^{d_i}`` (one
fiber per sample point).  Coordinates are stored copy-major: coordinate
``a * D + offset_i + f`` is fiber coordinate ``f`` of point ``i`` in copy
``a``.  Elements of the unitization carry a per-copy scalar vector that is
folded into the dense matrix only when a concrete matrix is needed, so the
scalar bookkeeping stays exact.

An operator's entries and scalar part are finite and read-only, and no
other object holds them; the entries are C-ordered.  The public
constructor copies what it is given.  Results the library builds on arrays
it has just made (sums, differences, scalar multiples, products without a
scalar part, ``restrict``, ``direct_sum`` and the generators' random
operators) take them over uncopied, after the same checks
(``FiniteOperator._owning``).  So ``opnorm`` scans only an operator with a
scalar part for non-finite entries: folding the scalar in can overflow.  A
difference is one subtraction, with the numbers of adding ``-1.0`` times
the second operand, though a zero may carry the other sign.

Only this module spells the layout out: ``coordinates_of`` (the coordinates
of listed points), ``lift`` (per-point data to per-coordinate data),
``block_abs_max``/``point_block_max`` (coordinate data back to point
blocks), ``concrete``/``from_concrete`` (folding and splitting the scalar
part), ``direct_sum`` (copies side by side, through ``block_diag``),
``amplify_map`` (a module map on every copy) and ``doubled_rotation`` (the
rotation between the two halves of a doubled module).

Every norm and defect reads the blocks of one split of the nonzero pattern.
The defects read ``spectrum``, the block eigenvalues or squared singular
values, after one Hermitian test, ``hermitian_gap``.  ``opnorm`` is the top
singular value of every input and runs no Hermitian test.  A block with a
side below ``LANCZOS_MIN`` gives the ``eigvalsh`` of its Gram matrix; a
larger one takes Lanczos on its Gram matrix from a fixed start vector, at
most ``LANCZOS_STEPS`` steps.  The iteration stops once the top Ritz
value's residual, or its Kato-Temple error estimate (the squared residual
over the gap to the next Ritz value), is at most ``8 n eps`` times that
value; every fourth step one dense ``eigh`` of the tridiagonal matrix gives
both.  The Ritz value is kept only when a Cholesky factorisation with an
explicit rounding margin certifies it, else the block falls back to
``eigvalsh``; neither stop rule is part of that proof.  A norm from
``eigvalsh`` agrees with a whole-matrix solve up to rounding.  A certified
Lanczos norm is a Ritz value, below the true norm up to rounding, and the
certificate proves the true norm is at most ``(1 + 5e-11)`` times it; in
practice the two agree to a few units of rounding.  Either way norms may
differ from earlier versions in the last bits.  Each Gram product is taken
of a block scaled by an exact power of two when its entries are too large
or too small to square safely.

All of it is numpy: the pattern's components come from min-label hooking,
and the library imports no scipy, so every product and factorisation runs
on numpy's one OpenBLAS thread pool.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

DEFAULT_TAU = 1e-12
LANCZOS_MIN = 160    # blocks with both sides at least this take certified Lanczos
LANCZOS_STEPS = 64   # the Lanczos step cap before the fallback
SQUARE_SAFE = 2.0 ** 150  # largest moduli in [1/this, this] square without harm
_EPS = np.finfo(float).eps
_TINY = np.nextafter(0.0, 1.0)


class FiniteOperator:
    """A complex matrix over a SampledSpace with block structure by point pairs."""

    def __init__(self, space, entries, amplification=1, scalar=None):
        # a copy: the caller's array may change
        self._take(space, np.array(entries, dtype=complex), amplification, scalar)

    @classmethod
    def _owning(cls, space, entries, amplification=1, scalar=None):
        """The operator on ``entries``, an array the library has just made
        and keeps no other reference to: checked as the constructor checks
        its copy and made C-ordered, but not copied."""
        op = cls.__new__(cls)
        op._take(space, np.ascontiguousarray(entries, dtype=complex), amplification, scalar)
        return op

    def _take(self, space, entries, amplification, scalar):
        self.space = space
        self.amplification = int(amplification)
        n = self.amplification * space.total_dim
        if entries.shape != (n, n):
            raise ShapeError(
                f"entries shape {entries.shape} != ({n}, {n}) for amplification "
                f"{amplification} over a module of dimension {space.total_dim}")
        if not np.isfinite(entries).all():
            raise DomainError("operator with non-finite entries")
        self.entries = entries
        self.entries.flags.writeable = False
        if scalar is not None:
            scalar = np.atleast_1d(np.array(scalar, dtype=complex))  # a copy, too
            if scalar.shape == (1,):
                scalar = np.full(self.amplification, scalar[0])
            if scalar.shape != (self.amplification,):
                raise ShapeError("scalar vector length must equal amplification")
            if not np.isfinite(scalar).all():
                raise DomainError("operator with a non-finite scalar part")
            scalar.flags.writeable = False
        self.scalar = scalar

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, space, amplification=1):
        n = amplification * space.total_dim
        return cls(space, np.zeros((n, n), dtype=complex), amplification)

    @classmethod
    def identity(cls, space, amplification=1, unitized=True):
        n = amplification * space.total_dim
        if unitized:
            return cls(space, np.zeros((n, n), dtype=complex), amplification,
                       np.ones(amplification, dtype=complex))
        return cls(space, np.eye(n, dtype=complex), amplification)

    # -- basic views -------------------------------------------------------

    @property
    def dim(self):
        return self.amplification * self.space.total_dim

    @property
    def unitized(self):
        return self.scalar is not None

    def concrete(self):
        """Dense matrix with any scalar part folded in."""
        if self.scalar is None:
            return self.entries
        return self.entries + np.diag(np.repeat(self.scalar, self.space.total_dim))

    @classmethod
    def from_concrete(cls, space, matrix, amplification=1, scalar=None):
        """Inverse of ``concrete``: the scalar diagonal, when given, is
        subtracted from the dense matrix."""
        if scalar is not None:
            matrix = matrix - np.diag(np.repeat(scalar, space.total_dim))
        return cls(space, matrix, amplification, scalar)

    def with_scalar(self, scalar):
        return FiniteOperator(self.space, self.entries, self.amplification, scalar)

    # -- algebra -----------------------------------------------------------

    def _require_compatible(self, other):
        if self.space is not other.space and self.space.total_dim != other.space.total_dim:
            raise ShapeError("operators live over different spaces")
        if self.amplification != other.amplification:
            raise ShapeError("amplification mismatch")

    def __add__(self, other):
        return self._pointwise(np.add, other)

    def __sub__(self, other):
        return self._pointwise(np.subtract, other)

    def _pointwise(self, f, other):
        """``f`` (``np.add`` or ``np.subtract``) of the entries and of the
        scalar parts, an absent scalar part counting as 0."""
        self._require_compatible(other)
        scalar = None
        if self.scalar is not None or other.scalar is not None:
            a = self.scalar if self.scalar is not None else 0
            b = other.scalar if other.scalar is not None else 0
            scalar = np.atleast_1d(f(a, b)) * np.ones(self.amplification)
        return FiniteOperator._owning(self.space, f(self.entries, other.entries),
                                      self.amplification, scalar)

    def __mul__(self, c):
        scalar = None if self.scalar is None else c * self.scalar
        return FiniteOperator._owning(self.space, c * self.entries,
                                      self.amplification, scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other):
        self._require_compatible(other)
        if self.scalar is None and other.scalar is None:
            return FiniteOperator._owning(self.space, self.entries @ other.entries,
                                          self.amplification)
        sa = self.scalar if self.scalar is not None else np.zeros(self.amplification)
        sb = other.scalar if other.scalar is not None else np.zeros(other.amplification)
        prod = self.concrete() @ other.concrete()
        return FiniteOperator.from_concrete(self.space, prod, self.amplification, sa * sb)

    def adjoint(self):
        scalar = None if self.scalar is None else np.conj(self.scalar)
        return FiniteOperator(self.space, self.entries.conj().T,
                              self.amplification, scalar)


def coordinates_of(space, amplification, points):
    """Copy-major coordinates of the fibers of the listed points, copy 0
    first and points in the given order within each copy."""
    points = np.asarray(points, dtype=int)
    d = space.internal_dims[points]
    starts = np.cumsum(d) - d  # where each point's run begins within a copy
    one_copy = np.arange(d.sum()) + np.repeat(space.offsets[points] - starts, d)
    copies = np.arange(amplification)[:, None] * space.total_dim
    return (copies + one_copy).ravel()


def hermitian_gap(m):
    """The one Hermitian test: (||m - m*||_F, is it <= 1e-13 max(1, ||m||_F))."""
    gap = float(np.linalg.norm(m - m.conj().T))
    return gap, gap <= 1e-13 * max(1.0, float(np.linalg.norm(m)))


def spectrum(m, herm):
    """The eigenvalues (``herm``) or squared singular values of the blocks
    of the nonzero pattern of ``m``.
    The pattern's connected components (symmetric when ``herm``, else of the
    bipartite row/column graph) make ``m`` block-diagonal; a block gives the
    ``eigvalsh`` of itself (its lower triangle) or of its Gram matrix on its
    smaller side, a 1x1 block its real part or squared modulus.  The values
    left out (zero rows and columns, the missing side of a non-square block)
    are zeros.  Non-finite entries raise DomainError."""
    values = [np.zeros(0)]
    for b in _pattern_blocks(_finite(m), herm):
        if b.shape[1:] == (1, 1):
            values.append((b.real if herm else np.abs(b) ** 2).ravel())
        elif herm:
            values.append(np.linalg.eigvalsh(b).ravel())
        else:
            b, e = _scaled(b)
            values.append(np.ldexp(_gram_eigvalsh(b), 2 * e[:, None]).ravel())
    return np.concatenate(values)


def _finite(m):
    """``m``, once it is known to have only finite entries."""
    if not np.isfinite(m).all():
        raise DomainError("spectrum of a matrix with non-finite entries")
    return m


def _pattern_blocks(m, herm):
    """The blocks of the nonzero pattern of ``m`` (see ``spectrum``), as
    C-contiguous stacks of same-shape blocks.  A lone block is taken with
    one ``np.ix_`` gather, or is ``m`` itself (a copy only when ``m`` is
    not C-contiguous) when it spans every row and column."""
    nz = m != 0
    if herm:
        nz = nz | nz.T
    row_nz, col_nz = np.count_nonzero(nz, axis=1), np.count_nonzero(nz, axis=0)
    rows, cols = np.flatnonzero(row_nz), np.flatnonzero(col_nz)
    if row_nz.max(initial=0) == cols.size or col_nz.max(initial=0) == rows.size:
        # a row that meets every column (or a column every row) joins them all
        row_lab, col_lab = np.zeros(rows.size, int), np.zeros(cols.size, int)
    else:
        row_lab, col_lab = _pattern_components(nz, rows, cols, herm)
    nr, nc = np.bincount(row_lab), np.bincount(col_lab)
    if nr.size == 1:
        whole = (rows.size, cols.size) == m.shape
        yield (np.ascontiguousarray(m) if whole else m[np.ix_(rows, cols)])[None]
        return
    row_order = rows[np.argsort(row_lab, kind="stable")]
    col_order = cols[np.argsort(col_lab, kind="stable")]
    row_start, col_start = np.cumsum(nr) - nr, np.cumsum(nc) - nc
    for p, q in set(zip(nr.tolist(), nc.tolist())):
        comps = np.flatnonzero((nr == p) & (nc == q))
        ri = row_order[row_start[comps, None] + np.arange(p)]
        ci = col_order[col_start[comps, None] + np.arange(q)]
        yield m[ri[:, :, None], ci[:, None, :]]


def _pattern_components(nz, rows, cols, herm):
    """Component labels of the listed rows and columns of a boolean pattern:
    of the symmetric graph when ``herm``, else of the bipartite graph (rows
    first, then columns).  Min-label hooking with pointer jumping over the
    edges: each round hooks every root to the least root across its edges
    and then points every node at its root, so a root is always the least
    node of its tree.  Labels count components in the order of their least
    nodes, the order of ``scipy.sparse.csgraph.connected_components``."""
    n_rows, n_cols = rows.size, cols.size
    i, j = np.nonzero(nz if (n_rows, n_cols) == nz.shape else nz[np.ix_(rows, cols)])
    if not herm:
        j = j + n_rows
    root = np.arange(n_rows if herm else n_rows + n_cols)
    while True:
        ri, rj = root[i], root[j]
        split = ri != rj
        if not split.any():
            break
        ri, rj = ri[split], rj[split]
        low = np.minimum(ri, rj)
        np.minimum.at(root, ri, low)
        np.minimum.at(root, rj, low)
        while True:  # root[x] <= x, so jumping ends at the roots
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    labels = np.unique(root, return_inverse=True)[1]
    return (labels, labels) if herm else (labels[:n_rows], labels[n_rows:])


def _scaled(b):
    """``(b', e)``: the C-contiguous stack ``b`` (as ``_pattern_blocks``
    yields it; a complex one is read as pairs of reals) with block ``i``
    times ``2**-e[i]``, exactly.  ``e[i]`` is 0 when the block's largest
    modulus lies in ``[1/SQUARE_SAFE, SQUARE_SAFE]``, so such a block keeps
    its bits; otherwise it brings that modulus to about 1."""
    parts = b.view(b.real.dtype) if np.iscomplexobj(b) else b
    # the largest |real part| or |imaginary part|: within sqrt(2) of the largest modulus
    top = np.maximum(parts.max(axis=(1, 2)), -parts.min(axis=(1, 2)))
    e = np.where((top < 1 / SQUARE_SAFE) | (top > SQUARE_SAFE), np.frexp(top)[1], 0)
    if not e.any():
        return b, e
    parts = np.ldexp(parts, -e[:, None, None])
    return (parts.view(b.dtype) if np.iscomplexobj(b) else parts), e


def _gram_eigvalsh(b):
    """The ascending eigenvalues, one row per block, of the Gram matrices on
    the smaller side of the blocks of the stack ``b``."""
    adj = np.swapaxes(b.conj(), -1, -2)
    gram = adj @ b if b.shape[2] <= b.shape[1] else b @ adj
    return np.linalg.eigvalsh(gram)


def opnorm(op):
    """Operator (spectral) norm of a FiniteOperator or a matrix: the top
    singular value, the largest over the blocks of ``spectrum``'s split on
    the bipartite pattern.  A 1x1 block gives its modulus; a block with a
    side below ``LANCZOS_MIN`` the batched Gram ``eigvalsh``; a larger block
    ``_lanczos_norm``'s certified Lanczos value.  Blocks are scaled by exact
    powers of two before a Gram product (``_scaled``)."""
    if isinstance(op, FiniteOperator) and not op.unitized:
        m = op.entries  # checked finite when the operator was made
    else:
        m = _finite(op.concrete() if isinstance(op, FiniteOperator) else np.asarray(op))
    top = 0.0
    for b in _pattern_blocks(m, False):
        p, q = b.shape[1:]
        if p == q == 1:
            top = max(top, float(np.abs(b).max()))
            continue
        b, e = _scaled(b)
        if min(p, q) < LANCZOS_MIN:
            gram = _gram_eigvalsh(b)[:, -1]
        else:
            gram = np.array([_lanczos_norm(block) for block in b])
        top = max(top, float(np.ldexp(np.sqrt(np.maximum(gram, 0.0)), e).max()))
    return top


def _lanczos_norm(b):
    """The top eigenvalue of the Gram matrix on the smaller side of one block
    (its squared norm).  The Gram matrix is formed once; the Lanczos value
    is returned when ``_certified`` proves it, else the ``eigvalsh`` of that
    matrix.  All of it runs on numpy's BLAS and LAPACK, the library's one
    OpenBLAS thread pool: a second pool (scipy bundles its own) alternating
    with it makes these mid-size products several times slower on two
    cores."""
    p, q = b.shape
    g = _gram(b if q <= p else b.T)
    theta = _lanczos_top(g)
    if theta is None or not _certified(g, theta, max(p, q)):
        theta = np.linalg.eigvalsh(g)[-1]  # the fallback
    return theta


def _gram(b):
    """``B* B`` for the ``(p, q)`` block ``b``, exactly Hermitian: numpy's
    ``R^T R`` on the real ``(p, 2q)`` view ``R`` of ``B`` (one symmetric
    rank-k update, half the work of a general product), whose 2x2 blocks
    sum to the real and imaginary parts.  An entry is two real inner
    products of length ``p``, added once more."""
    b = np.ascontiguousarray(b, complex)
    q = b.shape[1]
    r = b.view(float)
    s = (r.T @ r).reshape(q, 2, q, 2)
    g = np.empty((q, q), complex)
    np.add(s[:, 0, :, 0], s[:, 1, :, 1], out=g.real)
    np.subtract(s[:, 0, :, 1], s[:, 1, :, 0], out=g.imag)
    return g


def _lanczos_top(g):
    """Lanczos on the Hermitian ``g`` from a fixed unit start vector, each
    new vector orthogonalised against all earlier ones twice (CGS2): the top
    Ritz value ``theta`` once its residual ``rho = beta_k |s_k|`` or the
    Kato-Temple estimate of its error, ``rho**2 / (theta - theta_2)`` with
    ``theta_2`` the next Ritz value, is at most ``8 n eps theta`` (tested
    every fourth step by ``_ritz_top``), or None when ``LANCZOS_STEPS``
    steps do not get there (Golub & Van Loan, Matrix Computations, 4th ed.,
    10.1 and 10.4; Parlett, The Symmetric Eigenvalue Problem, 1998, for the
    Kato-Temple bound).  ``theta_2`` is at most the
    second eigenvalue, so the estimate can fall short of the error: only
    ``_certified`` makes the value sound."""
    n = g.shape[0]
    basis = np.empty((LANCZOS_STEPS + 1, n), complex)
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.empty(LANCZOS_STEPS), np.empty(LANCZOS_STEPS)
    for j in range(LANCZOS_STEPS):
        w = g @ basis[j]
        done = basis[:j + 1]
        h = (done @ w.conj()).conj()
        w -= h @ done
        h2 = (done @ w.conj()).conj()
        w -= h2 @ done
        alpha[j] = (h[j] + h2[j]).real
        beta[j] = np.sqrt(np.vdot(w, w).real)
        if j % 4 == 3 or beta[j] == 0:
            theta, s = _ritz_top(alpha[:j + 1], beta[:j])
            rho, goal = beta[j] * s, 8 * n * _EPS * theta[-1]
            if rho <= goal or rho * rho <= goal * (theta[-1] - theta[0]):
                return theta[-1]
        np.divide(w, beta[j], out=basis[j + 1])
    return None


def _ritz_top(alpha, beta):
    """``(theta, s)``: the top two Ritz values, ascending (the top one alone
    for a 1x1 matrix), of the symmetric tridiagonal matrix with diagonal
    ``alpha`` and off-diagonal ``beta``, and the modulus of the last
    component of the top one's unit eigenvector.  One ``eigh`` of the dense
    matrix, which reads its lower triangle."""
    w, v = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
    return w[-2:], abs(v[-1, -1])


def _certified(g, theta, inner):
    """Whether a Cholesky factorisation proves that the exact Gram matrix,
    computed by ``_gram`` as ``g`` from real inner products of length
    ``inner``, has no eigenvalue above ``c = theta (1 + 1e-10)``.
    It factors ``(c - alpha) I - g``; the margin ``alpha`` is the Gram
    rounding bound ``gamma_{2 inner+2} ||B||_F^2`` (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1: the real and the
    imaginary part of an entry each err by at most ``gamma_{inner+1}``
    times the sum of ``|b_ik| |b_il|``, so the entry by ``sqrt(2)`` times
    that, and ``sqrt(2) gamma_{inner+1} <= gamma_{2 inner+2}``; the
    computed diagonal, whose sum is ``trace``, is at least
    ``1 - gamma_{inner+1}`` times the exact one) plus Rump's isspd margin
    for a factorisation of ``(c - gram bound) I - g`` (Rump, Verification
    methods, Acta Numerica 19, 2010, after Higham 10.1), with ``gamma_{n+4}`` for his
    ``gamma_{n+1}`` (complex arithmetic and the rounded diagonal) and
    ``eps c`` for rounding the shift and the margin themselves."""
    n = g.shape[0]
    c = theta * (1 + 1e-10)
    trace = g.trace().real
    gram_err = _gamma(2 * inner + 2) * trace / (1 - _gamma(2 * inner + 2))
    shifted_trace = n * (c - gram_err) - trace
    if not shifted_trace > 0:
        return False
    k = _gamma(n + 4)
    chol_err = (k / (1 - 2 * k) * shifted_trace
                + 4 * (n + 1) * (2 * (n + 2) + c) * _TINY + _EPS * c)
    shifted = np.negative(g)
    shifted[np.diag_indices(n)] += c - gram_err - chol_err
    try:
        np.linalg.cholesky(shifted)  # reads the lower triangle
    except np.linalg.LinAlgError:
        return False
    return True


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * _EPS / 2 / (1 - k * _EPS / 2)


def herm_defect(op, gap=None):
    """Distance to the self-adjoint operators, ||T - T*||; ``gap`` is
    ``hermitian_gap``'s norm when the caller has it."""
    m = op.concrete() if isinstance(op, FiniteOperator) else np.asarray(op)
    gap = hermitian_gap(m)[0] if gap is None else gap
    # Frobenius upper bound suffices for all-but-borderline checks
    return gap if gap <= 1e-13 else opnorm(m - m.conj().T)


def block_abs_max(op):
    """(N, N) matrix of per-(point, point) max entry modulus of the concrete op:
    the max over copy pairs, then over each point's coordinate range."""
    k, n = op.amplification, op.space.total_dim
    a = np.abs(op.concrete()).reshape(k, n, k, n).max(axis=(0, 2))
    return point_block_max(a, op.space, op.space)


def point_block_max(a, rows, cols):
    """Max of a nonnegative matrix over each (row point, column point) block;
    ``a`` itself along an axis whose points have one coordinate each."""
    for axis, space in enumerate((rows, cols)):
        if space.total_dim > len(space):
            a = np.maximum.reduceat(a, space.offsets[:-1], axis=axis)
    return a


def support(op):
    """Boolean (N, N) support matrix: entry (y, x) iff block (y, x) has an
    entry of modulus above ``DEFAULT_TAU``."""
    return block_abs_max(op) > DEFAULT_TAU


def propagation(op):
    """Largest distance over the support; 0 for empty support, inf across
    components."""
    mask = support(op)
    if not mask.any():
        return 0.0
    return float(op.space.dist[mask].max())


def lift(space, amplification, values):
    """Copy-major lift of point data: a per-point vector to a per-coordinate
    vector, a point-pair matrix to a coordinate-pair matrix."""
    idx = np.tile(space.point_of_coord, amplification)
    values = np.asarray(values)
    for axis in range(values.ndim):
        values = values.take(idx, axis=axis)
    return values


def restrict(op, rows, cols):
    """Zero every block outside rows x cols (compression by indicator
    functions); the full-mask restriction is the operator itself."""
    rows = np.asarray(rows, dtype=bool)
    cols = np.asarray(cols, dtype=bool)
    if rows.all() and cols.all():
        return op
    cut = op.concrete() * lift(op.space, op.amplification, np.outer(rows, cols))
    return FiniteOperator._owning(op.space, cut, op.amplification)


def direct_sum(ops):
    """Block-diagonal direct sum over a common space; amplifications add."""
    if not ops:
        raise ShapeError("empty direct sum")
    space = ops[0].space
    for o in ops:
        if o.space.total_dim != space.total_dim:
            raise ShapeError("direct sum over mismatched spaces")
    k = sum(o.amplification for o in ops)
    scalar = None
    if any(o.scalar is not None for o in ops):
        scalar = np.concatenate([np.zeros(o.amplification, dtype=complex)
                                 if o.scalar is None else o.scalar for o in ops])
    return FiniteOperator._owning(space, block_diag(*(o.entries for o in ops)), k, scalar)


def block_diag(*blocks):
    """The block-diagonal matrix of the 2-D ``blocks``, in their common
    dtype: ``scipy.linalg.block_diag``'s value for 2-D blocks."""
    out = np.zeros(np.sum([b.shape for b in blocks], axis=0),
                   np.result_type(*(b.dtype for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def amplify_map(matrix, amplification):
    """A module map acting on each of ``amplification`` copies: the
    copy-major block diagonal ``I (x) matrix``."""
    return np.kron(np.eye(amplification), matrix)


def doubled_rotation(angles):
    """The rotation ``[[C, S], [-S, C]]`` between the two halves of a
    doubled module, ``C = diag(cos angles)`` and ``S = diag(sin angles)``
    with one angle per coordinate of a half."""
    c, s = np.diag(np.cos(angles)), np.diag(np.sin(angles))
    return np.block([[c, s], [-s, c]])


def amplify_scalar_matrix(space, amplification, matrix):
    """Lift a (k, k) scalar matrix to an operator mixing the module copies."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (amplification, amplification):
        raise ShapeError("scalar matrix shape must match the amplification")
    lifted = np.kron(matrix, np.eye(space.total_dim))
    return FiniteOperator(space, lifted, amplification)
