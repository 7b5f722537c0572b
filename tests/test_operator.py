import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.errors import DomainError, ShapeError
from coarsek.generators import (
    random_banded,
    random_region_supported,
    rng_from,
    shift_unitary,
)
from coarsek.geometry import SampledSpace, build_complex, circle_space, discretize
from coarsek.operator import (
    FiniteOperator,
    block_abs_max,
    coordinates_of,
    direct_sum,
    lift,
    opnorm,
    propagation,
    restrict,
    support,
)


@pytest.fixture(scope="module")
def line3():
    # 3 collinear points at unit spacing
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return SampledSpace.from_distance_matrix(d)


@pytest.fixture(scope="module")
def twocomp():
    d = np.array([[0.0, np.inf], [np.inf, 0.0]])
    return SampledSpace.from_distance_matrix(d)


def place_block(space, k, y, x, value=1.0):
    op = FiniteOperator.zeros(space, k)
    m = op.entries.copy()
    m[space.offsets[y], space.offsets[x]] = value
    return FiniteOperator(space, m, k)


def point_major_block_abs_max(op):
    """Oracle: permute coordinates point-major, then max over each point's
    rows and columns."""
    space, k = op.space, op.amplification
    order = np.argsort(np.tile(space.point_of_coord, k), kind="stable")
    starts = np.concatenate([[0], np.cumsum(space.internal_dims * k)])[:-1]
    a = np.abs(op.concrete())[np.ix_(order, order)]
    return np.maximum.reduceat(np.maximum.reduceat(a, starts, axis=0), starts, axis=1)


@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
       k=st.integers(1, 3), unitized=st.booleans(), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_block_abs_max_matches_point_major_oracle(dims, k, unitized, seed):
    rng = np.random.default_rng(seed)
    n = len(dims)
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    space = SampledSpace.from_distance_matrix(d, internal_dims=dims)
    size = k * space.total_dim
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    m[rng.random((size, size)) < 0.6] = 0.0
    scalar = rng.standard_normal(k) + 1j * rng.standard_normal(k) if unitized else None
    op = FiniteOperator(space, m, k, scalar)
    assert np.array_equal(block_abs_max(op), point_major_block_abs_max(op))


class TestSupport:
    def test_zero_operator(self, line3):
        assert not support(FiniteOperator.zeros(line3)).any()
        assert propagation(FiniteOperator.zeros(line3)) == 0.0

    def test_unitized_identity_is_diagonal(self, line3):
        one = FiniteOperator.identity(line3, unitized=True)
        assert (support(one) == np.eye(3, dtype=bool)).all()

    def test_single_entry(self, line3):
        t = place_block(line3, 1, 2, 1)
        assert np.argwhere(support(t)).tolist() == [[2, 1]]

    def test_adjoint_support_is_exact_transpose(self, line3, rng):
        t = random_banded(line3, 1.5, rng)
        assert (support(t.adjoint()) == support(t).T).all()


class TestPropagation:
    def test_diagonal_is_zero(self, line3):
        d = FiniteOperator(line3, np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert propagation(d) == 0.0

    def test_two_adjacent_blocks(self, line3):
        t = place_block(line3, 1, 0, 1) + place_block(line3, 1, 1, 2)
        assert propagation(t) == 1.0

    def test_cross_component_is_infinite(self, twocomp):
        t = place_block(twocomp, 1, 0, 1)
        assert propagation(t) == np.inf

    def test_scaling_invariance(self, line3, rng):
        t = random_banded(line3, 1.5, rng)
        assert propagation(3.7 * t) == propagation(t)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_filtration_law(self, seed):
        d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
        space = SampledSpace.from_distance_matrix(d)
        rng = rng_from(seed)
        r1, r2 = rng.uniform(0.5, 2.5, size=2)
        t = random_banded(space, r1, rng)
        s = random_banded(space, r2, rng)
        # random_banded leaves exact zeros outside its band, so the product's
        # support at DEFAULT_TAU lies inside the sum of the two bands
        assert propagation(t @ s) <= propagation(t) + propagation(s) + 1e-9


class TestNonFinite:
    # a NaN block would be invisible to support and propagation (NaN > tau is false)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_entries_rejected(self, line3, bad):
        m = np.eye(3, dtype=complex)
        m[0, 2] = bad
        with pytest.raises(DomainError, match="non-finite entries"):
            FiniteOperator(line3, m)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, [1.0, np.nan]])
    def test_scalar_rejected(self, line3, bad):
        with pytest.raises(DomainError, match="non-finite scalar"):
            FiniteOperator(line3, np.zeros((6, 6)), 2, scalar=bad)


def test_entries_copied_not_frozen(line3):
    m = np.eye(3, dtype=complex)
    op = FiniteOperator(line3, m)
    m[0, 0] = 2  # the caller's array stays writable
    assert op.entries[0, 0] == 1 and not op.entries.flags.writeable


class TestOwnership:
    """Results the library builds own their entries: read-only, C-ordered,
    sharing no memory with what they were made from."""

    def test_public_constructor_copies_its_input(self, line3):
        m = np.eye(6, dtype=complex)
        m.flags.writeable = False
        scalar = np.array([1.0, 2.0], dtype=complex)
        op = FiniteOperator(line3, m, 2, scalar)
        assert not np.shares_memory(op.entries, m)
        assert not np.shares_memory(op.scalar, scalar) and scalar.flags.writeable
        again = FiniteOperator(line3, op.entries, 2, op.scalar)
        assert not np.shares_memory(again.entries, op.entries)
        assert not np.shares_memory(again.scalar, op.scalar)

    def test_results_share_nothing_with_their_operands(self, line3, rng):
        a = random_banded(line3, 1.5, rng)
        b = FiniteOperator(line3, random_banded(line3, 2.5, rng).entries, 1, [0.5 - 2j])
        half = np.array([True, True, False])
        results = {"+": (a + b, [a, b]), "-": (a - b, [a, b]),
                   "*": (2.0 * b, [b]), "@": (a @ a, [a]),
                   "restrict": (restrict(a, half, ~half), [a]),
                   "direct_sum": (direct_sum([a, b]), [a, b])}
        for name, (out, used) in results.items():
            e = out.entries
            assert not e.flags.writeable and e.flags.c_contiguous, name
            assert not any(np.shares_memory(e, o.entries) for o in used), name

    def test_generated_entries_are_read_only_and_fresh(self, line3, rng):
        made = [random_banded(line3, 1.5, rng, norm=1.0),
                random_banded(line3, np.inf, rng, selfadjoint=True),
                random_region_supported(line3, [True, True, False], rng),
                random_region_supported(line3, [True, True, True], rng, band_r=1.5)]
        for op in made:
            assert not op.entries.flags.writeable and op.entries.flags.c_contiguous
        for i, op in enumerate(made):
            assert not any(np.shares_memory(op.entries, o.entries) for o in made[i + 1:])

    @pytest.mark.parametrize("amplification", [1, 2])
    def test_subtraction_is_negate_and_add(self, rng, amplification):
        space = circle_space(3, mesh=0.1)[1]
        a, b = (random_banded(space, r, rng, amplification) for r in (0.3, 0.5))
        one = FiniteOperator.identity(space, amplification)
        for x, y in [(a, b), (one, a), (b, 3.0 * one), (one, (1 - 1j) * one),
                     (FiniteOperator(space, a.entries, amplification, -0.0), b)]:
            got, want = x - y, x + (-1.0) * y
            assert (got.scalar is None) == (want.scalar is None)
            for g, w in [(got.entries, want.entries), (got.scalar, want.scalar)]:
                if w is None:
                    continue
                g, w = g.view(float), w.view(float)
                assert np.array_equal(g, w)
                # the same bits, except that a zero may carry the other sign
                assert np.array_equal(g.view(np.int64)[g != 0], w.view(np.int64)[w != 0])

    def test_unitized_overflow_is_caught_by_opnorm(self, line3):
        big = np.finfo(float).max
        op = FiniteOperator(line3, big * np.eye(3), 1, [big])
        assert np.isfinite(op.entries).all() and np.isfinite(op.scalar).all()
        with pytest.raises(DomainError, match="non-finite"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            opnorm(op)


class TestAlgebra:
    def test_opnorm_identity(self, line3):
        assert opnorm(FiniteOperator.identity(line3, unitized=False)) == \
            pytest.approx(1.0)

    def test_opnorm_submultiplicative_and_unitary_invariant(self, line3, rng):
        t = random_banded(line3, 3.0, rng)
        s = random_banded(line3, 3.0, rng)
        assert opnorm(t @ s) <= opnorm(t) * opnorm(s) + 1e-9
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        u = FiniteOperator(line3, q)
        assert opnorm(u @ t) == pytest.approx(opnorm(t), abs=1e-9)
        assert opnorm(t @ u) == pytest.approx(opnorm(t), abs=1e-9)

    def test_scalar_bookkeeping(self, line3):
        one = FiniteOperator.identity(line3, unitized=True)
        t = 2.0 * one
        assert np.allclose(t.scalar, 2.0)
        prod = t @ t
        assert np.allclose(prod.scalar, 4.0)
        assert np.allclose(prod.concrete(), 4 * np.eye(3))

    def test_unitized_product_matches_concrete(self, line3, rng):
        e1 = random_banded(line3, 2.0, rng)
        e2 = random_banded(line3, 2.0, rng)
        u1 = FiniteOperator(line3, e1.entries, 1, np.ones(1))
        u2 = FiniteOperator(line3, e2.entries, 1, np.ones(1))
        lhs = (u1 @ u2).concrete()
        rhs = u1.concrete() @ u2.concrete()
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self, line3, twocomp):
        with pytest.raises(ShapeError):
            FiniteOperator.zeros(line3) @ FiniteOperator.zeros(twocomp)

    def test_adjoint_involution(self, line3, rng):
        t = random_banded(line3, 2.0, rng)
        assert np.allclose(t.adjoint().adjoint().entries, t.entries)


class TestRestrict:
    def test_full_mask_is_identity(self, line3, rng):
        t = random_banded(line3, 2.0, rng)
        assert restrict(t, np.ones(3, bool), np.ones(3, bool)) is t

    def test_identity_off_corner_vanishes(self, line3):
        one = FiniteOperator.identity(line3, unitized=False)
        a = np.array([True, True, False])
        out = restrict(one, a, ~a)
        assert np.allclose(out.concrete(), 0.0)

    def test_compression_contracts(self, line3, rng):
        t = random_banded(line3, 3.0, rng)
        a = np.array([True, False, True])
        b = np.array([False, True, True])
        assert opnorm(restrict(t, a, b)) <= opnorm(t) + 1e-12


@pytest.fixture(scope="module")
def fat_space():
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    return SampledSpace.from_distance_matrix(d, internal_dims=[2, 3, 1, 2])


class TestLayout:
    def test_direct_sum_concrete(self, line3, rng):
        a = random_banded(line3, 2.0, rng)
        b = FiniteOperator.identity(line3, unitized=True)
        s = direct_sum([a, b])
        assert s.amplification == 2
        assert np.allclose(s.concrete()[:3, :3], a.concrete())
        assert np.allclose(s.concrete()[3:, 3:], np.eye(3))
        assert np.allclose(s.scalar, [0.0, 1.0])

    def test_amplified_identity_norm(self, line3):
        one = FiniteOperator.identity(line3, 3, unitized=True)
        assert opnorm(one) == pytest.approx(1.0)
        assert propagation(one) == 0.0

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("points", [[], [2], [3, 0, 1], [0, 1, 2, 3]])
    def test_copy_major_coordinates(self, fat_space, k, points):
        D = fat_space.total_dim
        want = [a * D + fat_space.offsets[i] + f for a in range(k) for i in points
                for f in range(fat_space.internal_dims[i])]
        got = coordinates_of(fat_space, k, points)
        assert got.dtype.kind == "i"
        assert got.tolist() == want


# -- oracles: the layout spelled out by hand, as it was before ``lift``,
# ``from_concrete`` and ``block_diag`` took it over ------------------------


def oracle_expand_point_mask(space, amplification, point_mask_matrix):
    # without the final bool cast of the original, so it takes any dtype
    row = np.tile(np.repeat(point_mask_matrix, space.internal_dims, axis=0),
                  (amplification, 1))
    return np.tile(np.repeat(row, space.internal_dims, axis=1), (1, amplification))


def oracle_coordinate_mask(space, amplification, point_mask):
    return np.tile(np.repeat(point_mask, space.internal_dims), amplification)


def oracle_shift_unitary(space, order, power, amplification):
    dims = space.internal_dims[order]
    n = space.total_dim
    m = np.zeros((n, n), dtype=complex)
    k = len(order)
    for pos in range(k):
        src = order[pos]
        dst = order[(pos + power) % k]
        so, do = space.offsets[src], space.offsets[dst]
        m[do:do + dims[0], so:so + dims[0]] = np.eye(dims[0])
    if amplification > 1:
        m = np.kron(np.eye(amplification), m)
    return m


def oracle_direct_sum(ops):
    k = sum(o.amplification for o in ops)
    n = ops[0].space.total_dim * k
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    scalars = []
    for o in ops:
        d = o.dim
        out[pos:pos + d, pos:pos + d] = o.entries
        scalars.append(o.scalar if o.scalar is not None
                       else np.zeros(o.amplification, dtype=complex))
        pos += d
    unitized = any(o.scalar is not None for o in ops)
    return out, (np.concatenate(scalars) if unitized else None)


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def draw(rng, kind, shape):
    if kind == "bool":
        return rng.random(shape) < 0.5
    if kind == "float":
        return rng.standard_normal(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def line_space(dims):
    n = len(dims)
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    return SampledSpace.from_distance_matrix(d, internal_dims=dims)


fiber_dims = st.lists(st.integers(1, 3), min_size=1, max_size=5)
amplifications = st.integers(1, 3)
seeds = st.integers(0, 10_000)


@given(dims=fiber_dims, k=amplifications, seed=seeds,
       kind=st.sampled_from(["bool", "float", "complex"]))
@settings(max_examples=80, deadline=None)
def test_lift_matches_repeat_tile_oracle(dims, k, seed, kind):
    space = line_space(dims)
    rng = np.random.default_rng(seed)
    vec = draw(rng, kind, len(dims))
    pairs = draw(rng, kind, (len(dims), len(dims)))
    assert same_bits(lift(space, k, vec), oracle_coordinate_mask(space, k, vec))
    assert same_bits(lift(space, k, pairs), oracle_expand_point_mask(space, k, pairs))


@given(dims=fiber_dims, seed=seeds,
       ks=st.lists(amplifications, min_size=1, max_size=4),
       unitized=st.lists(st.booleans(), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_direct_sum_matches_placement_oracle(dims, seed, ks, unitized):
    space = line_space(dims)
    rng = np.random.default_rng(seed)
    ops = [FiniteOperator(space, draw(rng, "complex", (k * space.total_dim,) * 2), k,
                          draw(rng, "complex", k) if u else None)
           for k, u in zip(ks, unitized)]
    want_entries, want_scalar = oracle_direct_sum(ops)
    got = direct_sum(ops)
    assert got.amplification == sum(ks)
    assert same_bits(got.entries, want_entries)
    assert same_bits(got.scalar, want_scalar)


@given(dims=fiber_dims, k=amplifications, seed=seeds, unitized=st.booleans())
@settings(max_examples=60, deadline=None)
def test_from_concrete_matches_inline_split(dims, k, seed, unitized):
    space = line_space(dims)
    rng = np.random.default_rng(seed)
    matrix = draw(rng, "complex", (k * space.total_dim,) * 2)
    scalar = draw(rng, "complex", k) if unitized else None
    got = FiniteOperator.from_concrete(space, matrix, k, scalar)
    want = matrix if scalar is None else \
        matrix - np.diag(np.repeat(scalar, space.total_dim))
    assert same_bits(got.entries, want)
    assert same_bits(got.scalar, scalar)


@given(d=st.integers(1, 3), n=st.integers(1, 5), k=amplifications, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_shift_unitary_matches_loop_oracle(d, n, k, seed):
    space = line_space([d] * n)
    order = np.random.default_rng(seed).permutation(n)
    for power in range(-3, n + 3):
        got = shift_unitary(space, order, power, k)
        assert same_bits(got.entries, oracle_shift_unitary(space, order, power, k))


@pytest.mark.parametrize("order", [[], [0, 0, 1, 2], [0, 0, 1], [0, 1, 2], [0, 1, 2, 4],
                                   [[0, 1], [2, 3]]],
                         ids=["empty", "repeated", "repeated-short", "partial",
                              "out-of-range", "2-d"])
def test_shift_unitary_needs_every_point_once(order):
    space = line_space([1] * 4)
    with pytest.raises(DomainError, match="every sample point exactly once"):
        shift_unitary(space, order)
