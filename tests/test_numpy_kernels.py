"""The library's numpy kernels against the scipy routines they reproduce.

The library imports no scipy; the tests keep it as the reference.  The
nonzero pattern's components, the portal graph's Dijkstra metric, the cover
assignment and ``block_diag`` must give scipy's results bit for bit.  The
Ritz values of the Lanczos convergence test and the near-unitary
exponential come from ``eigh`` instead of ``dstebz`` and Pade, so they agree
with scipy up to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag as scipy_block_diag
from scipy.linalg import eigh_tridiagonal, expm
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from coarsek import coarse, geometry, operator
from coarsek.generators import banded_near_unitary, random_banded
from coarsek.geometry import circle_space

seeds = st.integers(0, 2**32 - 1)


def scipy_graph_metric(weights):
    """The graph metric of the finite positive ``weights`` by scipy's Dijkstra."""
    n = weights.shape[0]
    ii, jj = np.nonzero(np.isfinite(weights) & (weights > 0))
    graph = coo_matrix((weights[ii, jj], (ii, jj)), shape=(n, n))
    d = shortest_path(graph.tocsr(), method="D", directed=False)
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


@given(n_rows=st.integers(1, 14), n_cols=st.integers(1, 14), seed=seeds,
       density=st.sampled_from([0.0, 0.04, 0.1, 0.25, 0.6]),
       herm=st.booleans(), listed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_components_are_connected_components(n_rows, n_cols, seed, density, herm, listed):
    rng = np.random.default_rng(seed)
    nz = rng.random((n_rows, n_rows if herm else n_cols)) < density
    if herm:
        nz = nz | nz.T
    if listed:  # as _pattern_blocks lists them: the rows and columns with an entry
        rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    else:  # every row and column, empty ones included
        rows, cols = np.arange(nz.shape[0]), np.arange(nz.shape[1])
    got = operator._pattern_components(nz, rows, cols, herm)
    sub = nz[np.ix_(rows, cols)].astype(float)
    if herm:
        graph = sub
    else:  # the bipartite graph: rows first, then columns
        graph = np.zeros((rows.size + cols.size,) * 2)
        graph[:rows.size, rows.size:] = sub
    labels = connected_components(csr_matrix(graph), directed=False)[1]
    want = (labels, labels) if herm else (labels[:rows.size], labels[rows.size:])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@given(n=st.integers(1, 30), seed=seeds, absent=st.sampled_from([0.0, 0.5, 0.8, 0.95]),
       zeros=st.sampled_from([0.0, 0.1]), symmetric=st.booleans())
@settings(max_examples=200, deadline=None)
def test_graph_metric_is_scipys_dijkstra(n, seed, absent, zeros, symmetric):
    rng = np.random.default_rng(seed)
    w = rng.random((n, n)) * 3
    w[rng.random((n, n)) < absent] = np.inf
    w[rng.random((n, n)) < zeros] = 0.0
    if symmetric:
        w = np.minimum(w, w.T)
    assert np.array_equal(geometry._graph_metric(w), scipy_graph_metric(w))


def test_graph_metric_of_a_disconnected_graph():
    rng = np.random.default_rng(3)
    w = np.full((9, 9), np.inf)
    w[:5, :5] = np.pi / 2 * rng.random((5, 5))
    w[5:, 5:] = rng.random((4, 4))
    w[5, 5:] = w[5:, 5] = 0.0  # a zero weight is no edge: 5 is isolated
    d = geometry._graph_metric(w)
    assert np.isinf(d[:5, 5:]).all() and np.isinf(d[5, 6:]).all() and d[5, 5] == 0
    assert np.array_equal(d, scipy_graph_metric(w))


def assert_assignment_is_scipys(cost):
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            coarse._assignment(cost)
        return
    assert np.array_equal(rows, np.arange(cost.shape[0]))
    assert np.array_equal(coarse._assignment(cost), cols)


@given(n_rows=st.integers(1, 10), extra=st.integers(0, 8), seed=seeds,
       levels=st.sampled_from([1, 2, 4, 1000]), absent=st.sampled_from([0.0, 0.3, 0.7]),
       slot_ties=st.booleans())
@settings(max_examples=300, deadline=None)
def test_assignment_is_linear_sum_assignment(n_rows, extra, seed, levels, absent, slot_ties):
    rng = np.random.default_rng(seed)
    n_cols = n_rows + extra
    cost = rng.integers(0, levels, (n_rows, n_cols)).astype(float)  # few levels: ties
    if slot_ties:  # delta_cover's tie breaker, 1e-9 per fiber slot
        cost += 1e-9 * rng.integers(0, 3, n_cols)
    cost[rng.random(cost.shape) < absent] = np.inf
    assert_assignment_is_scipys(cost)


@pytest.mark.parametrize("cost", [np.zeros((4, 4)), np.ones((3, 7)),
                                  np.array([[0.0, 0.0, np.inf], [0.0, 0.0, 1.0]])],
                         ids=["square", "wide", "with-inf"])
def test_assignment_on_tied_costs(cost):
    assert_assignment_is_scipys(cost)


@pytest.mark.parametrize("cost", [
    np.array([[1.0, np.inf], [np.inf, np.inf]]),               # a row with no column
    np.array([[1.0, np.inf, np.inf], [2.0, np.inf, np.inf]]),  # two rows, one column
    np.full((2, 3), np.inf),
], ids=["empty-row", "shared-column", "all-inf"])
def test_assignment_raises_scipys_infeasible_error(cost):
    with pytest.raises(ValueError, match="^cost matrix is infeasible$"):
        linear_sum_assignment(cost)
    assert_assignment_is_scipys(cost)


@pytest.mark.parametrize("dtypes", [(float,), (float, complex), (int, float),
                                    (bool, int), (complex, complex, float)])
def test_block_diag_is_scipys(dtypes):
    rng = np.random.default_rng(len(dtypes))
    shapes = [(2, 3), (0, 2), (3, 1)] if len(dtypes) > 1 else [(3, 3)]
    blocks = []
    for dtype, shape in zip(dtypes, shapes):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b[:, :1] = -0.0  # a signed zero keeps its bits
        blocks.append(b if dtype is complex else b.real.astype(dtype))
    got, want = operator.block_diag(*blocks), scipy_block_diag(*blocks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["gaussian", "lanczos"])
def test_ritz_values_agree_with_eigh_tridiagonal(family):
    rng = np.random.default_rng(7)
    if family == "lanczos":  # Lanczos coefficients of a Gram matrix
        b = rng.standard_normal((80, 70)) + 1j * rng.standard_normal((80, 70))
        alpha, beta = lanczos_coefficients(b.conj().T @ b, 64)
    else:
        alpha, beta = rng.standard_normal(64), rng.random(63)
    for k in range(1, 65):
        theta, s = operator._ritz_top(alpha[:k], beta[:k - 1])
        want, vectors = eigh_tridiagonal(alpha[:k], beta[:k - 1], select="i",
                                         select_range=(max(k - 2, 0), k - 1))
        scale = np.abs(want).max()
        assert theta.shape == want.shape
        assert np.abs(theta - want).max() <= 1e-13 * scale
        assert abs(s - abs(vectors[-1, -1])) <= 1e-12


def lanczos_coefficients(g, steps):
    """``(alpha, beta)`` of ``steps`` Lanczos steps on the Hermitian ``g``,
    reorthogonalised in full."""
    n = g.shape[0]
    basis = np.zeros((steps + 1, n), complex)
    basis[0] = np.ones(n) / np.sqrt(n)
    alpha, beta = np.empty(steps), np.empty(steps)
    for j in range(steps):
        w = g @ basis[j]
        for _ in range(2):
            w -= (basis[:j + 1].conj() @ w) @ basis[:j + 1]
        alpha[j] = np.vdot(basis[j], g @ basis[j]).real
        beta[j] = np.linalg.norm(w)
        basis[j + 1] = w / beta[j]
    return alpha, beta[:-1]


@pytest.mark.parametrize("amplification", [1, 2])
def test_banded_near_unitary_is_the_unitary_expm(amplification):
    _, space, _ = circle_space(3, mesh=0.05)
    r = 3 * float(space.dist[space.dist > 0].min())
    for seed in range(3):
        v = banded_near_unitary(space, r, np.random.default_rng(seed), amplification)
        # the generator banded_near_unitary exponentiates: the same draw
        a = random_banded(space, r, np.random.default_rng(seed), amplification,
                          norm=0.25).entries
        n = v.shape[0]
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-13
        assert np.abs(v @ v.conj().T - np.eye(n)).max() <= 1e-13
        assert np.abs(v - expm((a - a.conj().T) / 2)).max() <= 1e-13
