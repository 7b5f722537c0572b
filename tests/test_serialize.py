import functools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek import serialize
from coarsek.coarse import CoarseMap
from coarsek.controlled import (
    HomotopyCertificate,
    QuasiParams,
    interpolation_certificate,
)
from coarsek.errors import CoarsekError, MalformedInputError
from coarsek.generators import random_banded
from coarsek.geometry import SampledSpace, build_complex, discretize
from coarsek.operator import FiniteOperator
from coarsek.paths import PathOperator
from coarsek.serialize import (
    _line,
    _rows,
    _tokens,
    dumps_certificate,
    dumps_coarse_map,
    dumps_merged_report,
    dumps_operator,
    dumps_path,
    dumps_report,
    dumps_space,
    loads_certificate,
    loads_coarse_map,
    loads_complex,
    loads_numbers,
    loads_operator,
    loads_path,
    loads_report,
    loads_space,
    space_hash,
)


@pytest.fixture(scope="module")
def space():
    return discretize(build_complex([(0, 1), (1, 2)]), 0.5, fiber_dim=2)


class TestComplexFile:
    def test_round_trip(self):
        cx = build_complex([(0, 1, 2), (2, 3)])
        again = loads_complex("2 3\n0 1 2\n")
        assert again.simplices == cx.simplices

    def test_comments_and_blanks(self):
        cx = loads_complex("# a triangle\n\n0 1 2\n")
        assert cx.dimension == 2

    def test_garbage_rejected(self):
        with pytest.raises(MalformedInputError):
            loads_complex("0 one 2\n")
        with pytest.raises(MalformedInputError):
            loads_complex("\n")


class TestSpaceFile:
    def test_round_trip_exact(self, space):
        text = dumps_space(space)
        again = loads_space(text)
        assert np.array_equal(space.dist, again.dist)
        assert (space.internal_dims == again.internal_dims).all()
        assert space.points == again.points
        assert dumps_space(again) == text

    def test_infinite_distances_round_trip(self):
        cx = build_complex([(0,), (1,)])
        s = discretize(cx, 1.0)
        text = dumps_space(s)
        assert "inf" in text
        again = loads_space(text)
        assert again.dist[0, 1] == np.inf

    def test_hash_changes_with_content(self, space):
        other = discretize(build_complex([(0, 1), (1, 2)]), 0.5, fiber_dim=1)
        assert space_hash(space) != space_hash(other)

    def test_built_space_keeps_its_hash(self):
        dist, dims = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1, 2])
        space = SampledSpace.from_distance_matrix(dist[:, :], dims)
        digest = space_hash(space)
        dist[0, 1] = dist[1, 0] = 2.0
        dims[0] = 3
        assert space.dist[0, 1] == 1.0 and space.internal_dims[0] == 1
        assert isinstance(space.points, tuple)
        assert space_hash(space) == digest == space_hash(loads_space(dumps_space(space)))

    def test_empty_space_round_trips(self):
        empty = SampledSpace.from_distance_matrix(np.zeros((0, 0)))
        text = dumps_space(empty)
        again = loads_space(text)
        assert again.dist.shape == (0, 0) and len(again) == 0
        assert dumps_space(again) == text


def _canonical_space_text():
    """A space text with ``1`` and ``0.5`` distance tokens and mesh 0.5."""
    d = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
    text = dumps_space(SampledSpace.from_distance_matrix(d, [1, 2, 1], mesh=0.5))
    assert text == ("coarsek-space v1\nmesh: 0.5\npoints: 3\n0 0 1 1\n1 1 1 2\n"
                    "2 2 1 1\ndist:\n0 0.5 1\n0.5 0 0.5\n1 0.5 0\n")
    return text


_ROW = "\n0 0.5 1\n"
# texts the space reader accepts that dumps_space does not write
SPACE_VARIANTS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "no final newline": lambda t: t[:-1],
    "trailing blank lines": lambda t: t + "\n\n",
    "doubled space": lambda t: t.replace(_ROW, "\n0  0.5 1\n"),
    "tab": lambda t: t.replace(_ROW, "\n0\t0.5 1\n"),
    "1.0 for 1": lambda t: t.replace(_ROW, "\n0 0.5 1.0\n"),
    "5e-1 for 0.5": lambda t: t.replace(_ROW, "\n0 5e-1 1\n"),
    "mesh 0.50": lambda t: t.replace("mesh: 0.5\n", "mesh: 0.50\n"),
    "fiber dimension 01": lambda t: t.replace("\n0 0 1 1\n", "\n0 0 1 01\n"),
}


class TestSpaceHash:
    """A space read from the text ``dumps_space`` writes keeps that text's
    digest; any other accepted text hashes as its re-rendered space."""

    @pytest.mark.parametrize("variant", ["canonical", *SPACE_VARIANTS])
    def test_hash_is_the_digest_of_the_rendered_space(self, variant):
        text = _canonical_space_text()
        if variant != "canonical":
            text = SPACE_VARIANTS[variant](text)
            assert text != _canonical_space_text()
        space = loads_space(text)
        assert space_hash(space) == serialize.digest(dumps_space(space))

    def test_canonical_text_is_not_rendered_again(self, monkeypatch):
        text = dumps_space(discretize(build_complex([(0, 1, 2)]), 0.25, fiber_dim=2))
        calls = []
        render = serialize.dumps_space
        monkeypatch.setattr(serialize, "dumps_space",
                            lambda s: calls.append(s) or render(s))
        assert space_hash(loads_space(text)) == serialize.digest(text)
        assert calls == []


class TestOperatorFile:
    def test_round_trip_bit_exact(self, space, rng):
        op = random_banded(space, 1.0, rng, amplification=2)
        text = dumps_operator(op)
        again = loads_operator(text, space)
        assert np.array_equal(op.entries, again.entries)
        assert again.scalar is None
        assert dumps_operator(again) == text

    def test_scalar_round_trip(self, space):
        from coarsek.operator import FiniteOperator
        op = FiniteOperator.identity(space, 3, unitized=True)
        again = loads_operator(dumps_operator(op), space)
        assert np.array_equal(op.scalar, again.scalar)

    @pytest.mark.parametrize("k, scalar", [(1, None), (2, [1.0, -0.5])])
    def test_dim_zero_round_trips(self, k, scalar):
        empty = SampledSpace.from_distance_matrix(np.zeros((0, 0)))
        op = FiniteOperator(empty, np.zeros((0, 0), dtype=complex), k, scalar)
        text = dumps_operator(op)
        again = loads_operator(text, empty)
        assert again.entries.shape == (0, 0) and again.entries.dtype == complex
        assert dumps_operator(again) == text

    def test_wrong_space_rejected(self, space, rng):
        op = random_banded(space, 1.0, rng)
        other = discretize(build_complex([(0, 1)]), 0.5)
        with pytest.raises(MalformedInputError):
            loads_operator(dumps_operator(op), other)


class TestContainers:
    def test_certificate_round_trip(self, space):
        from coarsek.operator import FiniteOperator
        n = space.total_dim
        m = np.zeros((n, n), complex)
        m[0, 0] = 1.0
        p = FiniteOperator(space, m)
        m2 = m.copy()
        m2[0, 0] = 0.99
        q = FiniteOperator(space, m2)
        cert = interpolation_certificate(p, q, QuasiParams(0.2, 0.5))
        text = dumps_certificate(cert)
        again = loads_certificate(text, space)
        assert len(again) == 2
        assert again.step_bounds == cert.step_bounds
        assert dumps_certificate(again) == text

    def test_coarse_map_round_trip(self, space):
        f = CoarseMap(space, space, np.arange(len(space))[::-1])
        again = loads_coarse_map(dumps_coarse_map(f), space, space)
        assert (again.assignment == f.assignment).all()

    def test_path_round_trip(self, space, rng):
        vals = [random_banded(space, 1.0, rng) for _ in range(3)]
        path = PathOperator([1.0, 2.0, 4.0], vals)
        again = loads_path(dumps_path(path), space)
        assert (again.times == path.times).all()
        assert again.modulus == path.modulus


class TestReports:
    def test_round_trip(self):
        fields = {"command": "demo", "worst_margin": 0.125, "passed": True}
        table = [("prop", 0.019, 0.02, 0.001)]
        text = dumps_report(fields, table)
        back_fields, back_table = loads_report(text)
        assert back_fields["command"] == "demo"
        assert float(back_fields["worst_margin"]) == 0.125
        assert back_table[0][0] == "prop"

    def test_no_table(self):
        fields, table = loads_report(dumps_report({"a": 1}))
        assert fields == {"a": "1"} and table == []


# -- strict readers ------------------------------------------------------------


def _small_space():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return SampledSpace.from_distance_matrix(d, internal_dims=[1, 2, 1])


@functools.lru_cache(maxsize=None)
def _valid_files():
    """One valid text per format, with the reader that parses it."""
    space = _small_space()
    rng = np.random.default_rng(7)
    n = space.total_dim
    p = FiniteOperator(space, np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
    q = FiniteOperator(space, np.diag([0.99, 0.0, 1.0, 0.0]).astype(complex))
    unitized = FiniteOperator(space, rng.standard_normal((2 * n, 2 * n)), 2,
                              [1.0, complex(-0.0, 1.0)])
    path = PathOperator([1.0, 2.0], [random_banded(space, 1.5, rng),
                                     random_banded(space, 0.5, rng)])
    shifted = CoarseMap(space, space, [2, 0, 1])
    return {
        "complex": ("2 3\n0 1 2\n", loads_complex),
        "space": (dumps_space(space), loads_space),
        "operator": (dumps_operator(unitized),
                     lambda t: loads_operator(t, space)),
        "certificate": (dumps_certificate(
            interpolation_certificate(p, q, QuasiParams(0.2, 1.5))),
            lambda t: loads_certificate(t, space)),
        "map": (dumps_coarse_map(shifted),
                lambda t: loads_coarse_map(t, space, space)),
        "path": (dumps_path(path), lambda t: loads_path(t, space)),
        "report": (dumps_report({"command": "demo", "passed": True},
                                [("prop", 0.5, 1.0, 0.5)]), loads_report),
    }


STRUCTURED = ["space", "operator", "certificate", "map", "path"]
SWAP_TOKENS = ["", "x", "-1", "nan", "99999999999"]


@st.composite
def _mutations(draw, text):
    """Truncate at a line, delete or duplicate a line, or swap one token."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["truncate", "delete", "duplicate", "swap"]))
    if kind == "truncate":
        return "".join(lines[:i])
    if kind == "delete":
        return "".join(lines[:i] + lines[i + 1:])
    if kind == "duplicate":
        return "".join(lines[:i + 1] + lines[i:])
    tokens = list(re.finditer(r"\S+", lines[i]))
    tok = draw(st.sampled_from(tokens))
    lines[i] = lines[i][:tok.start()] + draw(st.sampled_from(SWAP_TOKENS)) \
        + lines[i][tok.end():]
    return "".join(lines)


@pytest.mark.parametrize("fmt", sorted(_valid_files()))
def test_valid_files_load(fmt):
    text, load = _valid_files()[fmt]
    load(text)


@pytest.mark.parametrize("fmt", sorted(_valid_files()))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_file_loads_or_raises_a_package_error(fmt, data):
    text, load = _valid_files()[fmt]
    try:
        load(data.draw(_mutations(text)))
    except CoarsekError:
        pass  # MalformedInputError is also a ValueError: catch only ours


@pytest.mark.parametrize("fmt", STRUCTURED)
def test_every_truncation_names_a_line(fmt):
    text, load = _valid_files()[fmt]
    lines = text.splitlines(keepends=True)
    for k in range(len(lines)):
        with pytest.raises(MalformedInputError, match=r"^line \d+: "):
            load("".join(lines[:k]))


class TestStrictReaders:
    def test_errors_name_their_line(self):
        space = _small_space()
        lines = dumps_space(space).splitlines()
        lines[5] = lines[5].replace("2", "two")
        with pytest.raises(MalformedInputError, match="^line 6: "):
            loads_space("\n".join(lines))

    @pytest.mark.parametrize("rows, message", [
        # a bad token above a short row, a long row or the end of the file
        ({7: "0.5 x 0.5", 8: "1 0.5"}, "line 8: could not convert string to float: 'x'"),
        ({7: "0.5 x 0.5", 8: "1 0.5 0 0"}, "line 8: could not convert string to float: 'x'"),
        ({7: "0.5 x 0.5", 8: None}, "line 8: could not convert string to float: 'x'"),
        # a short row above a bad token
        ({7: "0.5 0", 8: "1 x 0"}, "line 8: expected 3 numbers, found 2"),
        # the first bad token of the first bad row, and a bad short row
        ({7: "0.5 y x", 8: "1 x 0"}, "line 8: could not convert string to float: 'y'"),
        ({8: "0.5 x 0.5", 9: "1"}, "line 9: could not convert string to float: 'x'"),
        ({7: "0.5 y"}, "line 8: expected 3 numbers, found 2"),
    ])
    def test_distance_errors_name_the_row_by_row_line(self, rows, message):
        lines = _canonical_space_text().splitlines()
        for i, row in rows.items():
            lines[i] = row
        text = "\n".join(line for line in lines if line is not None) + "\n"
        with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
            loads_space(text)

    @pytest.mark.parametrize("line, sample", [
        (5, "2 0,1 0.25 1"),  # one coordinate for two carrier vertices
        (5, "2 0,0 0.25,0.75 1"),  # a repeated carrier vertex
        (5, "2 2 nan 1"),
        (5, "2 2 inf 1"),
        (5, "2 2 -0.5 1"),
        (5, "2 2 0 1"),
        (1, "mesh: nan"),
        (1, "mesh: -1"),
        (1, "mesh: inf"),
        (1, "mesh: 0"),
    ])
    def test_malformed_samples_and_meshes(self, line, sample):
        lines = _canonical_space_text().splitlines()
        lines[line] = sample
        with pytest.raises(MalformedInputError, match=f"^line {line + 1}: "):
            loads_space("\n".join(lines) + "\n")

    def test_huge_count_reaches_end_of_file(self):
        text = dumps_space(_small_space()).replace("points: 3",
                                                   f"points: {10 ** 12}")
        with pytest.raises(MalformedInputError, match="line"):
            loads_space(text)

    def test_negative_count(self):
        text = dumps_coarse_map(CoarseMap.identity(_small_space()))
        with pytest.raises(MalformedInputError, match="negative count"):
            loads_coarse_map(text.replace("points: 3", "points: -1"),
                             _small_space(), _small_space())

    def test_huge_fiber_dimension(self):
        space = _small_space()
        text = dumps_space(space).replace("\n1 1 1 2\n", "\n1 1 1 99999999999\n")
        with pytest.raises(MalformedInputError, match="^line 5: "):
            loads_space(text)

    def test_wrong_key(self):
        text = dumps_space(_small_space()).replace("points:", "pints:")
        with pytest.raises(MalformedInputError, match="expected 'points:'"):
            loads_space(text)

    def test_trailing_line(self):
        space = _small_space()
        op = FiniteOperator.identity(space, 1, unitized=False)
        text = dumps_operator(op)
        assert loads_operator(text + "\n\n", space).dim == op.dim
        with pytest.raises(MalformedInputError, match="unexpected line"):
            loads_operator(text + "0 0\n", space)

    def test_odd_scalar_count(self):
        space = _small_space()
        op = FiniteOperator.identity(space, 1, unitized=True)
        text = dumps_operator(op).replace("scalar: 1 0", "scalar: 1 0 1")
        with pytest.raises(MalformedInputError, match="^line 4: "):
            loads_operator(text, space)

    def test_short_entries_row(self):
        space = _small_space()
        lines = dumps_operator(FiniteOperator.zeros(space)).splitlines()
        lines[7] = lines[7].rsplit(" ", 2)[0]
        with pytest.raises(MalformedInputError,
                           match="^line 8: expected 8 numbers, found 6"):
            loads_operator("\n".join(lines), space)

    @pytest.mark.parametrize("row", ["3 0", "-1 0", "0 0"])
    def test_map_row_ids(self, row):
        space = _small_space()
        text = dumps_coarse_map(CoarseMap.identity(space))
        with pytest.raises(MalformedInputError, match="^line 6: row id"):
            loads_coarse_map(text.replace("\n1 1\n", f"\n{row}\n"),
                             space, space)

    def test_empty_times(self):
        space = _small_space()
        path = PathOperator([1.0], [FiniteOperator.zeros(space)])
        lines = dumps_path(path).splitlines()
        lines[1] = "times:"
        with pytest.raises(MalformedInputError, match="^line 2: "):
            loads_path("\n".join(lines), space)

    def test_displacements_and_horizon_checked_by_key(self):
        path_text, load_path = _valid_files()["path"]
        with pytest.raises(MalformedInputError, match="^line 4: "):
            load_path(path_text.replace("horizon: 2", "horizon: two"))

    @pytest.mark.parametrize("horizon", ["99", "1", "2.0000000000000004"])
    def test_horizon_is_the_last_time(self, horizon):
        path_text, load_path = _valid_files()["path"]
        assert load_path(path_text.replace("horizon: 2", "horizon: 2.0")).horizon == 2
        with pytest.raises(MalformedInputError,
                           match=f"^line 4: horizon {horizon} is not the last time 2$"):
            load_path(path_text.replace("horizon: 2", f"horizon: {horizon}"))

    def test_text_naming_a_file_is_not_read(self, tmp_path):
        named = tmp_path / "complex.txt"
        named.write_text("0 1\n", encoding="utf-8")
        with pytest.raises(MalformedInputError, match="^line 1: "):
            loads_complex(str(named))

    def test_negative_zero_survives(self):
        text, load = _valid_files()["operator"]
        op = load(text)
        assert np.signbit(op.scalar[1].real)
        assert dumps_operator(op) == text

    def test_numbers_file(self):
        assert loads_numbers("0.5 1\n\n0\n").tolist() == [0.5, 1.0, 0.0]
        assert loads_numbers("").size == 0
        with pytest.raises(MalformedInputError, match="^line 2: "):
            loads_numbers("1\nx\n", int)


def test_merged_report_repeats_each_report_body():
    a = ({"command": "a", "x": 0.25}, [("q", 1.5, 2.0, 0.5)])
    b = ({"command": "b", "passed": True}, None)
    merged = dumps_merged_report([("a.txt", *a), ("b.txt", *b)])
    body_a = dumps_report(*a).splitlines()[1:]
    body_b = dumps_report(*b).splitlines()[1:]
    assert merged.splitlines() == ["coarsek-report v1", "sections: 2",
                                   "## a.txt", *body_a, "## b.txt", *body_b]


def oracle_line(values, sep=" "):
    """The writer before ``_line``: one ``str.format`` call per number."""
    def fmt(x):
        return "{:.17g}".format(float(x))
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return sep.join(f"{fmt(z.real)} {fmt(z.imag)}" for z in values.ravel())
    return sep.join(fmt(x) for x in values.ravel())


def cplx(re, im):
    """A complex array from its parts, with no arithmetic on infinities."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e16, -1e16, 1e22, 0.1, 1 / 3, 1.7976931348623157e308]
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) \
    | st.sampled_from(EDGE_VALUES)


class TestLine:
    @given(st.lists(any_float, max_size=12), st.sampled_from([" ", ","]))
    @settings(max_examples=200, deadline=None)
    def test_real_matches_oracle(self, values, sep):
        assert _line(np.array(values, dtype=float), sep) == oracle_line(values, sep)
        assert _line(values, sep) == oracle_line(values, sep)

    @given(st.lists(st.tuples(any_float, any_float), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_complex_matches_oracle(self, pairs):
        z = cplx([re for re, _ in pairs], [im for _, im in pairs])
        assert _line(z) == oracle_line(z)

    @given(st.lists(any_float, min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_transposed_complex_matrix(self, values):
        zt = cplx(np.reshape(values, (2, 3)), np.reshape(values[::-1], (2, 3))).T
        assert not zt.flags.c_contiguous
        assert _line(zt) == oracle_line(zt)
        for row in zt:
            assert _line(row) == oracle_line(row)

    def test_edge_values(self):
        assert _line(EDGE_VALUES) == oracle_line(EDGE_VALUES)
        assert _line([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16]) == \
            "-0 inf -inf nan 4.9406564584124654e-324 10000000000000000"
        assert _line(cplx([-0.0, 1e16], [-0.0, 5e-324])) == \
            "-0 -0 10000000000000000 4.9406564584124654e-324"
        assert _line(0.25) == "0.25" and _line([]) == ""

    def test_round_trip_through_the_reader(self):
        z = cplx(EDGE_VALUES, EDGE_VALUES[::-1])
        back = serialize._numbers(_line(z), complex, len(z))
        assert np.array_equal(back.view(float), z.view(float), equal_nan=True)


# a second NaN payload and a negative NaN, which the writer keeps apart by their bits
NANS = [np.nan, *np.array([0x7FF8000000000123, -0x0008000000000000], np.int64).view(float)]
REPEATED = [0.0, -0.0, *NANS, np.inf, -np.inf, 5e-324, -2.5e-310, 0.1]


@st.composite
def repetitive_matrices(draw):
    """A real matrix whose entries come from a pool of at most four values."""
    pool = draw(st.lists(any_float | st.sampled_from(REPEATED), min_size=1, max_size=4))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    picks = draw(st.lists(st.sampled_from(range(len(pool))),
                          min_size=rows * cols, max_size=rows * cols))
    return np.array([pool[k] for k in picks], dtype=float).reshape(rows, cols)


class TestTokens:
    """The distinct-value writer against ``'%.17g' % x`` on one value at a time."""

    @given(repetitive_matrices(), repetitive_matrices(), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, re, im, complex_, transpose):
        m = cplx(re, np.resize(im, re.shape)) if complex_ else re
        m = m.T if transpose else m
        assert _tokens(m).tolist() == [oracle_line(row).split() for row in m]
        assert _rows(m) == [oracle_line(row) for row in m]
        assert _line(m) == oracle_line(m)
        if not complex_:  # the oracle keeps a space inside each ``re im`` pair
            assert _line(m, ",") == oracle_line(m, ",")

    def test_signed_zeros_and_nan_payloads_in_one_matrix(self):
        m = np.array([[0.0, -0.0, NANS[1]], [-0.0, NANS[0], 0.0]])
        assert _rows(m) == ["0 -0 nan", "-0 nan 0"]
        assert _rows(cplx(m, -m)) == ["0 -0 -0 0 nan nan", "-0 0 nan nan 0 -0"]
        assert _rows(np.array([[np.inf, -np.inf, 5e-324]])) == \
            ["inf -inf 4.9406564584124654e-324"]

    def test_complex_with_negative_zero_imaginary_part(self):
        z = cplx([1.0, 1.0, -0.0], [-0.0, 0.0, -0.0])
        assert _line(z) == "1 -0 1 0 -0 -0" == oracle_line(z)

    def test_transposed_input(self):
        m = np.arange(6.0).reshape(2, 3)
        assert not m.T.flags.c_contiguous
        assert _rows(m.T) == ["0 3", "1 4", "2 5"]

    def test_shapes(self):
        assert _tokens(np.empty(0)).tolist() == [[]] and _line([]) == ""
        assert _tokens(np.empty((0, 3))).tolist() == [] and _rows(np.empty((2, 0))) == ["", ""]
        assert _tokens(2.5).tolist() == [["2.5"]] and _line(np.float64(-0.0)) == "-0"
        assert _line(complex(0.5, -1.0)) == "0.5 -1"
        assert _rows([[complex(1, -0.0)]]) == ["1 -0"] and _rows([[7.0]]) == ["7"]


@st.composite
def entry_blocks(draw, min_n=0):
    """An n x n complex matrix that is all +0.0, mostly +0.0 or dense, with
    signed zeros and the edge values among its entries."""
    n = draw(st.integers(min_n, 5))
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    m = np.zeros(2 * n * n)
    if kind == "dense":
        m[:] = draw(st.lists(any_float, min_size=m.size, max_size=m.size))
    elif kind == "sparse" and n:
        for i in draw(st.lists(st.integers(0, m.size - 1), max_size=n)):
            m[i] = draw(any_float | st.just(-0.0))
    return m.view(complex).reshape(n, n)


def _read_entries(read, lines, n):
    """``read`` (the bulk or the row reader of an entries block) from the
    first of ``lines``: the shape, type and bytes of what it read and the
    lines it took, or its message.  No warning may reach the caller."""
    rd = serialize._Reader("")
    rd.lines = list(lines)  # not split again: a line may hold "\x1c"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = read(rd, n)
        except MalformedInputError as exc:
            values = str(exc)
    assert not caught, [str(w.message) for w in caught]
    if isinstance(values, str):
        return values
    return values.shape, values.dtype, values.tobytes(), rd.at


# separators str.split takes, one of which str.splitlines also breaks at
SEPARATORS = ["\x1c", "\xa0", "\t", "\u3000", "  "]
# tokens float() takes and loadtxt refuses, tokens both take, tokens neither
# takes, and a token after a comment mark
ODD_TOKENS = ["1_0", "1_000.5", "\u0661", "\u0663.\u0665", "\uff11", "-nan", "+inf", "infinity",
              "1e400", "-1e-400", ".5", "5.", "x", "0x1p0", "nan(1)", "1,0", "--1", "1e",
              "1d5", "\x00", "0 #0"]
FUZZ = st.text("0123456789.-+eEinfaINF_x,# \x00\u0661\xa0\x1c", min_size=1, max_size=6)


@st.composite
def _block_mutations(draw, lines):
    """An entries block with row k changed: a bad or odd token, a short or
    long row, a blank line before it, another separator, or the end of the
    file at it."""
    lines = list(lines)
    k = draw(st.integers(0, len(lines) - 1))
    tokens = lines[k].split(" ")
    j = draw(st.integers(0, len(tokens) - 1))
    kind = draw(st.sampled_from(["token", "fuzz", "short", "long", "blank",
                                 "separator", "truncate"]))
    if kind == "blank":
        return lines[:k] + [draw(st.sampled_from(["", "  ", "\t"]))] + lines[k:]
    if kind == "truncate":
        return lines[:k]
    if kind == "separator":  # in place of the space before token j
        lines[k] = " ".join(tokens[:j]) + draw(st.sampled_from(SEPARATORS)) \
            + " ".join(tokens[j:])
        return lines
    if kind == "short":
        del tokens[j]
    elif kind == "long":
        tokens.insert(j, tokens[j])
    else:
        tokens[j] = draw(st.sampled_from(ODD_TOKENS) if kind == "token" else FUZZ)
    lines[k] = " ".join(tokens)
    return lines


class TestEntriesBlock:
    """The bulk reader of an entries block against the row reader, and the
    writer against ``%.17g`` of one value at a time."""

    @given(entry_blocks())
    @settings(max_examples=300, deadline=None)
    def test_valid_blocks_read_the_same_bits(self, m):
        lines = _rows(m)
        assert lines == [oracle_line(row) for row in m]
        n = len(m)
        got = _read_entries(serialize._entries, [*lines, "--- sample 1 ---"], n)
        assert got == _read_entries(serialize._entry_rows, [*lines, "--- sample 1 ---"], n)
        shape, dtype, data, at = got
        assert shape == (n, n) and dtype == complex and at == n
        assert _rows(np.frombuffer(data, complex).reshape(n, n)) == lines

    @given(entry_blocks(min_n=1), st.data())
    @settings(max_examples=500, deadline=None)
    def test_mutated_blocks_give_the_row_readers_result(self, m, data):
        lines = data.draw(_block_mutations(_rows(m)))
        got = _read_entries(serialize._entries, lines, len(m))
        assert got == _read_entries(serialize._entry_rows, lines, len(m))
        if isinstance(got, str):
            assert re.match(r"line \d+: ", got)

    @pytest.mark.parametrize("row, read", [
        ("0 x 0 0", "line 2: could not convert string to float: 'x'"),
        ("0 0 0", "line 2: expected 4 numbers, found 3"),
        ("", "line 2: expected 4 numbers, found 0"),
        ("0 0 0 0 #0", "line 2: expected 4 numbers, found 5"),  # no comments in a block
        ("1\x1c2 3\xa04", [1, 2, 3, 4]),
        ("1_0 0 0 0", [10, 0, 0, 0]),  # loadtxt refuses it, the row reader takes it
        ("\u0661 0 \u0662 0", [1, 0, 2, 0]),
    ])
    def test_named_mutations(self, row, read):
        lines = ["0 0 0 0", row]
        got = _read_entries(serialize._entries, lines, 2)
        assert got == _read_entries(serialize._entry_rows, lines, 2)
        if isinstance(read, str):
            assert got == read
        else:
            assert np.frombuffer(got[2], float)[4:].tolist() == read


def test_certificate_round_trip_renders_its_space_once(monkeypatch):
    space = discretize(build_complex([(0, 1)]), 0.5, fiber_dim=2)
    n = space.total_dim
    samples = [FiniteOperator(space, np.eye(n, dtype=complex) * (1 - 0.001 * k))
               for k in range(9)]
    cert = HomotopyCertificate("even", samples, QuasiParams(0.2, 0.5), [0.001] * 8)
    calls = []
    render = serialize.dumps_space
    monkeypatch.setattr(serialize, "dumps_space",
                        lambda s: calls.append(s) or render(s))
    text = dumps_certificate(cert)
    again = loads_certificate(text, space)
    assert dumps_certificate(again) == text
    assert len(calls) == 1
    assert space_hash(space) == space_hash(loads_space(render(space)))
