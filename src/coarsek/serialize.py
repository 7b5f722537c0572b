"""Deterministic text formats for complexes, spaces, operators,
certificates, coarse maps, paths, and reports.

Floats are written with 17 significant digits so every round trip is exact;
infinite distances appear as the literal token ``inf``.  Files are written
atomically (temp file + rename) and every format starts with a tagged
version line.  Operators reference their space by a content hash and can
only be loaded against a space with the same hash.  That hash is the digest
of the text ``dumps_space`` writes: a space read from exactly that text
takes the text's digest, and a space read from any other accepted text is
rendered again to hash it.

Every number is written by ``_tokens``, which formats each distinct value
once and writes a +0.0 as ``0`` without sorting or formatting it.  An
operator's entries block is read in one ``np.loadtxt`` call; that result
stands only when it has the block's shape and came with no warning, and
anything else reads the block again one row at a time.

The readers are strict and share one line cursor: a missing line, a wrong
tag or key, a bad number, a wrong token count, a negative count or a
trailing line raises MalformedInputError naming the line.  No reader
allocates from a header count before the lines it announces are read.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
import weakref
from collections import defaultdict
from itertools import chain, count

import numpy as np

from .coarse import CoarseMap
from .controlled import HomotopyCertificate, QuasiParams
from .errors import MalformedInputError
from .geometry import MAX_FIBER_DIM, SamplePoint, SampledSpace, build_complex, valid_mesh
from .operator import FiniteOperator
from .paths import PathOperator

def atomic_write(path, text):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".coarsek-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Line cursor over a text; every fault names the line it is on."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.at = 0  # lines read so far, so the current line is ``at``

    def error(self, message, at=None):
        return MalformedInputError(f"line {self.at if at is None else at}: {message}")

    def line(self):
        self.at += 1
        if self.at > len(self.lines):
            raise self.error("unexpected end of file")
        return self.lines[self.at - 1]

    def rest(self):
        while self.at < len(self.lines):
            yield self.line()

    def __enter__(self):
        return self

    def __exit__(self, failed, *_):
        if failed is None:  # only blank lines may follow a whole record
            for line in self.rest():
                if line.strip():
                    raise self.error(f"unexpected line {line.strip()[:40]!r}")

    def tag(self, tag):
        found = self.line().strip()
        if found != tag:
            raise self.error(f"expected {tag!r}, found {found[:40]!r}")

    def field(self, key, convert=str):
        name, colon, value = self.line().partition(":")
        if not colon or name.strip() != key:
            raise self.error(f"expected '{key}:'")
        return self.cast(value.strip(), convert)

    def records(self, label, count, parse, *args):
        """``count`` records read by ``parse``, each after ``--- label i ---``."""
        records = []
        for i in range(count):
            self.tag(f"--- {label} {i} ---")
            records.append(parse(self, *args))
        return records

    def numbers(self, dtype=float, count=None):
        return self.cast(self.line(), lambda s: _numbers(s, dtype, count))

    def cast(self, text, convert):
        try:
            return convert(text)
        except (ValueError, OverflowError) as exc:
            raise self.error(exc) from exc


def _numbers(text, dtype=float, count=None):
    """Whitespace-separated numbers in one numpy conversion; a complex number
    is an ``re im`` pair, and ``count`` is the expected length."""
    tokens = text.split()
    width = 2 if dtype is complex else 1
    if count is not None and len(tokens) != width * count:
        raise ValueError(f"expected {width * count} numbers, found {len(tokens)}")
    if len(tokens) % width:
        raise ValueError(f"odd re/im count {len(tokens)}")
    values = np.array(tokens, dtype=float if width == 2 else dtype)
    return values.view(complex) if width == 2 else values


def _tokens(values):
    """The ``%.17g`` tokens of a real or complex array (``re im`` per complex
    number) as an object array with one row per leading index; a 0-d or 1-d
    array is one row.  Each distinct float is formatted once: values are told
    apart by their bits, so ``0.0`` and ``-0.0`` stay ``0`` and ``-0``.

    Sorting the bits is most of the cost.  A +0.0 (all bits clear) is always
    the token ``0``, so an array that is mostly +0.0 sorts only its other
    entries; a mostly nonzero one sorts them all, because picking them out
    would cost it more than it saves."""
    values = np.asarray(values)
    rows = len(values) if values.ndim > 1 else 1
    if np.iscomplexobj(values):
        values = np.ascontiguousarray(values, dtype=complex).reshape(-1).view(float)
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
    at = np.flatnonzero(bits) if 2 * np.count_nonzero(bits) < bits.size else None
    keys, inverse = np.unique(bits if at is None else bits[at], return_inverse=True)
    text = "\n".join([*["%.17g"] * len(keys), "0"]) % tuple(keys.view(float).tolist())
    # numpy 1.x returns the inverse flat and 2.x shaped like its input
    codes = inverse.reshape(-1)
    if at is not None:  # every entry left out is +0.0, the last token
        codes = np.full(bits.size, len(keys))
        codes[at] = inverse.reshape(-1)
    tokens = np.array(text.split("\n"), dtype=object)[codes]
    return tokens.reshape(rows, -1 if rows else 0)


def _line(values, sep=" "):
    """Numbers as tokens (``re im`` per complex), as ``_numbers`` reads them."""
    return sep.join(_tokens(values).ravel().tolist())


def _rows(matrix):
    """One line per matrix row, every number of the matrix formatted together."""
    return [" ".join(row) for row in _tokens(matrix).tolist()]


def _records(label, records, dump):
    for i, record in enumerate(records):
        yield f"--- {label} {i} ---"
        yield dump(record).rstrip("\n")


def _count(text):
    n = int(text)
    if n < 0:
        raise ValueError(f"negative count {n}")
    return n


# -- complexes ---------------------------------------------------------------


def loads_complex(text):
    """One maximal simplex per line, whitespace-separated vertex ids."""
    rd = _Reader(text)
    simplices = [rd.cast(line, lambda s: _numbers(s, int).tolist()) for line in rd.rest()
                 if line.strip() and not line.lstrip().startswith("#")]
    if not simplices:
        raise MalformedInputError("no simplices in complex file")
    return build_complex(simplices)


# -- spaces ------------------------------------------------------------------


def _space_head(space):
    """The lines of a space text above its ``dist:`` line."""
    # one writer call for every coordinate; the carriers are ragged
    coords = _tokens(list(chain.from_iterable(p.coords for p in space.points)))[0].tolist()
    out = ["coarsek-space v1",
           f"mesh: {'none' if space.mesh is None else _line(space.mesh)}",
           f"points: {len(space)}"]
    at = 0
    for i, p in enumerate(space.points):
        carrier = ",".join(str(v) for v in p.carrier)
        coord = ",".join(coords[at:at + len(p.coords)])
        at += len(p.coords)
        out.append(f"{i} {carrier} {coord} {space.internal_dims[i]}")
    return out


def dumps_space(space):
    return "\n".join([*_space_head(space), "dist:", *_rows(space.dist)]) + "\n"


def loads_space(text):
    with _Reader(text) as rd:
        rd.tag("coarsek-space v1")
        mesh = rd.field("mesh", _mesh)
        n = rd.field("points", _count)
        points, dims = [], []
        for i in range(n):
            idx, point, d = rd.cast(rd.line(), _sample)
            if idx != i or not 1 <= d <= MAX_FIBER_DIM:
                raise rd.error(f"sample {idx} of fiber dimension {d}; expected"
                               f" sample {i} of dimension 1..{MAX_FIBER_DIM}")
            points.append(point)
            dims.append(d)
        rd.tag("dist:")
        dist, canonical = _distances(rd, n)
    space = SampledSpace(points, dist, dims, mesh=mesh)
    # the text is what dumps_space writes if its rows and its head are, and
    # every line ends in one "\n" with nothing after the distance block
    if canonical and len(rd.lines) == 2 * n + 4 and _single_newlines(text, rd.lines) \
            and rd.lines[:n + 4] == [*_space_head(space), "dist:"]:
        _HASHES[space] = digest(text)
    return space


def _mesh(text):
    if text == "none":
        return None
    mesh = float(text)
    if not valid_mesh(mesh):
        raise ValueError(f"mesh {text} is not finite and positive")
    return mesh


def _sample(line):
    """``id carrier coords dim`` -> (id, SamplePoint, dim); ``SamplePoint``
    refuses a sample its rule does not admit."""
    fields = line.split()
    if len(fields) != 4:
        raise ValueError("a sample line needs 4 fields (id carrier coords dim), "
                         f"found {len(fields)}")
    idx, carrier, coords, d = fields
    carrier = tuple(map(_vertex, carrier.split(",")))
    coords = tuple(float(c) for c in coords.split(","))
    return int(idx), SamplePoint(carrier, coords), int(d)


def _vertex(token):
    """A carrier vertex id, refused in ``SamplePoint``'s words."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"carrier vertex {token} is not an integer") from None


def _distances(rd, n):
    """The ``n`` rows of a distance block, and whether each row is written as
    ``dumps_space`` writes it.  Each distinct token is converted once: the
    rows hold int32 codes of the tokens, numbered in order of first
    appearance, and the distinct tokens are converted together at the end.
    A fault names the line the row-by-row reader would: the first row with a
    bad token or a wrong count, and on a row with both, the count."""
    memo = defaultdict(count().__next__)
    rows, canonical = [], True
    first = rd.at + 1  # the line of row 0
    try:
        for _ in range(n):
            line = rd.line()
            tokens = line.split()
            if len(tokens) != n:  # np.fromiter would drop extra tokens
                raise rd.error(f"expected {n} numbers, found {len(tokens)}")
            rows.append(np.fromiter(map(memo.__getitem__, tokens), np.int32, n))
            canonical = canonical and line == " ".join(tokens)
    except MalformedInputError:
        _convert(rd, list(memo), rows, first)  # a bad token on an earlier row wins
        raise
    keys = list(memo)
    values = _convert(rd, keys, rows, first)
    # a key that is its own %.17g token makes each row its dumps_space row
    canonical = canonical and _tokens(values)[0].tolist() == keys
    return values[np.array(rows, dtype=np.int32).reshape(n, n)], canonical


def _convert(rd, keys, rows, first):
    """The distinct tokens as floats; a bad one is named on the first row
    that holds it, the first row with a bad token."""
    try:
        return np.array(keys, dtype=float)
    except ValueError as exc:
        error = exc
    for code, key in enumerate(keys):
        try:
            np.array([key], dtype=float)
        except ValueError as exc:
            row = next(i for i, codes in enumerate(rows) if (codes == code).any())
            raise rd.error(exc, at=first + row) from exc
    raise rd.error(error) from error


def _single_newlines(text, lines):
    """Whether ``text`` is ``lines``, each ended by one ``\\n``: the text has
    as many ``\\n`` as lines (so every line break holds one) and no character
    beyond the lines and those breaks (so no break holds more)."""
    return text.count("\n") == len(lines) == len(text) - sum(map(len, lines))


_HASHES = weakref.WeakKeyDictionary()  # space -> digest; a built space does not change


def space_hash(space):
    if space not in _HASHES:
        _HASHES[space] = digest(dumps_space(space))
    return _HASHES[space]


def digest(text):
    """The name of a space text (``space_hash`` of the space it holds): the
    first 16 hex digits of its SHA-256."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- operators ---------------------------------------------------------------


def dumps_operator(op):
    scalar = "none" if op.scalar is None else _line(op.scalar)
    out = ["coarsek-operator v1",
           f"space: {space_hash(op.space)}",
           f"amplification: {op.amplification}",
           f"scalar: {scalar}",
           f"dim: {op.dim}",
           "entries:"]
    out.extend(_rows(op.entries))
    return "\n".join(out) + "\n"


def loads_operator(text, space):
    with _Reader(text) as rd:
        return _parse_operator(rd, space)


def _parse_operator(rd, space):
    rd.tag("coarsek-operator v1")
    ref, have = rd.field("space"), space_hash(space)
    if ref != have:
        raise rd.error(
            f"operator references space {ref}, supplied space hashes to {have}")
    k = rd.field("amplification", _count)
    scalar = rd.field("scalar", lambda s: None if s == "none" else _numbers(s, complex, k))
    n = rd.field("dim", _count)
    if k < 1 or n != k * space.total_dim:
        raise rd.error(f"dim {n} for amplification {k} over dimension {space.total_dim}")
    rd.tag("entries:")
    return FiniteOperator(space, _entries(rd, n), k, scalar)


def _entries(rd, n):
    """The ``n`` rows of ``re im`` pairs of an entries block as an (n, n)
    complex matrix, parsed in one ``np.loadtxt`` call.  Its result stands
    only when it has shape (n, 2n) and no warning came with it (loadtxt skips
    blank lines, and warns when it finds no data); anything else, a fault
    included, reads the block again with ``_entry_rows``, so a fault names
    its line.  loadtxt also refuses some tokens that ``float`` takes, such as
    ``1_0`` and non-ASCII digits, and the row reader reads those blocks."""
    if n:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(rd.lines[rd.at:rd.at + n], dtype=float,
                                    comments=None, ndmin=2)
        except (ValueError, Warning):
            pass
        else:
            if values.shape == (n, 2 * n):
                rd.at += n
                return values.view(complex)
    return _entry_rows(rd, n)


def _entry_rows(rd, n):
    """The row reader of an entries block: one line, one conversion."""
    return np.array([rd.numbers(complex, n) for _ in range(n)], dtype=complex).reshape(n, n)


# -- certificates ------------------------------------------------------------


def dumps_certificate(cert):
    out = ["coarsek-certificate v1",
           f"parity: {cert.parity}",
           f"epsilon: {_line(cert.params.eps)}",
           f"r: {_line(cert.params.r)}",
           f"samples: {len(cert.samples)}",
           f"step_bounds: {_line(cert.step_bounds)}",
           *_records("sample", cert.samples, dumps_operator)]
    return "\n".join(out) + "\n"


def loads_certificate(text, space):
    with _Reader(text) as rd:
        rd.tag("coarsek-certificate v1")
        parity = rd.field("parity")
        eps, r = rd.field("epsilon", float), rd.field("r", float)
        count = rd.field("samples", _count)
        bounds = rd.field("step_bounds", _numbers).tolist()
        samples = rd.records("sample", count, _parse_operator, space)
    return HomotopyCertificate(parity, samples, QuasiParams(eps, r), bounds)


# -- coarse maps and paths ----------------------------------------------------


def dumps_coarse_map(f):
    out = ["coarsek-map v1",
           f"source: {space_hash(f.source)}",
           f"target: {space_hash(f.target)}",
           f"points: {len(f.source)}"]
    out.extend(f"{i} {f.assignment[i]}" for i in range(len(f.source)))
    return "\n".join(out) + "\n"


def loads_coarse_map(text, source, target):
    with _Reader(text) as rd:
        rd.tag("coarsek-map v1")
        for label, space in (("source", source), ("target", target)):
            if rd.field(label) != space_hash(space):
                raise rd.error(f"{label} space hash mismatch")
        n = rd.field("points", _count)
        assignment = []
        for i in range(n):
            row, image = rd.numbers(int, 2).tolist()
            if row != i:
                raise rd.error(f"row id {row}, expected {i}")
            assignment.append(image)
    return CoarseMap(source, target, assignment)


def dumps_path(path):
    out = ["coarsek-path v1",
           f"times: {_line(path.times)}",
           f"modulus: {_line(path.modulus)}",
           f"horizon: {_line(path.horizon)}",
           *_records("sample", path.values, dumps_operator)]
    return "\n".join(out) + "\n"


def loads_path(text, space):
    with _Reader(text) as rd:
        rd.tag("coarsek-path v1")
        times = rd.field("times", _numbers)
        if not times.size:
            raise rd.error("a path needs at least one time")
        modulus = rd.field("modulus", float)
        horizon = rd.field("horizon", float)
        if horizon != times[-1]:
            raise rd.error(f"horizon {_line(horizon)} is not the last time {_line(times[-1])}")
        values = rd.records("sample", len(times), _parse_operator, space)
    return PathOperator(times, values, modulus)


# -- reports -------------------------------------------------------------------


def _report_lines(fields, table):
    out = [f"{k}: {_line(v) if isinstance(v, float) else v}"
           for k, v in fields.items()]
    if table:
        out.append("[table]")
        out.append("quantity\tvalue\tbound\tmargin")
        out.extend("\t".join(_line(v) if isinstance(v, float) else str(v)
                             for v in row[:4]) for row in table)
    return out


def dumps_report(fields, table=None):
    """key: value lines plus an optional plot-ready table."""
    return "\n".join(["coarsek-report v1", *_report_lines(fields, table)]) + "\n"


def dumps_merged_report(sections):
    """One report of ``(name, fields, table)`` sections, in order."""
    out = ["coarsek-report v1", f"sections: {len(sections)}"]
    for name, fields, table in sections:
        out.append(f"## {name}")
        out.extend(_report_lines(fields, table))
    return "\n".join(out) + "\n"


def loads_report(text):
    rd = _Reader(text)
    rd.tag("coarsek-report v1")
    fields, table = {}, []
    in_table = False
    for line in rd.rest():
        if line.strip() == "[table]":
            in_table = True
        elif in_table:
            if line.strip() and not line.startswith("quantity"):
                table.append(line.split("\t"))
        elif line.strip():
            key, colon, value = line.partition(":")
            if not colon:
                raise rd.error("expected 'key: value'")
            fields[key.strip()] = value.strip()
    return fields, table


def loads_numbers(text, dtype=float):
    """Whitespace-separated numbers over any number of lines, as one array."""
    rd = _Reader(text)
    return np.concatenate([np.empty(0, dtype)] + [
        rd.cast(line, lambda s: _numbers(s, dtype)) for line in rd.rest()])
