"""Source guards: the copy-major layout is spelled out only in ``operator``
(and ``geometry``, which defines ``point_of_coord``), every float is
formatted by the one number writer, whether a matrix is Hermitian is decided
only in ``operator`` and ``controlled`` solves a whole-matrix eigenproblem
only where it needs eigenvectors (``kappa_even``, ``kappa_odd``), ``opnorm`` runs no Hermitian test and no dense
eigensolve outside its small-block path and its Lanczos fallback, no module
imports from ``scipy.linalg.blas`` or ``scipy.linalg.lapack``, no module
keeps an import it no longer uses, no private top-level name is left
unread, and no public function, class or method is reached only by tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coarsek"
MODULES = sorted(SRC.glob("*.py"))
LAYOUT_MODULES = {"operator.py", "geometry.py"}
# the demos and the benchmark: with the library, every reader that is not a test
CLIENTS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
# public names that only tests read, each kept for the reason given
TEST_ONLY = {
    "spectral_band_radius": "acceptance criterion 1 reads it",
    "certificate_rank_profile": "acceptance criterion 4 reads it",
    "HomotopyCertificate.endpoints": "acceptance criterion 4 reads it",
    "random_quasi_unitary": "odd-parity test data",
    "fiber_projection": "the dense oracle for compress",
    "SampledSpace.validate": "the metric-axiom oracle on discretize output",
    "ControlPair.constant": "the fixture builder of the control-pair tests",
}


def tree_of(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def numpy_calls(tree, names):
    """Line numbers of ``np.<name>(...)`` calls for the given names."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np" and node.func.attr in names]


def unused_imports(tree):
    """Top-level imported names that no expression of the module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def private_definitions(tree):
    """(line, name) of each top-level ``_private`` function, class or constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node.lineno, name.id) for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name))
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def public_definitions(tree):
    """(line, name) of each top-level public function or class and of each
    public method, named ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((sub.lineno, f"{node.name}.{sub.name}") for sub in node.body
                         if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [(line, name) for line, name in found
            if not name.rpartition(".")[2].startswith("_")]


def names_read(trees):
    """Every name some expression reads, as a bare name, an attribute or an import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def defined_names(trees):
    """Every function, class and method name the trees define."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def library_reads(modules, clients):
    """The names the library reads, and those its clients read that the
    clients do not define themselves: a client reading its own ``check``
    reads no library ``check``."""
    return names_read(modules) | (names_read(clients) - defined_names(clients))


def number_formats(tree):
    """(line, top-level name) of each string outside a docstring that holds a
    17-digit float format, ``%.17g`` or a ``{:.17g}`` spec."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return sorted((sub.lineno, getattr(node, "name", None))
                  for node in tree.body for sub in ast.walk(node)
                  if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and ".17g" in sub.value and id(sub) not in docstrings)


def top_level_hits(tree, hit):
    """(line, top-level name) of each node below a top-level statement for
    which ``hit(node)`` holds."""
    return sorted((sub.lineno, getattr(node, "name", None))
                  for node in tree.body for sub in ast.walk(node) if hit(sub))


def hermitian_tests(tree):
    """Hits of ``x - x.conj().T`` (the difference a Hermitian test measures)
    and of calls to ``nearly_hermitian``."""
    def hit(node):
        if isinstance(node, ast.Call):
            return getattr(node.func, "id", getattr(node.func, "attr", None)) \
                == "nearly_hermitian"
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            return False
        right = node.right
        return (isinstance(right, ast.Attribute) and right.attr == "T"
                and isinstance(right.value, ast.Call)
                and isinstance(right.value.func, ast.Attribute)
                and right.value.func.attr == "conj"
                and ast.dump(right.value.func.value) == ast.dump(node.left))
    return top_level_hits(tree, hit)


def eigen_solve(node):
    """Whether the node is a ``np.linalg.eigvalsh(...)`` or ``np.linalg.eigh(...)`` call."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"eigvalsh", "eigh"}
            and ast.dump(node.func.value) == ast.dump(
                ast.parse("np.linalg", mode="eval").body))


def eigen_solves(tree):
    """Hits of ``np.linalg.eigvalsh(...)`` and ``np.linalg.eigh(...)``."""
    return top_level_hits(tree, eigen_solve)


def called_names(node):
    """Names called below the node, as bare names or attributes."""
    return {getattr(sub.func, "id", getattr(sub.func, "attr", None))
            for sub in ast.walk(node) if isinstance(sub, ast.Call)}


def reachable(tree, root):
    """The top-level functions that ``root`` reaches by calling them by name,
    itself included."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in defs and name not in seen:
            seen.add(name)
            todo.extend(called_names(defs[name]))
    return {name: defs[name] for name in seen}


def scipy_blas_imports(tree):
    """Line numbers of imports from ``scipy.linalg.blas`` or ``scipy.linalg.lapack``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module in {"scipy.linalg.blas", "scipy.linalg.lapack"}]


def unguarded_solves(func, guard):
    """Lines of the eigensolves in ``func`` that are not in the body of an
    ``if`` whose test calls ``guard``."""
    guarded = {id(sub) for node in ast.walk(func)
               if isinstance(node, ast.If) and guard in called_names(node.test)
               for stmt in node.body for sub in ast.walk(stmt)}
    return [node.lineno for node in ast.walk(func)
            if eigen_solve(node) and id(node) not in guarded]


def test_modules_found():
    assert {"operator.py", "generators.py", "mv.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in LAYOUT_MODULES],
                         ids=lambda p: p.name)
def test_layout_lifts_only_in_operator(path):
    assert numpy_calls(tree_of(path), {"repeat", "tile"}) == [], (
        f"{path.name} spells out the copy-major layout; use operator.lift, "
        "FiniteOperator.from_concrete or coordinates_of")


def test_floats_formatted_only_by_the_writer():
    found = [(path.name, name) for path in MODULES
             for _, name in number_formats(tree_of(path))]
    assert found == [("serialize.py", "_tokens")], (
        "format numbers through serialize._line or serialize._rows")


def test_hermitian_test_only_in_operator():
    found = [(path.name, name) for path in MODULES if path.name != "operator.py"
             for _, name in hermitian_tests(tree_of(path))]
    # the one other difference builds a skew-Hermitian generator; it tests nothing
    assert found == [("generators.py", "banded_near_unitary")], (
        "decide Hermitian-ness through operator.hermitian_gap")


def test_controlled_solves_only_spectral_projections():
    names = {name for _, name in eigen_solves(tree_of(SRC / "controlled.py"))}
    assert names == {"kappa_even", "kappa_odd"}, (
        "read norms, defects and ranks off operator.spectrum")


def test_opnorm_solves_only_small_blocks_and_fallbacks():
    funcs = reachable(tree_of(SRC / "operator.py"), "opnorm")
    assert "hermitian_gap" not in funcs, "opnorm is the top singular value of every input"
    solvers = {name for name, func in funcs.items()
               if any(eigen_solve(node) for node in ast.walk(func))}
    assert solvers == {"_gram_eigvalsh", "_lanczos_norm"}, (
        "opnorm solves dense eigenproblems only for small blocks and as the fallback")
    assert unguarded_solves(funcs["_lanczos_norm"], "_certified") == [], (
        "a large block's eigvalsh runs only when the Lanczos value is not certified")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_direct_scipy_blas(path):
    # scipy bundles its own OpenBLAS with its own thread pool; calls that
    # alternate between it and numpy's run several times slower when both
    # pools have more than one thread
    assert scipy_blas_imports(tree_of(path)) == [], (
        "take matrix products and factorisations through numpy")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(tree_of(path)) == []


def test_no_unread_private_names():
    read = names_read(tree_of(path) for path in MODULES)
    unread = [f"{path.name}:{line} {name}" for path in MODULES
              for line, name in private_definitions(tree_of(path)) if name not in read]
    assert unread == [], "private names that nothing in src/ reads"


def test_no_public_name_only_tests_reach():
    read = library_reads([tree_of(path) for path in MODULES],
                         [tree_of(path) for path in CLIENTS])
    unread = [(f"{path.name}:{line}", name) for path in MODULES
              for line, name in public_definitions(tree_of(path))
              if name.rpartition(".")[2] not in read]
    stray = [f"{at} {name}" for at, name in unread if name not in TEST_ONLY]
    assert stray == [], ("public names that no library function, demo or benchmark "
                         f"reads; delete them, or say in TEST_ONLY why they stay: {stray}")
    assert sorted(name for _, name in unread if name in TEST_ONLY) == sorted(TEST_ONLY), (
        "TEST_ONLY names a definition that is gone or now read outside tests")


def test_guards_catch_what_they_name():
    tree = ast.parse("import numpy as np\nfrom x import a, b\n"
                     "np.tile(a, 2)\nnp.repeat(a, 3)\nnp.arange(4)\n")
    assert numpy_calls(tree, {"repeat", "tile"}) == [3, 4]
    imports = ast.parse("from scipy.linalg import eigh_tridiagonal\n"
                        "from scipy.linalg.blas import zgemv\n"
                        "from scipy.linalg.lapack import zpotrf\n")
    assert scipy_blas_imports(imports) == [2, 3]
    assert unused_imports(tree) == [(2, "b")]
    tree = ast.parse('_F = "{:.17g}"\n__all__ = []\n\n\ndef _fmt(x):\n    return _F % x\n\n\n'
                     "def _fmt_complex(z):\n    return _fmt(z.real)\n\n\n"
                     "class _Cursor:\n    pass\n\n\nv = m._Cursor\n")
    assert private_definitions(tree) == [(1, "_F"), (5, "_fmt"), (9, "_fmt_complex"),
                                         (13, "_Cursor")]
    assert {"_F", "_fmt", "_Cursor"} <= names_read([tree])
    assert "_fmt_complex" not in names_read([tree])
    tree = ast.parse("class Cell:\n    def grow(self):\n        pass\n\n"
                     "    def _tidy(self):\n        pass\n\n\n"
                     "def seed():\n    return Cell().grow\n\n\ndef _hidden():\n    pass\n")
    assert public_definitions(tree) == [(1, "Cell"), (2, "Cell.grow"), (9, "seed")]
    assert {"Cell", "grow"} <= names_read([tree])
    assert "seed" not in names_read([tree])
    bench = [ast.parse("class Load:\n    def check(self, i):\n        return i\n"),
             ast.parse("def loop(w):\n    return w.check(0) + w.grow()\n")]
    assert {"check", "grow"} <= names_read(bench)
    read = library_reads([ast.parse("pass\n")], bench)
    assert "grow" in read and "check" not in read
    assert "check" in library_reads([ast.parse("x.check()\n")], bench)
    tree = ast.parse('"""Writes ``%.17g``."""\n\n\ndef _tokens(v):\n    """As %.17g."""\n'
                     '    return "%.17g" % v\n\n\ndef dumps(x):\n'
                     '    return f"{x:.17g}," + "%.17g" % x\n')
    assert number_formats(tree) == [(6, "_tokens"), (10, "dumps"), (10, "dumps")]
    tree = ast.parse("import numpy as np\n\n\ndef gap(m):\n"
                     "    return np.linalg.norm(m - m.conj().T), m.T - m.conj().T\n\n\n"
                     "def rank(p):\n    h = p.a - p.a.conj().T\n"
                     "    return nearly_hermitian(p) + np.linalg.eigvalsh(h).size\n\n\n"
                     "def polar(u):\n    return np.linalg.eigh(u), linalg.eigh(u)\n")
    assert hermitian_tests(tree) == [(5, "gap"), (9, "rank"), (10, "rank")]
    assert eigen_solves(tree) == [(10, "rank"), (14, "polar")]
    tree = ast.parse("def norm(m):\n    return _small(m) + _large(m) + gap(m)\n\n\n"
                     "def _small(m):\n    return np.linalg.eigvalsh(m)\n\n\n"
                     "def _large(m):\n    t = _top(m)\n    if t is None or not _ok(m, t):\n"
                     "        t = np.linalg.eigvalsh(m)\n    return t + np.linalg.eigh(m)\n\n\n"
                     "def gap(m):\n    return 0\n\n\ndef _top(m):\n    return 1\n\n\n"
                     "def _unreached(m):\n    return gap(m)\n")
    funcs = reachable(tree, "norm")
    assert sorted(funcs) == ["_large", "_small", "_top", "gap", "norm"]
    assert unguarded_solves(funcs["_large"], "_ok") == [13]
    assert unguarded_solves(funcs["_small"], "_ok") == [6]
