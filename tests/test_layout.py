"""Source guards: the copy-major layout is spelled out only in ``operator``
(and ``geometry``, which defines ``point_of_coord``), every float is
formatted by the one number writer, whether a matrix is Hermitian is decided
only in ``operator`` and ``controlled`` solves a whole-matrix eigenproblem
only where it needs eigenvectors (``kappa_even``), ``opnorm`` runs no
Hermitian test and no dense eigensolve outside its small-block path, its
Lanczos fallback and the Lanczos tridiagonal matrix, no module imports
scipy (nor does importing the package load it), no module keeps an import
it no longer uses, no private top-level name is left unread, and no public function, class,
method or class attribute is reached only by tests.  A re-export in ``__init__`` reads
nothing, and a method is read only as an attribute of a value that is not
an imported module; the names the benchmark's tracer looks up by string
count as read, and each of them must resolve.  One level down, every
parameter with a default is passed by some caller that is not a test, and
every parameter of a public function is read by its body.  The README's
table of the knobs each CLI subcommand reads is the set of its handler's
keyword-only parameters."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
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
    "compose_control_pairs": "acceptance criterion 8 reads it",
    "apply_control_pair": "acceptance criterion 8 reads it",
    "relaxed_params": "acceptance criterion 8 reads it",
    "ControlPair.table": "acceptance criterion 8 reads it",
    "FiniteOperator.zeros": "test data",
    "SampledSpace.validate": "the metric-axiom oracle on discretize output",
    "ControlPair.constant": "the fixture builder of the control-pair tests",
}
# parameters with defaults that only tests pass, each kept for the reason given
TEST_ONLY_PARAMS = {
    "ControlPair.table(n)": "acceptance criterion 8 reads it",
    "SampledSpace.validate(tol)": "the tolerance of the metric-axiom oracle",
    "circle_cut(width)": "tests show that the index does not depend on the cut",
    "evaluate(interpolate)": "tests bound the perturbation of the path blend",
    "loads_numbers(dtype)": "the CLI passes int through _load(..., *context)",
    "random_region_supported(amplification)": "amplified test data",
    "random_region_supported(band_r)": "test data",
    "banded_near_unitary(amplification)": "amplified test data",
    "phase_unitary(amplification)": "amplified test data",
    "phase_unitary(unitized)": "test data",
    "shift_unitary(amplification)": "amplified test data",
    "SampledSpace.from_distance_matrix(mesh)": "test data",
    "uniform_edge_space(fiber_dim)": "test data",
    "FiniteOperator.zeros(amplification)": "amplified test data",
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
    public method or class-body ``Name = ...`` assignment, named
    ``Class.member``.  An annotated field is left out: a NamedTuple's
    fields are read by unpacking."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        for sub in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((sub.lineno, f"{node.name}.{sub.name}"))
            elif isinstance(sub, ast.Assign):
                found.extend((sub.lineno, f"{node.name}.{target.id}")
                             for target in sub.targets if isinstance(target, ast.Name))
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


def imported_modules(tree):
    """Every name an ``import module`` statement of the tree binds."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names}


def attributes_read(trees):
    """Every attribute some expression reads off a value that is not a name
    bound by ``import module``: ``x.block`` and ``Cls.block`` (with ``Cls``
    from ``from m import Cls``) read ``block``, ``np.block`` does not."""
    read = set()
    for tree in trees:
        modules = imported_modules(tree)
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and not (isinstance(node.value, ast.Name) and node.value.id in modules))
    return read


def defined_names(trees):
    """Every function, class and method name the trees define."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def library_reads(modules, clients):
    """``(names, attributes)``: what the library modules (a map from file
    name to tree) read, ``names_read`` and ``attributes_read``, and what
    their clients read that the clients do not define themselves: a client
    reading its own ``check`` reads no library ``check``.  ``__init__.py``
    is left out: a re-export reads nothing."""
    library = [tree for name, tree in modules.items() if name != "__init__.py"]
    own = defined_names(clients)
    return (names_read(library) | (names_read(clients) - own),
            attributes_read(library) | (attributes_read(clients) - own))


def traced_names(tree):
    """The entries of the ``TRACED`` list that a tracer module assigns; the
    tracer looks each ``module.name`` up by string."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unread_public_names(modules, clients, traced):
    """``(file:line, name)`` of each public definition of the library
    modules (a map from file name to tree) that nothing outside tests
    reads.  A function or class is read by name, import or attribute, a
    method or class attribute (``Class.name``) only as an attribute; a ``module.name`` in
    ``traced`` is read."""
    names, attributes = library_reads(modules, clients)
    return [(f"{file}:{line}", name) for file, tree in modules.items()
            for line, name in public_definitions(tree)
            if f"{file.removesuffix('.py')}.{name}" not in traced
            and name.rpartition(".")[2] not in (attributes if "." in name else names)]


def decorated(node, name):
    """Whether ``@name`` or ``@name(...)`` decorates the definition."""
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == name
               for d in node.decorator_list)


def public_functions(tree):
    """``(func, label, call name, bound)`` of each public top-level function
    and of each public method and ``__init__`` of a public class.  ``label``
    is ``f``, ``Cls.m`` or ``Cls`` (a constructor), ``call name`` the name a
    call reaches it by, and ``bound`` whether a call leaves its first
    parameter (``self``, ``cls``) out."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield node, node.name, node.name, False
        for sub in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                yield sub, node.name, node.name, True
            elif isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                yield (sub, f"{node.name}.{sub.name}", sub.name,
                       not decorated(sub, "staticmethod"))


def has_default(value):
    """Whether a dataclass field's right-hand side gives it a default:
    anything but ``field(...)`` without ``default``/``default_factory``."""
    return value is not None and not (
        isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
        and not {k.arg for k in value.keywords} & {"default", "default_factory"})


def defaulted_parameters(tree):
    """``(line, label, parameter, call name, position, owner)`` of each
    parameter with a default of a ``public_functions`` entry, and of each
    dataclass field with a default.  A call by ``call name`` reaches it (a
    field's is its class's), passing it as the positional argument at
    ``position`` (None for a keyword-only one) or by keyword.  ``owner`` is
    the definition whose own calls do not count: the class, for a field,
    whose ``__init__`` has no body.  ``label`` reads ``f(p)``, ``Cls.m(p)``
    or ``Cls(p)``."""
    found = []
    for func, label, call, bound in public_functions(tree):
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found.extend((a.lineno, f"{label}({a.arg})", a.arg, call, i - bound, func)
                     for i, a in enumerate(positional) if i >= first)
        found.extend((a.lineno, f"{label}({a.arg})", a.arg, call, None, func)
                     for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    for node in tree.body:
        if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and decorated(node, "dataclass")):
            fields = [sub for sub in node.body if isinstance(sub, ast.AnnAssign)
                      and isinstance(sub.target, ast.Name)]
            found.extend((sub.lineno, f"{node.name}({sub.target.id})", sub.target.id,
                          node.name, pos, node)
                         for pos, sub in enumerate(fields) if has_default(sub.value))
    return sorted(found, key=lambda row: row[0])


def calls(tree, skip=frozenset(), library=frozenset()):
    """``(call name, positions, keywords, enclosing)`` of each call in the
    tree whose callee is a bare name or an attribute read off a value that
    is not a name bound by ``import module`` (``np.zeros(...)`` is left
    out).  A name in ``skip`` is left out too, unless it is read off a
    module of ``library`` bound by ``from package import module``
    (``cli.main(...)``).  ``positions`` is the number of positional
    arguments, or None when one is starred; ``keywords`` the names passed
    by keyword, or None when ``**`` passes a mapping; ``enclosing`` the
    top-level function or method the call sits in, or None."""
    modules = imported_modules(tree)
    package = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name in library}
    found = []

    def visit(node, enclosing):
        if isinstance(node, ast.Call):
            func = node.func
            held = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            name = (func.id if isinstance(func, ast.Name) else func.attr
                    if isinstance(func, ast.Attribute)
                    and not (held and func.value.id in modules) else None)
            if name is not None and (name not in skip or held and func.value.id in package):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = [k.arg for k in node.keywords]
                found.append((name, None if starred else len(node.args),
                              None if None in keywords else set(keywords), enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for node in tree.body:
        for sub in node.body if isinstance(node, ast.ClassDef) else [node]:
            visit(sub, sub if isinstance(sub, ast.FunctionDef) else None)
    return found


def sets(call, parameter):
    """Whether ``call`` (one of ``calls``) passes ``parameter`` (one of
    ``defaulted_parameters``)."""
    called, positions, keywords, enclosing = call
    _, _, arg, name, position, owner = parameter
    return called == name and enclosing is not owner and (
        keywords is None or arg in keywords or position is not None and (
            positions is None or position < positions))


def parameters_only_tests_set(modules, clients):
    """``(file:line, label)`` of each parameter of ``defaulted_parameters``
    of the library modules (a map from file name to tree) that no call in
    another library function, a demo or the benchmark passes.  A client's
    call of a name the clients define themselves passes nothing to the
    library."""
    own = defined_names(clients)
    library = {name.removesuffix(".py") for name in modules}
    found = [call for name, tree in modules.items() if name != "__init__.py"
             for call in calls(tree)]
    found += [call for tree in clients for call in calls(tree, own, library)]
    return [(f"{file}:{parameter[0]}", parameter[1]) for file, tree in modules.items()
            for parameter in defaulted_parameters(tree)
            if not any(sets(call, parameter) for call in found)]


def unread_parameters(tree):
    """``(line, label)`` of each parameter of a ``public_functions`` entry
    that its body never reads (``self`` and ``cls`` aside)."""
    found = []
    for func, label, _, bound in public_functions(tree):
        args = func.args
        names = [a.arg for a in args.posonlyargs + args.args][bound:]
        names += [a.arg for a in (*args.kwonlyargs, args.vararg, args.kwarg) if a is not None]
        read = {sub.id for stmt in func.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        found.extend((func.lineno, f"{label}({name})") for name in names if name not in read)
    return found


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


def scipy_imports(tree):
    """Line numbers of imports of ``scipy`` or of any of its modules."""
    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(is_scipy(a.name) for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and is_scipy(node.module)]


def unguarded_solves(func, guard):
    """Lines of the eigensolves in ``func`` that are not in the body of an
    ``if`` whose test calls ``guard``."""
    guarded = {id(sub) for node in ast.walk(func)
               if isinstance(node, ast.If) and guard in called_names(node.test)
               for stmt in node.body for sub in ast.walk(stmt)}
    return [node.lineno for node in ast.walk(func)
            if eigen_solve(node) and id(node) not in guarded]


def knob_table(text):
    """``{subcommand: knobs}`` of the README table of the knobs each reads."""
    lines = text.splitlines()
    table = {}
    for line in lines[lines.index("| subcommand | knobs it reads |") + 2:]:
        if not line.startswith("|"):
            break
        _, command, knobs, _ = line.split("|")
        table[command.strip().strip("`")] = set(re.findall(r"`(\w+)`", knobs))
    return table


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
    assert names == {"kappa_even"}, (
        "read norms, defects and ranks off operator.spectrum")


def test_opnorm_solves_only_small_blocks_and_fallbacks():
    funcs = reachable(tree_of(SRC / "operator.py"), "opnorm")
    assert "hermitian_gap" not in funcs, "opnorm is the top singular value of every input"
    solvers = {name for name, func in funcs.items()
               if any(eigen_solve(node) for node in ast.walk(func))}
    assert solvers == {"_gram_eigvalsh", "_lanczos_norm", "_ritz_top"}, (
        "opnorm solves dense eigenproblems only for small blocks, as the fallback "
        "and for the Lanczos tridiagonal matrix")
    callers = {node.name for node in ast.walk(tree_of(SRC / "operator.py"))
               if isinstance(node, ast.FunctionDef) and "_ritz_top" in called_names(node)}
    assert callers == {"_lanczos_top"}, "only Lanczos solves its tridiagonal matrix"
    assert unguarded_solves(funcs["_lanczos_norm"], "_certified") == [], (
        "a large block's eigvalsh runs only when the Lanczos value is not certified")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_direct_scipy_blas(path):
    # no scipy at all: scipy bundles its own OpenBLAS with its own thread
    # pool, and calls that alternate between it and numpy's run several
    # times slower when both pools have more than one thread; and importing
    # its linalg, sparse and optimize modules takes a CLI call longer than
    # the work on a small input
    assert scipy_imports(tree_of(path)) == [], (
        "the library imports no scipy; write the kernel in numpy")


def test_importing_the_library_loads_no_scipy():
    code = ("import sys, coarsek, coarsek.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=120).stdout.split()
    assert loaded == [], f"importing coarsek loads {len(loaded)} scipy modules: {loaded[:4]}"


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
    unread = unread_public_names({path.name: tree_of(path) for path in MODULES},
                                 [tree_of(path) for path in CLIENTS],
                                 traced_names(tree_of(ROOT / "perfbench" / "spans.py")))
    stray = [f"{at} {name}" for at, name in unread if name not in TEST_ONLY]
    assert stray == [], ("public names that no library function, demo or benchmark "
                         f"reads; delete them, or say in TEST_ONLY why they stay: {stray}")
    assert sorted(name for _, name in unread if name in TEST_ONLY) == sorted(TEST_ONLY), (
        "TEST_ONLY names a definition that is gone or now read outside tests")


def test_no_parameter_only_tests_set():
    unset = parameters_only_tests_set({path.name: tree_of(path) for path in MODULES},
                                      [tree_of(path) for path in CLIENTS])
    stray = [f"{at} {label}" for at, label in unset if label not in TEST_ONLY_PARAMS]
    assert stray == [], ("parameters with defaults that no library function, demo or "
                         f"benchmark passes; delete them, or say in TEST_ONLY_PARAMS why "
                         f"they stay: {stray}")
    assert sorted(label for _, label in unset if label in TEST_ONLY_PARAMS) == \
        sorted(TEST_ONLY_PARAMS), (
            "TEST_ONLY_PARAMS names a parameter that is gone or now passed outside tests")


def test_no_unread_parameters():
    unread = [f"{path.name}:{line} {label}" for path in MODULES
              for line, label in unread_parameters(tree_of(path))]
    assert unread == [], "parameters that their function never reads"


def test_traced_names_resolve():
    # the tracer finds each name by string, so a rename breaks a traced run
    missing = []
    for name in sorted(traced_names(tree_of(ROOT / "perfbench" / "spans.py"))):
        module, _, rest = name.partition(".")
        target = importlib.import_module(f"coarsek.{module}")
        for part in rest.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert missing == [], "perfbench/spans.py traces names the package lacks"


def test_readme_knob_table_is_what_each_handler_reads():
    from coarsek.cli import COMMANDS
    # every subcommand writes into --out, and the README says so apart
    read = {name: {p.name for p in inspect.signature(handler).parameters.values()
                   if p.kind is p.KEYWORD_ONLY} - {"out"}
            for name, handler in COMMANDS.items()}
    assert knob_table((ROOT / "README.md").read_text(encoding="utf-8")) == read


def test_guards_catch_what_they_name():
    tree = ast.parse("import numpy as np\nfrom x import a, b\n"
                     "np.tile(a, 2)\nnp.repeat(a, 3)\nnp.arange(4)\n")
    assert numpy_calls(tree, {"repeat", "tile"}) == [3, 4]
    imports = ast.parse("from scipy.linalg import eigh_tridiagonal\n"
                        "import numpy, scipy.sparse as sp\n"
                        "from . import scipy\n"
                        "from scipyx import y\n"
                        "import scipy\n")
    assert scipy_imports(imports) == [1, 2, 5]
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
    # class attributes count, annotated fields and private names do not
    members = ast.parse("class Cell:\n    size: int = 1\n    H = _alias = property(len)\n"
                        "    _tmp = 2\n    __rmul__ = len\n\n\nv = Cell().size\n")
    assert public_definitions(members) == [(1, "Cell"), (3, "Cell.H")]
    assert unread_public_names({"cell.py": members}, [], set()) == [("cell.py:3", "Cell.H")]
    assert {"Cell", "grow"} <= names_read([tree])
    assert "seed" not in names_read([tree])
    bench = [ast.parse("class Load:\n    def check(self, i):\n        return i\n"),
             ast.parse("def loop(w):\n    return w.check(0) + w.grow()\n")]
    assert {"check", "grow"} <= names_read(bench)
    names, attributes = library_reads({"m.py": ast.parse("pass\n")}, bench)
    assert "grow" in attributes and "check" not in names | attributes
    assert "check" in library_reads({"m.py": ast.parse("x.check()\n")}, bench)[1]
    # the three blind spots: a re-export, a method named like a local and
    # one named like an attribute of an imported module
    lib = {"__init__.py": ast.parse("from .cell import Cell, seed\n"),
           "cell.py": ast.parse("import numpy as np\n\n\nclass Cell:\n"
                                "    def grow(self):\n        pass\n\n"
                                "    def zeros(self):\n        pass\n\n\n"
                                "def seed():\n    grow = 1\n    return np.zeros(grow)\n\n\n"
                                "def _tend():\n    return Cell()\n")}
    assert unread_public_names(lib, [], set()) == [
        ("cell.py:5", "Cell.grow"), ("cell.py:8", "Cell.zeros"), ("cell.py:12", "seed")]
    assert unread_public_names(lib, [ast.parse("def f(c):\n    return c.zeros()\n")],
                               {"cell.seed", "cell.Cell.grow"}) == []
    assert attributes_read([ast.parse("import numpy as np\nfrom m import Cell\n"
                                      "np.zeros(Cell.grow())\n")]) == {"grow"}
    assert traced_names(ast.parse('TRACED = [\n    "a.f", "b.C.m",\n]\nOTHER = ["c.g"]\n')) \
        == {"a.f", "b.C.m"}
    # parameters: set by keyword, by position after self/cls, through *args
    # or **kwargs; not by the function's own call, a test, a call read off an
    # imported module, or a client's call of a name it defines itself
    lib = {"__init__.py": ast.parse("from .cell import grow\n"),
           "cell.py": ast.parse(
               "import numpy as np\nfrom dataclasses import dataclass, field\n\n\n"
               "@dataclass\nclass Seed:\n    kind: str\n    size: int = 1\n"
               "    tags: list = field(default_factory=list)\n"
               "    raw: list = field(repr=False)\n\n\n"
               "class Cell:\n    def __init__(self, n, mode='a'):\n        self.n = n\n\n"
               "    @classmethod\n    def zeros(cls, n, k=1, lift=False):\n"
               "        return cls(n)\n\n"
               "    def _tidy(self, hard=False):\n        pass\n\n\n"
               "def grow(c, rate=1.0, cap=None, *, trim=0):\n"
               "    return grow(c, rate, cap, trim=trim)\n\n\n"
               "def _tend():\n    return np.zeros(3, 4, 5), Seed('x', 2)\n")}
    assert [label for _, label, *_ in defaulted_parameters(lib["cell.py"])] == [
        "Seed(size)", "Seed(tags)", "Cell(mode)", "Cell.zeros(k)", "Cell.zeros(lift)",
        "grow(rate)", "grow(cap)", "grow(trim)"]
    assert [label for _, label in parameters_only_tests_set(lib, [])] == [
        "Seed(tags)", "Cell(mode)", "Cell.zeros(k)", "Cell.zeros(lift)",
        "grow(rate)", "grow(cap)", "grow(trim)"]
    clients = [ast.parse("from cell import Cell\nfrom pkg import cell\n\n\n"
                         "def grow(c, rate, cap):\n    return c\n\n\n"
                         "Cell(1).zeros(2, 3)\nCell(*[1, 'b'])\n"
                         "grow(Cell(1), 2.0, 3)\ncell.grow(Cell(2), trim=1)\n")]
    assert [label for _, label in parameters_only_tests_set(lib, clients)] == [
        "Seed(tags)", "Cell.zeros(lift)", "grow(rate)", "grow(cap)"]
    assert calls(ast.parse("import m\nm.f(1)\nf(1, **k)\nx.g(*a, c=2)\n"), {"g"}) == [
        ("f", 1, None, None)]
    assert calls(clients[0], {"grow"}, {"cell"})[-2:] == [
        ("grow", 1, {"trim"}, None), ("Cell", 1, set(), None)]
    tree = ast.parse("class Cell:\n    def grow(self, rate):\n        return self\n\n"
                     "    @staticmethod\n    def make(n, k):\n        return n\n\n\n"
                     "def seed(a, *rest, b, **more):\n    return a + more\n\n\n"
                     "def _hidden(unused):\n    pass\n")
    assert unread_parameters(tree) == [(2, "Cell.grow(rate)"), (6, "Cell.make(k)"),
                                       (10, "seed(b)"), (10, "seed(rest)")]
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
    assert knob_table("| subcommand | knobs it reads |\n|---|---|\n| `a` | none |\n"
                      "| `b` | `r`, `mesh` |\n\n| `c` | `seed` |\n") == {
        "a": set(), "b": {"r", "mesh"}}
