"""Release-quality checks over the whole package.

* every module and public callable carries a docstring,
* every package ``__all__`` names real attributes,
* no module leaks the global NumPy random state (determinism guard),
* the fleet's transport layer imports nothing from the layers above it,
* ``repro.tracking`` imports nothing above it, and the set of packages
  that import each other can only shrink,
* the entry points reach every module under ``src/repro``,
* a package ``__init__`` re-exports only the listed names, every import
  names the module that defines what it imports, and every backticked
  ``repro.…`` name in the top-level documents resolves,
* no module imports, at module level, a name it never uses,
* every public name is used somewhere, and by product code unless it is
  listed in ``TEST_SUPPORT_NAMES``,
* every defaulted parameter is passed by some product call unless it is
  listed in ``TEST_SUPPORT_OPTIONS``.
"""

import ast
import builtins
import functools
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import repro

SRC_ROOT = pathlib.Path(repro.__file__).parent


def _all_modules():
    names = ["repro"]
    for module_info in pkgutil.walk_packages([str(SRC_ROOT)], prefix="repro."):
        names.append(module_info.name)
    return sorted(names)


MODULES = _all_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize(
    "module_name", [m for m in MODULES if m.count(".") == 1]
)
def test_package_all_exports_exist(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_public_classes_and_functions_documented():
    undocumented = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        if not module.__name__.startswith("repro"):
            continue
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if getattr(obj, "__module__", "") != module_name:
                    continue  # re-exports documented at their origin
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module_name}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented[:20]}"


def test_importing_everything_does_not_touch_global_rng():
    state_before = np.random.get_state()[1].copy()
    for module_name in MODULES:
        importlib.import_module(module_name)
    state_after = np.random.get_state()[1]
    assert np.array_equal(state_before, state_after)


#: the client-side transport layer: ``repro.costmodel.service`` builds the
#: remote engine on these, so none may reach back up into ``costmodel`` —
#: nor sideways into the supervisor, which starts whole services
FLEET_TRANSPORT = ("hashing", "breaker", "pool", "router")


@pytest.mark.parametrize("name", FLEET_TRANSPORT)
def test_fleet_transport_imports_only_downward(name):
    """Every import statement, at any depth (a function-level import is
    still an edge), checked on the syntax tree."""
    tree = ast.parse((SRC_ROOT / "fleet" / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in repro.fleet.{name}"
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    forbidden = sorted(
        module
        for module in imported
        if module.startswith(("repro.costmodel", "repro.fleet.server"))
    )
    assert not forbidden, f"repro.fleet.{name} imports {forbidden}"
    if name == "router":
        # the pool import is module-level: there was never a cycle to dodge
        assert any(
            isinstance(node, ast.ImportFrom) and node.module == "repro.fleet.pool"
            for node in tree.body
        )


def _import_statements(node):
    """Import statements anywhere under ``node`` (a function-level import is
    still an edge), except inside ``if TYPE_CHECKING:`` blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test):
            for alternative in child.orelse:
                yield from _import_statements(alternative)
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _import_statements(child)


def _imports_outside_type_checking(node):
    """Modules named by the :func:`_import_statements` of ``node``."""
    for statement in _import_statements(node):
        if isinstance(statement, ast.Import):
            yield from (alias.name for alias in statement.names)
        else:
            assert statement.level == 0, "relative import"
            yield statement.module


@functools.lru_cache(maxsize=None)
def _package_edges():
    """``{package: {packages it imports}}`` over ``src/repro``; a top-level
    module (``cli``, ``methods``) counts as a package of its own."""
    edges = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        parts = path.relative_to(SRC_ROOT).parts
        package = parts[0] if len(parts) > 1 else path.stem
        for module in _imports_outside_type_checking(ast.parse(path.read_text())):
            names = module.split(".")
            if names[0] == "repro" and len(names) > 1 and names[1] != package:
                edges.setdefault(package, set()).add(names[1])
    return edges


#: what the bottom layer of a tracked run may build on
TRACKING_MAY_IMPORT = {"errors", "utils", "version"}

#: package pairs that import each other.  A ratchet: fix one and delete it
#: here; a new one fails.  Each pair left is an upward edge out of
#: ``repro.costmodel.service``: the codec's row table decodes ``mapping``
#: rows (while the search tools there read ``LayerPPA``), and the
#: transport reaches into ``fleet``.  ``benchmarks/e2e`` imports that
#: module by its path, which pins both until the service can move.
MUTUAL_IMPORT_PAIRS = {
    ("costmodel", "fleet"),
    ("costmodel", "mapping"),
}


def test_tracking_imports_nothing_above_it():
    """The run store, journal and tracker sit under the optimizers, the
    harness, the learned models, the hub and the tracer — never on them."""
    assert _package_edges()["tracking"] <= TRACKING_MAY_IMPORT


def test_mutual_package_imports_only_shrink():
    edges = _package_edges()
    mutual = {
        (package, other)
        for package, imported in edges.items()
        for other in imported
        if package < other and package in edges.get(other, ())
    }
    assert mutual <= MUTUAL_IMPORT_PAIRS, sorted(mutual - MUTUAL_IMPORT_PAIRS)


#: what a user can start: ``python -m repro`` and the ``repro`` console script
ENTRY_POINTS = ("repro.__main__", "repro.cli")


def _module_paths():
    """``{dotted name: path}`` of every module file under ``src/repro``."""
    paths = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        parts = ("repro",) + path.relative_to(SRC_ROOT).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


def _imported_names(name, path):
    """Dotted names ``name``'s import statements may bind, relative ones
    resolved; ``from a import b`` yields ``a`` and ``a.b`` (``b`` may be a
    submodule)."""
    package = name.split(".") if path.name == "__init__.py" else name.split(".")[:-1]
    for statement in _import_statements(ast.parse(path.read_text())):
        if isinstance(statement, ast.Import):
            yield from (alias.name for alias in statement.names)
            continue
        base = statement.module or ""
        if statement.level:
            anchor = package[: len(package) - statement.level + 1]
            base = ".".join(anchor + ([base] if base else []))
        yield base
        yield from (f"{base}.{alias.name}" for alias in statement.names)


def _import_closure(roots, paths):
    """Modules of ``paths`` importing ``roots`` loads: what they import, at
    module level or inside a function, transitively, and — as the import
    system does — every parent package on the way."""
    reached, frontier = set(), list(roots)
    while frontier:
        name = frontier.pop()
        if name in reached or name not in paths:
            continue
        reached.add(name)
        frontier.append(name.rpartition(".")[0])
        frontier.extend(_imported_names(name, paths[name]))
    return reached


def test_entry_points_reach_every_module():
    """Product code is what ``python -m repro`` can load.  A module nothing
    imports is kept alive by its own tests only: delete it, or wire it to a
    command.  There is no allow-list."""
    paths = _module_paths()
    unreached = sorted(set(paths) - _import_closure(ENTRY_POINTS, paths))
    assert not unreached, f"no entry point imports: {unreached}"


#: what a package ``__init__`` imports for others to import through it.
#: Only shrinks: the frozen benchmark harness (``benchmarks/e2e``) imports
#: the five names through their packages, and ``__version__`` is the
#: package's own.  Everything else is imported from its defining module.
PACKAGE_REEXPORTS = {
    "repro.__version__",
    "repro.core.Unico",
    "repro.core.UnicoConfig",
    "repro.tracking.JournalTracker",
    "repro.tracking.RunStore",
    "repro.workloads.get_network",
}


def _bound_by_imports(path):
    """Names ``path``'s module-level import statements bind."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(statement, (ast.Import, ast.ImportFrom))
        for alias in statement.names
    }


def test_packages_reexport_only_what_is_listed():
    found = {
        f"{name}.{bound}"
        for name, path in _module_paths().items()
        if path.name == "__init__.py"
        for bound in _bound_by_imports(path)
    }
    assert found == PACKAGE_REEXPORTS, (
        f"new: {sorted(found - PACKAGE_REEXPORTS)}; "
        f"gone, delete from the list: {sorted(PACKAGE_REEXPORTS - found)}"
    )


def test_imports_name_the_defining_module():
    """``from m import x`` under ``REFERENCE_ROOTS`` names a module ``m``
    that defines ``x``, or a package ``m`` with a submodule ``x``; never a
    module that imports ``x`` from elsewhere.  The frozen benchmark harness
    is read, not checked."""
    repo = SRC_ROOT.parents[1]
    paths = _module_paths()
    bound = {}
    wrong = []
    for root in REFERENCE_ROOTS:
        for path in sorted((repo / root).rglob("*.py")):
            if path.is_relative_to(repo / "benchmarks" / "e2e"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom) or node.module not in paths:
                    continue
                if node.module not in bound:
                    bound[node.module] = _bound_by_imports(paths[node.module])
                wrong += [
                    f"{path.relative_to(repo)}:{node.lineno}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name in bound[node.module]
                    and f"{node.module}.{alias.name}" not in paths
                ]
    assert not wrong, "imported through a module that does not define it:\n" + "\n".join(wrong)


#: the documents whose backticked ``repro.…`` names must resolve
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def _resolves(dotted):
    """Whether ``dotted`` is a module, or an attribute path from the longest
    prefix that is one.  A module is found, not run: only an attribute
    path imports its module (running ``repro.__main__`` would set this
    process's BLAS environment for every later subprocess)."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        try:
            found = importlib.util.find_spec(".".join(parts[:end])) is not None
        except ImportError:  # a prefix is a module, not a package
            found = False
        if not found:
            continue
        if end == len(parts):
            return True
        target = importlib.import_module(".".join(parts[:end]))
        for attribute in parts[end:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("document", DOCUMENTS)
def test_documented_names_resolve(document):
    text = (SRC_ROOT.parents[1] / document).read_text(encoding="utf-8")
    names = {
        name
        for span in re.findall(r"`([^`\n]+)`", text)
        for name in re.findall(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+", span)
    }
    stale = sorted(name for name in names if not _resolves(name))
    assert not stale, f"{document} names what is not there: {stale}"


def _names_in(expression: str):
    return {n.id for n in ast.walk(ast.parse(expression, mode="eval")) if isinstance(n, ast.Name)}


def _unused_module_level_imports(tree):
    """Names a module imports at top level and never mentions again.

    Used means: a ``Name`` anywhere (so also the base of ``np.exp``), a name
    inside a quoted annotation, or an ``__all__`` entry.
    """
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for quoted in ast.walk(annotation) if annotation is not None else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= _names_in(quoted.value)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    """An unused import is start-up time and a false edge in the import
    graph."""
    unused = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for line, name in _unused_module_level_imports(ast.parse(path.read_text())):
            unused.append(f"{path.relative_to(SRC_ROOT)}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_one_append_log_under_every_jsonl_store():
    """``O_APPEND`` is typed out once: the journal's ``AppendLog``, which the
    event journal writes through."""
    holders = [
        str(path.relative_to(SRC_ROOT))
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if "O_APPEND" in path.read_text(encoding="utf-8")
    ]
    assert holders == ["tracking/journal.py"]


#: where a use of a public name counts
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "examples", "docs")


def _used_names(tree):
    """Identifiers ``tree`` uses: a loaded ``Name``, an ``Attribute``, or a
    name inside a quoted annotation.  Imports and ``__all__`` strings are
    not uses."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for quoted in ast.walk(annotation) if annotation is not None else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= _names_in(quoted.value)
    return used


def _public_names(tree):
    """``__all__`` entries, public top-level functions and classes, and the
    public ``def``s in top-level class bodies (as ``Class.name``)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                }
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def test_public_names_are_referenced():
    """A public name nothing uses is code kept alive by being public.  Used
    means a name or attribute in Python under ``REFERENCE_ROOTS``, or an
    identifier in a document there; a method is used when its own name
    is.  There is no allow-list."""
    repo = SRC_ROOT.parents[1]
    used = set()
    for root in REFERENCE_ROOTS:
        for path in sorted((repo / root).rglob("*")):
            if path.suffix == ".py":
                used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
            elif path.suffix == ".md":
                used |= set(re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8")))
    unused = [
        f"{module}.{name}"
        for module, path in _module_paths().items()
        for name in sorted(_public_names(ast.parse(path.read_text(encoding="utf-8"))))
        if name.rpartition(".")[2] not in used
    ]
    assert not unused, f"public names nothing uses: {unused}"


#: where a use of a public name counts as a product use; tests do not
PRODUCT_ROOTS = ("src", "benchmarks", "examples")

#: public names only tests use, kept on purpose.  Only shrinks: an entry
#: that gains a product use, or whose code goes, must leave the set.
TEST_SUPPORT_NAMES = {
    "PPAEngine.evaluate_layer": "the one-layer query 91 test call sites make",
    "MetricsRegistry.counter_value": "how 42 test assertions read one counter",
    "AscendHWConfig.with_updates": "18 tests derive Ascend configs from a default",
    "FleetSupervisor.terminate_replica": "the fault probe of the fleet tests",
    "HttpServer.inflight_requests": "the drain probe of the server tests",
    "HubClient.get_run": "the client of the hub's public GET /runs/<id> route",
    "split_by_run": "repro.learned is kept or dropped as a whole",
    "feature_names": "repro.learned is kept or dropped as a whole",
}


def _public_constants(tree):
    """Public UPPER_CASE names a module assigns at top level."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper() and target.id[0] != "_":
                names.add(target.id)
    return names


@functools.lru_cache(maxsize=None)
def _test_only_names():
    """``{name: modules}`` for the public names and constants of ``src/repro``
    that no Python file under ``PRODUCT_ROOTS`` uses."""
    repo = SRC_ROOT.parents[1]
    used = set()
    for root in PRODUCT_ROOTS:
        for path in sorted((repo / root).rglob("*.py")):
            used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    found = {}
    for module, path in _module_paths().items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _public_names(tree) | _public_constants(tree):
            if name.rpartition(".")[2] not in used:
                found.setdefault(name, []).append(module)
    return found


def test_public_names_have_a_product_use():
    """A public name only tests select is code kept alive by its tests:
    delete it with them, or list it in ``TEST_SUPPORT_NAMES`` with why."""
    unlisted = sorted(
        f"{module}.{name}"
        for name, modules in _test_only_names().items()
        if name not in TEST_SUPPORT_NAMES
        for module in modules
    )
    assert not unlisted, "public names only tests use:\n" + "\n".join(unlisted)


def test_test_support_names_are_still_test_only():
    stale = sorted(set(TEST_SUPPORT_NAMES) - set(_test_only_names()))
    assert not stale, f"product code uses these now, or they are gone: {stale}"


#: modules the option scan leaves alone: ``repro.learned`` is kept or
#: dropped as a whole, and the network builders are to become data
OPTION_SCAN_SKIPS = ("repro.learned", "repro.workloads.networks")

#: defaulted parameters no product call passes, kept on purpose; each is a
#: fake-substitution seam, a deployment setting or a durability flush
#: (safety code, not an option to simplify away).  Only shrinks: an entry
#: that gains a product caller, or whose parameter goes, must leave.
TEST_SUPPORT_OPTIONS = {
    "repro.experiments.harness.resume_run(fsync)": (
        "the durability flush: a library caller journals a long cycle-accurate "
        "run with one fsync per write so a power loss keeps every line; it "
        "reaches launch -> JournalTracker -> EventJournal -> AppendLog"
    ),
    "repro.fleet.breaker.CircuitBreaker(now)": (
        "the fake-clock seam: tests step a breaker through its cooldown "
        "without sleeping"
    ),
    "repro.core.multiworkload.multi_workload_trial_factory(clock)": (
        "the injected-clock seam: a test runs the multi-workload trials "
        "on one engine's clock to compare them with that engine's"
    ),
}


def _bare(node):
    """The name an expression ends in: ``f`` of ``f`` and of ``a.b.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node):
    return any(
        _bare(decorator.func if isinstance(decorator, ast.Call) else decorator) == "dataclass"
        for decorator in node.decorator_list
    )


def _is_frozen(node):
    """Whether ``node`` is a ``@dataclass(frozen=True)``: no ``x.field = ...``
    can set its fields."""
    return any(
        isinstance(decorator, ast.Call)
        and _bare(decorator.func) == "dataclass"
        and any(
            keyword.arg == "frozen"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in decorator.keywords
        )
        for decorator in node.decorator_list
    )


def _defaulted(function, bound):
    """``(name, positional index or None)`` of ``function``'s defaulted
    parameters; ``bound`` leaves ``self`` / ``cls`` out of the count."""
    args = function.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
    first = len(positional) - len(args.defaults)
    return [(arg.arg, i) for i, arg in enumerate(positional) if i >= first] + [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _defaulted_fields(node):
    """``(name, index)`` of a dataclass's defaulted ``__init__`` fields."""
    fields = [
        item
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.unparse(item.annotation)
        and not (
            isinstance(item.value, ast.Call)
            and any(keyword.arg == "init" for keyword in item.value.keywords)
        )
    ]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def _options(tree):
    """``(callee, owner, name, positional index, field)`` for each defaulted
    parameter of a top-level function or method and each defaulted field
    of a top-level dataclass.  A function's callee is its name, a method's
    ``(class, name)``, and an ``__init__``'s or a field's the class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for name, index in _defaulted(node, False):
                yield node.name, node.name, name, index, False
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
            for name, index in _defaulted_fields(node):
                yield node.name, node.name, name, index, True
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(_bare(d) == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__":
                    callee, owner = node.name, node.name
                else:
                    callee, owner = (node.name, item.name), f"{node.name}.{item.name}"
                for name, index in _defaulted(item, not static):
                    yield callee, owner, name, index, False


class _Passes(ast.NodeVisitor):
    """What the calls of one file pass, as ``passed[callee]``: parameter
    names, positional indices, ``("*", i)`` for a ``*`` splat at ``i`` and
    ``"**"`` for a ``**`` splat.

    ``obj.m(...)`` calls every method ``m``; ``Cls.m(...)``,
    ``super().m(...)``, ``cls(...)`` and ``functools.partial(f, ...)`` name
    their callee.  A call through a local name or a subscript
    (``config_cls(...)``, ``TOOLS[name](...)``) is ``dynamic``: it reaches
    every callable the file keeps in a container or a variable; a
    ``getattr(obj, name)(...)`` call reaches every function or method a
    string argument of a call in the file names.  A call that forwards the enclosing
    function's own ``*args`` / ``**kwargs`` passes on what that function's
    callers pass: an edge in ``forwards``.
    """

    def __init__(self, names, classes, forwards):
        self.names, self.classes, self.forwards = names, classes, forwards
        self.passed, self.dynamic, self.kept, self.assigned = {}, [], set(), set()
        self.by_name, self.strings = [], set()
        self.scopes = []

    def _scoped(self, node):
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _enclosing(self, kind):
        return next((scope for scope in reversed(self.scopes) if isinstance(scope, kind)), None)

    def _keep(self, node):
        if isinstance(node, (ast.Name, ast.Attribute)):
            self.kept.add(_bare(node))

    def visit_Assign(self, node):
        self._keep(node.value)
        self.assigned |= {t.attr for t in node.targets if isinstance(t, ast.Attribute)}
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.target, ast.Attribute):
            self.assigned.add(node.target.attr)
        self.generic_visit(node)

    def visit_Tuple(self, node):
        for element in node.elts:
            self._keep(element)
        self.generic_visit(node)

    visit_List = visit_Set = visit_Tuple

    def visit_Dict(self, node):
        for value in node.values:
            self._keep(value)
        self.generic_visit(node)

    def _callee(self, func, args):
        """``(callee, args)``; ``callee`` is ``None`` for a subscript."""
        name = _bare(func)
        owner = func.value if isinstance(func, ast.Attribute) else None
        cls = self._enclosing(ast.ClassDef)
        if name == "partial" and args:
            return self._callee(args[0], args[1:])
        if name == "cls" and cls is not None:
            return cls.name, args
        if isinstance(owner, ast.Call) and _bare(owner.func) == "super" and cls is not None:
            return ("super", cls.name, name), args
        if isinstance(owner, ast.Name) and owner.id in self.classes:
            return (owner.id if name == "__init__" else (owner.id, name)), args
        return name, args

    def visit_Call(self, node):
        callee, args = self._callee(node.func, list(node.args))
        by_name = isinstance(node.func, ast.Call) and _bare(node.func.func) == "getattr"
        self.strings |= {
            value.value
            for value in [*node.args, *(keyword.value for keyword in node.keywords)]
            if isinstance(value, ast.Constant)
            and isinstance(value.value, str)
            and value.value.isidentifier()
        }
        function = self._enclosing((ast.FunctionDef, ast.AsyncFunctionDef))
        own = set()
        if function is not None:
            own = {arg.arg for arg in (function.args.vararg, function.args.kwarg) if arg}
        passes = set()
        for index, arg in enumerate(args):
            if not isinstance(arg, ast.Starred):
                passes.add(index)
            elif by_name or _bare(arg.value) not in own:
                passes.add(("*", index))
        for keyword in node.keywords:
            if keyword.arg is not None:
                passes.add(keyword.arg)
            elif _bare(keyword.value) not in own:
                passes.add("**")
            else:
                source = function.name
                cls = self._enclosing(ast.ClassDef)
                if cls is not None and cls is self.scopes[-2]:
                    source = cls.name if source == "__init__" else (cls.name, source)
                self.forwards.append((source, callee))
        if by_name:
            self.by_name.append(passes)
        elif callee is None or (
            isinstance(node.func, ast.Name)
            and callee not in self.names
            and not hasattr(builtins, callee)
        ):
            self.dynamic.append(passes)
        else:
            self.passed.setdefault(callee, set()).update(passes)
        self.generic_visit(node)


@functools.lru_cache(maxsize=None)
def _options_census():
    """``(defaulted, unpassed)``: every option the scan sees under
    ``src/repro`` as ``module.Owner(name)``, and those no call under
    ``PRODUCT_ROOTS`` passes by keyword, by position or through a splat.
    A dataclass field is also set by a keyword to a subclass's constructor
    and, unless the dataclass is frozen, by assigning the attribute.
    Private (``_name``) parameters are state, not options."""
    repo = SRC_ROOT.parents[1]
    trees = {
        module: ast.parse(path.read_text(encoding="utf-8"))
        for module, path in _module_paths().items()
    }
    bases, defines, frozen = {}, {}, set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_bare(base) for base in node.bases]
                if _is_frozen(node):
                    frozen.add(node.name)
                defines[node.name] = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                } | ({"__init__"} if _is_dataclass(node) else set())
    names = set(bases) | {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def subclasses(cls):
        """Every class under ``src/repro`` that derives from ``cls``."""
        found = set()
        for other in bases:
            parents, seen = list(bases[other]), set()
            while parents:
                parent = parents.pop()
                if parent == cls:
                    found.add(other)
                    break
                if parent not in seen:  # two classes may share a name
                    seen.add(parent)
                    parents.extend(bases.get(parent, ()))
        return found

    def defining(cls, method):
        """The class whose ``method`` ``cls.method`` is, by first bases."""
        while cls in bases and method not in defines[cls] and bases[cls]:
            cls = bases[cls][0]
        return cls

    def resolve(callee):
        if isinstance(callee, tuple) and callee[0] == "super":
            _, cls, method = callee
            owners = [defining(base, method) for base in bases.get(cls, [])]
            return owners if method == "__init__" else [(owner, method) for owner in owners]
        if isinstance(callee, tuple):
            return [(defining(*callee), callee[1])]
        if callee in bases:
            return [defining(callee, "__init__")]
        return [callee]

    passed, forwards, assigned = {}, [], set()
    for root in PRODUCT_ROOTS:
        for path in sorted((repo / root).rglob("*.py")):
            visitor = _Passes(names, set(bases), forwards)
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            assigned |= visitor.assigned
            reaching = (
                list(visitor.passed.items())
                + [(kept, passes) for passes in visitor.dynamic for kept in visitor.kept & names]
                + [(named, passes) for passes in visitor.by_name for named in visitor.strings]
            )
            for callee, passes in reaching:
                for reached in resolve(callee):
                    passed.setdefault(reached, set()).update(passes)
    changed = True
    while changed:  # a forwarder passes on the names its callers pass it
        changed = False
        for source, target in forwards:
            sent = {p for p in passed.get(source, ()) if isinstance(p, str)}
            for reached in resolve(target) if target is not None else ():
                before = len(passed.setdefault(reached, set()))
                passed[reached] |= sent
                changed |= len(passed[reached]) != before
    defaulted, unpassed = [], []
    for module, tree in trees.items():
        if module.startswith(OPTION_SCAN_SKIPS):
            continue
        for callee, owner, name, index, field in _options(tree):
            if name.startswith("_"):
                continue
            defaulted.append(f"{module}.{owner}({name})")
            sent = passed.get(callee, set())
            if isinstance(callee, tuple):  # obj.name(...) may call it too
                sent = sent | passed.get(callee[1], set())
            if field:  # a subclass's constructor sets the fields it inherits
                for subclass in subclasses(callee):
                    sent = sent | {p for p in passed.get(subclass, ()) if p == name}
            if not (
                name in sent
                or "**" in sent
                or (field and callee not in frozen and name in assigned)
                or index in sent
                or any(type(p) is tuple and index is not None and index >= p[1] for p in sent)
            ):
                unpassed.append(defaulted[-1])
    return defaulted, unpassed


def test_parameters_have_a_product_caller():
    """A default only tests override is an option only tests select: each
    doubles what the tests must cover.  Make it a module constant at its
    value (deleting what only other values reached), or list it in
    ``TEST_SUPPORT_OPTIONS`` with why.  The scan matches callees by name:
    ``obj.m(...)`` counts for every method ``m``."""
    unlisted = [o for o in _options_census()[1] if o not in TEST_SUPPORT_OPTIONS]
    assert not unlisted, "options no product call passes:\n" + "\n".join(unlisted)


def test_test_support_options_are_still_unpassed():
    stale = sorted(set(TEST_SUPPORT_OPTIONS) - set(_options_census()[1]))
    assert not stale, f"a product call passes these now, or they are gone: {stale}"
