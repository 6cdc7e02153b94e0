"""Release-quality checks over the whole package.

* every module and public callable carries a docstring,
* every package ``__all__`` names real attributes,
* no module leaks the global NumPy random state (determinism guard),
* the fleet's transport layer imports nothing from the layers above it,
* ``repro.tracking`` imports nothing above it, and the set of packages
  that import each other can only shrink,
* the entry points reach every module under ``src/repro``,
* no module imports, at module level, a name it never uses,
* every public name is used somewhere, and by product code unless it is
  listed in ``TEST_SUPPORT_NAMES``.
"""

import ast
import functools
import importlib
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
#: ``repro.costmodel.service``: the codec's row table reaches into
#: ``mapping`` and ``camodel``, the transport into ``fleet``.
#: ``benchmarks/e2e`` imports that module by its path.
MUTUAL_IMPORT_PAIRS = {
    ("camodel", "costmodel"),
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
    graph.  ``__init__`` modules are exempt: their imports are re-exports."""
    unused = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path.name == "__init__.py":
            continue
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
