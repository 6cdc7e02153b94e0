"""Release-quality checks over the whole package.

* every module and public callable carries a docstring,
* every package ``__all__`` names real attributes,
* no module leaks the global NumPy random state (determinism guard),
* the fleet's transport layer imports nothing from the layers above it,
* no module imports, at module level, a name it never uses.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

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
