"""Public-surface guard: every public name earns its place.

A public function or class of a becosmo module must be used by the package
itself (outside its own definition and the package exports), by the
benchmark in bench/, or by the README. Otherwise only tests call it, and it
is a dead helper; a reference implementation that only tests compare the
package against lives in tests/references.py. Likewise every field of a
public dataclass must be read somewhere as .<field>, and every public
attribute of a background (ScaleTrajectory, LinearExpansion) must be read by
code outside its own class. The names the
benchmark's tracer patches by name must exist where it looks them up.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import becosmo
from becosmo.scaling import LinearExpansion, integrate_scale_factor

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "becosmo"


def _public_names():
    """(module, name) of every public function and class a module defines."""
    for info in pkgutil.iter_modules(becosmo.__path__):
        module = importlib.import_module(f"becosmo.{info.name}")
        for name, obj in vars(module).items():
            if ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__ and not name.startswith("_")):
                yield info.name, name


def _users(module: str, name: str) -> list[str]:
    """Files outside tests that name `name`, not counting its definition."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class) {re.escape(name)}\b")
    users = []
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
                 ROOT / "README.md"]:
        if path.name == "__init__.py" and path.parent == SRC:
            continue
        lines = path.read_text().splitlines()
        if path == SRC / f"{module}.py":
            lines = [line for line in lines if not definition.match(line)]
        if any(word.search(line) for line in lines):
            users.append(path.name)
    return users


def test_every_public_name_is_used():
    unused = [f"{module}.{name}" for module, name in _public_names()
              if not _users(module, name)]
    assert not unused, f"public names only tests use: {unused}"


def _public_dataclasses():
    """(module, class) of every public dataclass a module defines."""
    for module, name in _public_names():
        cls = getattr(importlib.import_module(f"becosmo.{module}"), name)
        if dataclasses.is_dataclass(cls):
            yield module, cls


def test_every_dataclass_field_is_read():
    # a field nothing reads as .<field> is computed, stored and thrown away
    texts = [path.read_text() for path in [
        *sorted(SRC.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")), ROOT / "README.md"]
        if path != Path(__file__)]
    unread = [f"{module}.{cls.__name__}.{f.name}"
              for module, cls in _public_dataclasses() for f in dataclasses.fields(cls)
              if not any(re.search(rf"\.{f.name}\b", text) for text in texts)]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def _attribute_reads(skipped_class: str) -> set[str]:
    """Names read as .<name> by the package or the bench, outside the body
    of the class named skipped_class."""
    reads = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]:
        nodes = [ast.parse(path.read_text())]
        while nodes:
            node = nodes.pop()
            if isinstance(node, ast.ClassDef) and node.name == skipped_class:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            nodes.extend(ast.iter_child_nodes(node))
    return reads


def test_every_background_attribute_is_read():
    # an attribute that only its own class or the tests read is computed,
    # stored and thrown away
    backgrounds = (integrate_scale_factor(1.0, 3, 10.0, n_samples=2), LinearExpansion(1.0))
    unread = []
    for background in backgrounds:
        name = type(background).__name__
        reads = _attribute_reads(name)
        unread += [f"{name}.{attr}" for attr in vars(background)
                   if not attr.startswith("_") and attr not in reads]
    assert not unread, f"background attributes nothing else reads: {unread}"


def _bench_tracing_table(name: str) -> ast.Dict:
    """The dict literal assigned to name in bench/tracing.py, read unexecuted."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return node.value
    raise AssertionError(f"bench/tracing.py assigns no dict {name}")


def test_bench_lookup_methods_exist():
    # the tracer patches each through vars(cls)[method]: a method that has
    # gone, or moved out of the class body, is a KeyError in --trace runs
    scaling = importlib.import_module("becosmo.scaling")
    lookups = ast.literal_eval(_bench_tracing_table("LOOKUP_METHODS"))
    missing = [f"{cls}.{method}" for cls, methods in lookups.items()
               for method in methods
               if not inspect.isfunction(vars(getattr(scaling, cls, object)).get(method))]
    assert lookups and not missing, f"lookup methods the bench patches are gone: {missing}"


def test_bench_result_hooks_name_functions():
    # each key is the span name layer.function of a function the tracer wraps
    missing = []
    for key in _bench_tracing_table("RESULT_HOOKS").keys:
        module, _, function = ast.literal_eval(key).partition(".")
        owner = importlib.import_module(f"becosmo.{module}")
        defined = getattr(owner, function, None)
        if not (inspect.isfunction(defined) and defined.__module__ == owner.__name__):
            missing.append(f"{module}.{function}")
    assert not missing, f"functions the bench result hooks name are gone: {missing}"


def test_no_module_imports_scipy():
    # the package runs on numpy and the standard library; scipy is for tests
    # and the bench only. Each module is parsed, not imported, so an import
    # inside a function or a branch counts too
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {module}" for module in modules
                          if module.split(".")[0] == "scipy"]
    assert not offenders, f"modules under src/ that import scipy: {offenders}"
