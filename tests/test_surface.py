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
Every float argument of the public surface, the background methods
included, is checked: a bad value is a ValueError that names it, or a
documented value.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np

import becosmo
from becosmo.condensate import AtomSpecies, CondensateSpec, TrapGeometry, thomas_fermi
from becosmo.scaling import LinearExpansion, integrate_scale_factor
from becosmo.threed import analytic_evolution, freezing_time

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


def test_longdouble_only_in_specfun():
    # longdouble's width differs by platform (80-bit on x86-64 Linux, plain
    # double on Windows), so code that names it behaves differently across
    # platforms; only the special-function series, which state their error
    # in its eps, use it. A name, an attribute, an imported alias or a dtype
    # string counts
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "specfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "asname", None),
                     getattr(node, "value", None)]
            if "longdouble" in names:
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not offenders, f"modules other than specfun that name longdouble: {offenders}"


def test_one_json_writer():
    # every JSON file goes through scenarios._write_json, which builds the
    # bytes of json.dumps(indent=2, sort_keys=True) itself; a json.dump or
    # json.dumps call, or either name imported from json, would be a second
    # writer
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner, names = node.func.value, [node.func.attr]
                if not (isinstance(owner, ast.Name) and owner.id == "json"):
                    continue
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} json.{name}" for name in names
                          if name in ("dump", "dumps")]
    assert not offenders, f"JSON written outside scenarios._write_json: {offenders}"


def test_collocation_core_is_physics_free():
    # the core solves phi'' = c_phi phi + c_phi' phi' for coefficients read
    # from a callable; the mode equation, its wavenumber and its background
    # stay with the caller, so another equation can share the core
    tree = ast.parse((SRC / "threed.py").read_text())
    cores = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in ("_propagators", "_solve_blocks")}
    assert len(cores) == 2, f"threed defines only {sorted(cores)}"
    offenders = []
    for name, function in cores.items():
        for node in ast.walk(function):
            field = {ast.Name: "id", ast.arg: "arg", ast.Attribute: "attr"}.get(type(node))
            if field and getattr(node, field) in ("kappa", "expansion", "c0"):
                offenders.append(f"{name}:{node.lineno} {getattr(node, field)}")
    assert not offenders, f"physics named in the collocation core: {offenders}"


def test_argument_checks_live_in_condensate():
    # condensate states every argument rule once; a module-level check_* or
    # _check_* elsewhere would be a second statement of one (methods such as
    # ScaleTrajectory._check_range are exempt)
    offenders = [f"{path.name}:{node.lineno} {node.name}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "condensate.py"
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.lstrip("_").startswith("check_")]
    assert not offenders, f"argument checks outside condensate: {offenders}"


# -- the argument contract ----------------------------------------------------

_ALPHA = 0.8
_SPEC = CondensateSpec(AtomSpecies("sodium", 3.8e-26, 2.75e-9),
                       TrapGeometry(2, 2 * math.pi * 10.0, 2 * math.pi * 790.0), 1e5)
# A valid argument for each parameter name; floats (and float arrays) are the
# ones the walker replaces by each bad value.
_VALID = {
    "alpha": _ALPHA, "allow_zero": False, "analysis": ["derive"], "argv": [],
    "atom_number": 1e5, "b": 1.5, "background": LinearExpansion(_ALPHA), "bdot": 0.5,
    "c0": 1.0, "condensate": _SPEC, "config": None, "count": 2, "coupling": 1.0,
    "data": {}, "derived": thomas_fermi(_SPEC), "dimension": 2,
    "evolution": analytic_evolution(1.0, [1.0, 2.0], _ALPHA), "expansion_mode": "free",
    "g2d": 1.0, "g3d": 1.0, "g_si": 1.0, "held": False, "k": 1.0, "kappa": 1.0,
    "kmax": 1.0, "longitudinal_frequency": 10.0, "m": 1.0, "mass": 3.8e-26, "mu": 1.0,
    "n_samples": 11, "name": "sodium", "nu": 2.0 / 3.0, "numeric": None, "omega0": 1.0,
    "omega_xi": 100.0, "omega_z": 100.0, "out_dir": None, "rho0": 1.0,
    "rho0_initial": 1.0, "scattering_length": 1e-9, "sound_speed": 1.0,
    "source": "sodium-q2d", "spec": _SPEC, "species": _SPEC.species, "t": 1.0,
    "t_max": 10.0, "tolerance": 1e-10, "trajectory": integrate_scale_factor(1.0, 2, 10.0, 11),
    "transverse_frequency": 100.0, "trap": _SPEC.trap, "x": 1.0, "xi": 1.0,
}
# Arguments one function needs otherwise: the name check_frequency reports
# and a deep start of a kappa = 8 mode.
_VALID_FOR = {
    "check_frequency": {"name": "omega0"},
    "integrate_mode": {"kappa": 8.0, "t_start": 0.13, "t_end": freezing_time(8.0, _ALPHA)},
}
# Results, exceptions and ScaleTrajectory (built by integrate_scale_factor):
# the surface takes no float input through them.
_NOT_INPUTS = {"ConfigError", "DerivedParams", "FrozenSpectrum3D", "ModeEvolution",
               "RunReport", "ScaleTrajectory", "Spectrum", "StageError"}
_BAD = (-1.0, 0.0, math.nan, math.inf)
# (function, parameter, bad value): the value it returns instead of a
# ValueError, because zero is physical there.
_DOCUMENTED = {
    ("analytic_scale_2d", "t", 0.0): [1.0, 0.0, 0.0],    # release: b = 1, at rest
    ("analytic_scale_3d", "t", 0.0): [1.0, 0.0, 0.0],
    ("apparent_horizon", "t", 0.0): math.inf,            # bdot = 0 at release
    ("particle_horizon", "t", 0.0): math.pi / 2.0,       # (2 c0/(D alpha)) arcsin 1
    ("bogoliubov_frequency", "k", 0.0): 0.0,             # the uniform mode
    ("density_spectrum_2d", "kappa", 0.0): 0.0,
    ("windowed_contrast", "kappa", 0.0): 0.0,
    ("spectrum_2d_grid", "kappa", 0.0): 0.0,             # its values
    ("mode_coefficients", "kappa", 0.0): [0.0, -1.0],    # the zero mode, -3 bdot/b
    ("mode_coefficients", "bdot", 0.0): [-1.0 / 1.5**5, 0.0],  # a background at rest
    ("ScaleTrajectory.b", "t", 0.0): 1.0,                # the free 2D run at release
    ("ScaleTrajectory.bdot", "t", 0.0): 0.0,
    ("ScaleTrajectory.clock", "t", 0.0): 0.0,
    ("ScaleTrajectory.horizon_integral", "t", 0.0): math.pi / 2.0,  # pi/(D alpha)
    ("ScaleTrajectory.time_at", "b", math.inf): math.inf,  # never reached
}
# hankel1's order rule (integer orders, |nu| >= 2) names nu inside its message
_MESSAGE_FOR = {("hankel1", "nu"): r"(integer )?order nu="}


def _surface():
    """name -> callable: what becosmo re-exports, every unprefixed module
    function and, as Class.method, every public method of a background."""
    found = {name: obj for name, obj in vars(becosmo).items()
             if callable(obj) and not name.startswith("_") and name not in _NOT_INPUTS}
    for info in pkgutil.iter_modules(becosmo.__path__):
        module = importlib.import_module(f"becosmo.{info.name}")
        found.update({name: obj for name, obj in vars(module).items()
                      if inspect.isfunction(obj) and obj.__module__ == module.__name__
                      and not name.startswith("_")})
    for background in (_VALID["trajectory"], _VALID["background"]):
        found.update({f"{type(background).__name__}.{name}": getattr(background, name)
                      for name in dir(background) if not name.startswith("_")
                      and inspect.ismethod(getattr(background, name))})
    return found


def _is_float(value) -> bool:
    return isinstance(value, float) or (isinstance(value, np.ndarray)
                                        and value.dtype == float)


def _with_bad(valid, bad):
    """valid with bad in its place, or in the last element of an array."""
    if isinstance(valid, float):
        return bad
    return np.concatenate([valid[:-1], [bad]])


def _outcome(function, arguments):
    """The value of a call, or the exception it raised, warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return function(**arguments)
        except Exception as exc:  # any kind but ValueError is a finding
            return exc


def test_every_float_argument_is_checked():
    failures, documented = [], set()
    for name, function in sorted(_surface().items()):
        params = [p for p in inspect.signature(function).parameters.values()
                  if p.kind is not p.VAR_KEYWORD]
        table = {**_VALID, **_VALID_FOR.get(name, {})}
        missing = [p.name for p in params if p.name not in table]
        if missing:
            failures.append(f"{name}: no valid argument for {missing}")
            continue
        valid = {p.name: table[p.name] for p in params}
        floats = [key for key, value in valid.items() if _is_float(value)]
        first = _outcome(function, valid) if floats else None
        if isinstance(first, Exception):
            failures.append(f"{name}: the valid call raised {first!r}")
            continue
        for key in floats:
            for bad in _BAD:
                case = f"{name}({key}={bad})"
                got = _outcome(function, {**valid, key: _with_bad(valid[key], bad)})
                if (name, key, bad) in _DOCUMENTED:
                    documented.add((name, key, bad))
                    value = getattr(got, "values", got)
                    if isinstance(got, Exception) or not np.array_equal(
                            np.asarray(value, dtype=float), _DOCUMENTED[name, key, bad]):
                        failures.append(f"{case} gave {got!r}, not the documented value")
                elif not isinstance(got, ValueError):
                    failures.append(f"{case} gave {got!r}, not a ValueError")
                elif not re.match(_MESSAGE_FOR.get((name, key), rf"{key}\b"), str(got)):
                    failures.append(f"{case}: the message {str(got)!r} does not name {key}")
    assert not failures, "\n".join(failures)
    assert documented == set(_DOCUMENTED), "documented cases the walker never met"
