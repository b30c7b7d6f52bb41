"""Mutation sweep: which one-token changes to a module does tier-1 miss?

Each mutant changes one operator or one numeric constant of a becosmo module:
+ and - swap, * and / swap, a comparison moves to its neighbour (< and <=,
> and >=, == and !=), an integer grows by one and a float by 1 % (0.0
becomes 1e-3). Docstrings and other strings are left alone.
Every mutant is written, as ast.unparse gives it, into a private copy of the
tree, and tier-1 runs on it with -x, the module's own test file first. A
mutant is killed when the suite fails or runs past the time limit, and
survives when it passes. The unmutated module, unparsed the same way, must
pass first.

    python tests/mutation_sweep.py threed scaling
    python tests/mutation_sweep.py threed --only _phase_edges,mode_coefficients

Two mutants run at a time, each in its own copy of the tree under a fresh
temporary directory. It prints killed/total per module and one line per
survivor: module, line, enclosing function and the change. pytest does not
collect this file; it is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".bench_work", ".benchmarks", "*.egg-info")
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
MEMORY_LIMIT = 3 << 30          # address space of one test run, in bytes
JOBS = 2                        # test runs at a time


def _functions(tree):
    """Map each node id to the name of its innermost enclosing def."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else name
            if isinstance(child, ast.FunctionDef) and isinstance(node, ast.ClassDef):
                inner = f"{node.name}.{child.name}"
            owner[id(child)] = inner
            visit(child, inner)
    visit(tree, "<module>")
    return owner


def _sites(tree):
    """(node, field, index, new value, description) of every mutation."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            sites.append((node, "op", None, new(),
                          f"{type(node.op).__name__} -> {new.__name__}"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]
                    sites.append((node, "ops", i, new(),
                                  f"{type(op).__name__} -> {new.__name__}"))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
              and id(node) not in docstrings):
            value = node.value
            new = value + 1 if isinstance(value, int) else (value * 1.01 if value else 1e-3)
            sites.append((node, "value", None, new, f"{value!r} -> {new!r}"))
    return sites


def mutants(path: Path):
    """(line, function, description, source) of every mutant of a module."""
    text = path.read_text()
    for k in range(len(_sites(ast.parse(text)))):
        tree = ast.parse(text)          # a fresh tree per mutant, walked alike
        node, field, index, new, description = _sites(tree)[k]
        function = _functions(tree).get(id(node), "<module>")
        if index is None:
            setattr(node, field, new)
        else:
            getattr(node, field)[index] = new
        yield node.lineno, function, description, ast.unparse(tree)


def _limit_memory():
    os.setsid()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_suite(tree: Path, first: str, timeout: float) -> str:
    """'pass', 'fail' or 'timeout' of tier-1 with -x in a copy of the tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    order = [first] if (tree / first).exists() else []
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *order, "tests"], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, preexec_fn=_limit_memory)
    try:
        return "pass" if proc.wait(timeout=timeout) == 0 else "fail"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        return "timeout"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="becosmo module names, e.g. threed")
    parser.add_argument("--only", default="", help="comma-separated functions to mutate")
    args = parser.parse_args(argv)
    only = set(filter(None, args.only.split(",")))
    work = Path(tempfile.mkdtemp(prefix="mutation-"))
    copies = [work / f"tree{j}" for j in range(JOBS)]
    free = queue.SimpleQueue()          # the copies no mutant is using
    for copy in copies:
        shutil.copytree(ROOT, copy, ignore=SKIP)
        free.put(copy)
    try:
        for module in args.modules:
            relative = Path("src") / "becosmo" / f"{module}.py"
            original = ast.unparse(ast.parse((ROOT / relative).read_text()))
            first = f"tests/test_{module}.py"
            for copy in copies:
                (copy / relative).write_text(original)
            start = time.perf_counter()
            if run_suite(copies[0], first, 600.0) != "pass":
                print(f"{module}: the unparsed module fails tier-1; no sweep")
                return 1
            timeout = max(60.0, 4.0 * (time.perf_counter() - start))
            todo = [m for m in mutants(ROOT / relative) if not only or m[1].split(".")[-1] in only]

            def judge(mutant):
                copy = free.get()
                try:
                    (copy / relative).write_text(mutant[3])
                    return mutant, run_suite(copy, first, timeout)
                finally:
                    (copy / relative).write_text(original)
                    free.put(copy)
            with ThreadPoolExecutor(max_workers=JOBS) as pool:
                results = list(pool.map(judge, todo))
            survivors = [m for m, outcome in results if outcome == "pass"]
            print(f"{module}: {len(todo) - len(survivors)}/{len(todo)} killed "
                  f"in {time.perf_counter() - start:.0f} s")
            for line, function, description, _ in survivors:
                print(f"  survivor {module}.py:{line} {function}: {description}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
