#!/usr/bin/env python3
"""becosmo benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 bench/run.py --workload scenario-sweep --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs the workload
untraced for half the time, then traced for the other half, and reports the
per-layer metrics. The last line of standard output is the JSON result; the
lines before it print every metric with its unit, the output digest and the
machine. The metric names and units come from BENCHMARK.json.

End-to-end times are scaled to a reference CPU speed: a fixed scipy kernel
(workloads.SpeedGauge) is timed between ops and between set-up probes, and
each op or probe time is multiplied by REFERENCE_KERNEL_S over the mean of
the kernel samples around it. The raw figures are printed and recorded too.

The package is imported from ./src of the checkout the script sits in; the
run fails without a result when those sources are missing.
"""

import os

# One thread everywhere, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
PROBE_TIMEOUT_S = 60.0
P90_MIN_OPS = 100


def _use_checkout_sources() -> None:
    """Import becosmo from ./src, here and in every child process."""
    if not (SRC / "becosmo" / "__init__.py").is_file():
        sys.exit(f"benchmark: no becosmo sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if paths[0] != str(SRC):
        os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in paths if p])


def _probe(workload: str, seed: int) -> None:
    """Set-up of a workload process: import the package, make the inputs."""
    import workloads
    workloads.generate(workload, seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a workload process to its first op, repeated:
    raw, and at reference speed."""
    from workloads import SpeedGauge
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", workload, "--seed", str(seed)]
    gauge = SpeedGauge()
    times, marks = [], []
    for _ in range(SETUP_REPEATS):
        marks.append(gauge.mark(every=0.0))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    gauge.close()
    return times, [gauge.scaled(t, m) for t, m in zip(times, marks)]


def measure_imports() -> dict[str, float]:
    """Cumulative import ms of becosmo and scipy.optimize (-X importtime)."""
    samples: dict[str, list[float]] = {"becosmo": [], "scipy.optimize": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import becosmo"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if name.strip() in samples and name.strip() not in found:
                found[name.strip()] = int(cumulative) / 1e3
        for name, values in samples.items():
            values.append(found.get(name, 0.0))
    return {f"import.{name.replace('.', '_')}_ms": statistics.median(v)
            for name, v in samples.items()}


def _read(path: Path, fallback: str = "") -> str:
    try:
        return path.read_text()
    except OSError:
        return fallback


def environment(seed: int) -> dict:
    import hashlib

    import numpy
    import scipy
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "becosmo").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor())
    return {"seed": seed, "git_commit": commit, "source_sha256": source.hexdigest(),
            "nproc": os.cpu_count(), "pinned_cpu": min(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def _summary(op_seconds: list[float], setup_seconds: list[float]) -> dict:
    return {"op_ms_p50": _median_ms(op_seconds),
            "ops_per_s": len(op_seconds) / sum(op_seconds) if op_seconds else 0.0,
            "setup_s": statistics.median(setup_seconds)}


def _measure(workload: str, seed: int, pool: list, seconds: float, work: Path,
             record: dict):
    """Untraced run: set-up probes, then the closed loop."""
    import workloads
    setup, setup_scaled = measure_setup(workload, seed)
    loop = workloads.run_loop(workload, pool, seconds, work)
    metrics = _summary(loop.scaled, setup_scaled)
    rss_kb = loop.child_rss_kb if workload == "presets-cli" else workloads.self_rss_kb()
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    if len(loop.scaled) >= P90_MIN_OPS:
        record["op_ms_p90"] = statistics.quantiles(loop.scaled, n=10)[8] * 1e3
    record.update(raw=_summary(loop.seconds, setup), setup_samples_s=setup,
                  op_seconds=list(zip(loop.indices, loop.seconds)),
                  kernel_seconds=loop.kernel_seconds)
    return metrics, [loop]


def _trace(workload: str, seed: int, pool: list, seconds: float, work: Path,
           record: dict):
    """Traced run: untraced half, traced half on the same inputs, layers."""
    import tracing
    import workloads
    metrics = measure_imports()
    plain = workloads.run_loop(workload, pool, seconds / 2, work / "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run_loop(workload, pool, seconds / 2, work / "traced", tracer)
    finally:
        tracer.uninstall()
    record["leftover_wrappers"] = tracing.installed_wrappers()
    record["changed_by_tracing"] = [i for i in plain.digests.keys() & traced.digests.keys()
                                    if plain.digests[i] != traced.digests[i]]
    metrics.update(tracing.layer_metrics(tracer, traced.attempted))
    startups = [c["startup_ms"] for c in traced.children]
    metrics["cli.startup_ms"] = statistics.fmean(startups) if startups else 0.0
    metrics["scenarios.bytes_written"] = traced.bytes_written / traced.attempted
    n = min(len(plain.scaled), len(traced.scaled))
    base = _median_ms(plain.scaled[:n])
    metrics["trace.overhead_frac"] = (_median_ms(traced.scaled[:n]) / base - 1.0
                                      if base else 0.0)
    spans = ROOT / ".bench_work" / "trace" / f"{workload}-seed{seed}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans)
    record.update(spans=str(spans.relative_to(ROOT)), span_count=len(tracer.spans()))
    return metrics, [plain, traced]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result record (metrics, counts, digest)."""
    _use_checkout_sources()
    import workloads
    pool = workloads.generate(workload, seed)
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": workload, "trace": int(trace)}
    try:
        metrics, loops = (_trace if trace else _measure)(workload, seed, pool, seconds,
                                                         work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["metrics"] = metrics
    record["ops"] = sum(len(lp.seconds) for lp in loops)
    record["attempted"] = sum(lp.attempted for lp in loops)
    record["failed"] = sum(lp.failed for lp in loops)
    record["errors"] = [{"input": pool[i], "error": e} for lp in loops for i, e in lp.errors]
    record["digest"], record["digest_entries"] = loops[0].digest()
    record["pool_size"] = len(pool)
    record["correct"] = (record["failed"] == 0 and not record.get("leftover_wrappers")
                         and not record.get("changed_by_tracing"))
    return record


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(record: dict, env: dict) -> None:
    """Print every metric with its unit, then the JSON result line."""
    from workloads import REFERENCE_KERNEL_S
    spec = _spec()
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"ops {record['ops']}  attempted {record['attempted']}  failed {record['failed']}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<32} {record['failed'] / max(record['attempted'], 1):>14.6g} "
          f"({record['failed']}/{record['attempted']})")
    if "op_ms_p90" in record:
        print(f"  {'op_ms_p90':<32} {record['op_ms_p90']:>14.6g} ms ({record['ops']} ops)")
    elif not record["trace"]:
        print(f"  op_ms_p90 not reported: {record['ops']} ops < {P90_MIN_OPS}")
    if "raw" in record:
        kernel = statistics.fmean(record["kernel_seconds"]) * 1e3
        print(f"  raw (unscaled) {json.dumps(record['raw'])}; reference kernel "
              f"mean {kernel:.3f} ms, reference speed {REFERENCE_KERNEL_S * 1e3} ms")
    for error in record["errors"]:
        print(f"failed op: {json.dumps(error)}")
    if record.get("leftover_wrappers"):
        print(f"tracer wrappers left installed: {record['leftover_wrappers']}")
    if record.get("changed_by_tracing"):
        print(f"outputs changed under tracing for pool entries {record['changed_by_tracing']}")
    print(f"output digest {record['digest']} over {record['digest_entries']}"
          f"/{record['pool_size']} pool entries")
    print(f"env {json.dumps(env, sort_keys=True)}")
    out = ROOT / ".bench_work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{env['seed']}-trace{record['trace']}.json"
    (out / name).write_text(json.dumps({"env": env, **record}, indent=2, sort_keys=True))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenario-sweep", "mode-sweep", "presets-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    # One CPU for the harness and every child: on a VM whose vCPUs run at
    # different speeds, the kernel then times the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record, environment(args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
