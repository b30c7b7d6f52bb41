"""Workload inputs, operations and output checks of the becosmo benchmark.

Each workload is a closed loop of one operation at a time:

* ``scenario-sweep``: ``config_from_dict`` then ``run()`` into a fresh
  directory, over seed-generated free-expansion variants of both presets;
* ``mode-sweep``: one criterion-5 style mode on ``LinearExpansion(sqrt(2/3))``
  followed by ``analytic_evolution`` and ``density_contrast_from_mode``;
* ``presets-cli``: one ``python -m becosmo.cli <verb> --scenario <preset>``
  process.

Inputs come from the workload seed alone. Each generator returns a fixed pool
that the runner cycles through, so every run covers the whole pool and each
repeat doubles as a determinism check. Inputs that set an op's cost take the
midpoints of equal strata of their ranges, paired and ordered by the seed, so
the cost mix of a pool is the same for every seed while the inputs differ.

Every operation's outputs are checked here; an operation fails if it raises,
exits outside {0, 3}, or its outputs fail a check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from becosmo import scaling, scenarios, threed

WORKLOADS = ("scenario-sweep", "mode-sweep", "presets-cli")
POOL_SIZE = {"scenario-sweep": 80, "mode-sweep": 12, "presets-cli": 10}
CHILD_TIMEOUT_S = 120.0
KERNEL_EVERY_S = 0.2               # reference kernel at most this often in a loop
REFERENCE_KERNEL_S = 0.005         # kernel time that defines the reference speed

# Base scenarios of the sweep. They equal the package presets at the time the
# benchmark was defined and are kept here, so the inputs never change with
# the code under test.
BASES = {
    "sodium-q2d": {
        "condensate": {
            "species": "sodium",
            "atom_number": 1e5,
            "dimension": 2,
            "interaction_exponent": 2.0,
            "omega0_rad_per_s": 2.0 * math.pi * 10.0,
            "omega_z_rad_per_s": 2.0 * math.pi * 790.0,
        },
        "analysis": ["derive", "evolve", "horizons", "spectrum-2d", "report"],
        "t_max_omega0": (100.0, 400.0),
    },
    "rubidium-3d": {
        "condensate": {
            "species": "rubidium-87",
            "atom_number": 1e7,
            "dimension": 3,
            "interaction_exponent": 2.0,
            "omega0_rad_per_s": 2.0 * math.pi * 200.0,
        },
        "analysis": ["derive", "evolve", "horizons", "spectrum-3d", "report"],
        "t_max_omega0": (2500.0, 10000.0),
    },
}
SPECIES_TABLE = ("sodium", "rubidium-87")

# Stage sets of the CLI verbs; "report" keeps the scenario's list and adds
# "report". Only the verbs valid for a scenario's dimension are drawn.
VERB_STAGES = {
    "derive": ("derive",),
    "evolve": ("derive", "evolve"),
    "horizons": ("derive", "evolve", "horizons"),
    "spectrum2d": ("derive", "spectrum-2d"),
    "spectrum3d": ("derive", "evolve", "spectrum-3d"),
    "report": None,
}
VERBS = {2: ("derive", "evolve", "horizons", "spectrum2d", "report"),
         3: ("derive", "evolve", "horizons", "spectrum3d", "report")}

SAMPLES_RANGE = (200, 4000)        # trajectory_samples
KAPPA_POINTS_RANGE = (10, 4000)    # kappa_points

# Mode sweep: omega0 = c0 = 1, criterion-5 tolerance. The WKB residual at the
# start is 1/(6 z), so z >= 180 keeps it below 1e-3.
MODE_ALPHA = math.sqrt(2.0 / 3.0)
MODE_TOLERANCE = 1e-11
MODE_KAPPA_RANGE = (1.0, 100.0)
MODE_DEPTH_RANGE = (180.0, 600.0)
MODE_POINTWISE_TOL = 1e-6
MODE_FROZEN_TOL = 0.005

# Acceptance tolerances on the reference rows of a preset-shaped run:
# (kind, tolerance); "rel" bounds |ratio - 1|, "abs" bounds |computed - ref|,
# "ratio" bounds |ratio - target|, "range" bounds computed.
REFERENCE_TOLERANCES = {
    "q2d.transverse_width_m": ("rel", 0.01),
    "q2d.healing_length_m": ("rel", 0.02),
    "q2d.windowed_contrast": ("abs", 0.0005),
    "q2d.apparent_horizon_settled_m": ("ratio", (10.0, 0.5)),
    "threed.thomas_fermi_radius_m": ("rel", 0.02),
    "threed.min_phonon_frequency_rad_per_s": ("rel", 0.02),
    "threed.max_contrast_prefactor": ("abs", 0.1),
    "threed.max_contrast": ("range", (0.015, 0.022)),
}


class CheckError(Exception):
    """An operation's outputs failed a correctness check."""


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _strata(rng: np.random.Generator, m: int) -> np.ndarray:
    """The midpoints of m equal strata of [0, 1), in a seed-drawn order."""
    return (rng.permutation(m) + 0.5) / m


def _log_between(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def scenario_configs(seed: int) -> list[dict]:
    """Seed-generated free-expansion variants of both presets.

    Every (preset, verb) cell gets the same number of configs, whose
    trajectory_samples, kappa_points and t_max_omega0 each take one stratum
    midpoint of their log range, paired in a seed-drawn order. So the seed
    changes every scenario but not the mix of grid sizes that sets the cost.
    One config per cell keeps the preset condensate, so its reference ratios
    can be checked; the others draw atom number, trap frequencies and
    species, which leave the cost unchanged.
    """
    rng = np.random.default_rng(seed % 2**63)
    cells = [(p, v) for p in BASES for v in VERBS[BASES[p]["condensate"]["dimension"]]]
    per_cell = POOL_SIZE["scenario-sweep"] // len(cells)
    configs = []
    for preset, verb in cells:
        base = BASES[preset]
        samples, points, t_max = (_strata(rng, per_cell) for _ in range(3))
        shaped = rng.integers(per_cell)
        for j in range(per_cell):
            cond = dict(base["condensate"])
            factors = rng.random(4)
            if j != shaped:
                cond["atom_number"] *= _log_between(factors[0], 0.3, 3.0)
                cond["omega0_rad_per_s"] *= _log_between(factors[1], 0.5, 2.0)
                if "omega_z_rad_per_s" in cond:
                    cond["omega_z_rad_per_s"] *= _log_between(factors[2], 0.5, 2.0)
                cond["species"] = SPECIES_TABLE[int(factors[3] * len(SPECIES_TABLE))]
            configs.append({
                "name": f"{preset}-{verb}-{j}",
                "condensate": cond,
                "expansion": {"mode": "free"},
                "analysis": list(VERB_STAGES[verb] or base["analysis"]),
                "numeric": {
                    "t_max_omega0": _log_between(t_max[j], *base["t_max_omega0"]),
                    "trajectory_samples": round(_log_between(samples[j], *SAMPLES_RANGE)),
                    "kappa_points": round(_log_between(points[j], *KAPPA_POINTS_RANGE)),
                },
            })
    return [configs[i] for i in rng.permutation(len(configs))]


def mode_inputs(seed: int) -> list[dict]:
    """(kappa, start depth z) pairs on log scales. kappa is drawn freely; the
    depth, which sets the cost, takes one stratum midpoint per mode, ordered
    so that every four consecutive modes hold one depth from each quartile
    (a run that stops mid-pool then still has a balanced cost mix)."""
    rng = np.random.default_rng(seed % 2**63)
    n = POOL_SIZE["mode-sweep"]
    per_quartile = n // 4
    within = [rng.permutation(per_quartile) for _ in range(4)]
    strata = [q * per_quartile + within[q][block]
              for block in range(per_quartile) for q in rng.permutation(4)]
    return [{"kappa": _log_between(k, *MODE_KAPPA_RANGE),
             "depth": _log_between((z + 0.5) / n, *MODE_DEPTH_RANGE)}
            for k, z in zip(rng.random(n), strata)]


def cli_inputs(seed: int) -> list[dict]:
    """Every valid verb x preset pair, in a seed-drawn order."""
    pairs = [{"verb": verb, "preset": preset}
             for preset, dim in (("sodium-q2d", 2), ("rubidium-3d", 3))
             for verb in VERBS[dim]]
    order = np.random.default_rng(seed % 2**63).permutation(len(pairs))
    return [pairs[i] for i in order]


def generate(workload: str, seed: int) -> list[dict]:
    if workload == "scenario-sweep":
        return scenario_configs(seed)
    if workload == "mode-sweep":
        return mode_inputs(seed)
    if workload == "presets-cli":
        return cli_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise CheckError(f"non-finite JSON number {token}")


def check_json_finite(path: Path) -> dict:
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def check_csv(path: Path, rows: int | None = None) -> None:
    """Every field of every data row parses as a finite number."""
    lines = path.read_text().splitlines()
    data = lines[1:]
    if rows is not None and len(data) != rows:
        raise CheckError(f"{path.name}: {len(data)} rows, expected {rows}")
    for line in data:
        for field in line.split(","):
            if not math.isfinite(float(field)):
                raise CheckError(f"{path.name}: non-finite value {field}")


def check_references(rows: list[dict]) -> None:
    """Reference ratios of a preset-shaped run within acceptance tolerances."""
    for row in rows:
        kind, tol = REFERENCE_TOLERANCES[row["key"]]
        ratio, computed = row["ratio"], row["computed"]
        if kind == "rel":
            ok = abs(ratio - 1.0) <= tol
        elif kind == "abs":
            ok = abs(computed - row["reference"]) <= tol
        elif kind == "ratio":
            ok = abs(ratio - tol[0]) <= tol[1]
        else:
            ok = tol[0] <= computed <= tol[1]
        if not ok:
            raise CheckError(f"reference {row['key']}: computed {computed!r}, "
                             f"ratio {ratio!r} outside {kind} {tol}")


def expected_files(analysis) -> dict[str, str | None]:
    """Files a run must write, with the CSV row counts they must have."""
    stages = set(analysis)
    files = {"manifest.json": None, "derived.json": None}
    if stages & {"evolve", "report"}:
        files["trajectory.csv"] = "samples"
    if stages & {"horizons", "report"}:
        files["horizons.csv"] = "samples-1"
    if stages & {"spectrum-2d", "spectrum-3d", "report"}:
        files["spectrum.csv"] = "kappa_points"
    if "report" in stages:
        files["report.json"] = None
    return files


def check_run_dir(out: Path, analysis, samples: int,
                  kappa_points: int, preset_shaped: bool) -> str:
    """Check a run directory; return the digest of its CSV files."""
    counts = {"samples": samples, "samples-1": samples - 1,
              "kappa_points": kappa_points}
    digest = hashlib.sha256()
    for name, rows in expected_files(analysis).items():
        path = out / name
        if not path.is_file():
            raise CheckError(f"missing output {name}")
        if name.endswith(".json"):
            payload = check_json_finite(path)
            if name == "manifest.json" and payload.get("complete") is not True:
                raise CheckError("manifest not complete")
            if name == "report.json" and preset_shaped:
                check_references(payload["reference_comparison"])
        else:
            check_csv(path, counts[rows])
            digest.update(name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    ok: bool
    seconds: float
    digest: str | None = None
    error: str | None = None
    bytes_written: int = 0
    rss_kb: int = 0
    child: dict | None = None     # traced child process record (presets-cli)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _is_preset_shaped(config: dict) -> bool:
    dimension = config["condensate"]["dimension"]
    base = BASES["sodium-q2d" if dimension == 2 else "rubidium-3d"]
    return config["condensate"] == base["condensate"]


def scenario_op(config: dict, out: Path) -> OpResult:
    start = time.perf_counter()
    try:
        report = scenarios.run(scenarios.config_from_dict(config), out)
    except Exception as exc:  # an op that raises is a failed op
        return OpResult(False, time.perf_counter() - start, error=repr(exc))
    seconds = time.perf_counter() - start
    try:
        numeric = config["numeric"]
        shaped = _is_preset_shaped(config)
        digest = check_run_dir(out, config["analysis"],
                               numeric["trajectory_samples"],
                               numeric["kappa_points"], shaped)
        if shaped:
            check_references(report.reference_comparison)
        written = _dir_bytes(out)
    except (CheckError, OSError, ValueError, KeyError) as exc:
        return OpResult(False, seconds, error=repr(exc))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return OpResult(True, seconds, digest=digest, bytes_written=written)


def mode_op(item: dict, out: Path | None = None) -> OpResult:
    kappa, depth = item["kappa"], item["depth"]
    start = time.perf_counter()
    try:
        background = scaling.LinearExpansion(MODE_ALPHA)
        beta = (2.0 / 3.0) * kappa * MODE_ALPHA ** -2.5
        t_start = (beta / depth) ** (2.0 / 3.0)
        t_end = threed.freezing_time(kappa, MODE_ALPHA)
        evo = threed.integrate_mode(kappa, background, t_start, t_end,
                                    tolerance=MODE_TOLERANCE)
        ana = threed.analytic_evolution(kappa, evo.times, MODE_ALPHA)
        density = threed.density_contrast_from_mode(evo, background, 1.0, 1.0)
    except Exception as exc:  # an op that raises is a failed op
        return OpResult(False, time.perf_counter() - start, error=repr(exc))
    seconds = time.perf_counter() - start
    try:
        if evo.frozen_value is None or evo.warnings:
            raise CheckError(f"mode warnings: {evo.warnings}")
        pointwise = float((np.abs(evo.phi - ana.phi) / np.abs(ana.phi)).max())
        if not pointwise <= MODE_POINTWISE_TOL:
            raise CheckError(f"pointwise error {pointwise:.3e}")
        variance = threed.frozen_phase_variance(kappa, 1.0, MODE_ALPHA)
        frozen = abs(evo.frozen_value**2 / variance - 1.0)
        if not frozen <= MODE_FROZEN_TOL:
            raise CheckError(f"frozen variance off by {frozen:.3e}")
        if not (math.isfinite(density) and density > 0.0):
            raise CheckError(f"density contrast {density!r}")
    except CheckError as exc:
        return OpResult(False, seconds, error=repr(exc))
    digest = hashlib.sha256()
    for array in (evo.times, evo.phi, evo.phidot):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr(density).encode())
    return OpResult(True, seconds, digest=digest.hexdigest())


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc within timeout; return (exit code, ru_maxrss in kB).

    Waits on a pidfd, so the parent wakes once, when the child exits,
    instead of polling on the CPU the child runs on.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        os.close(pidfd)
    if not exited:
        proc.kill()
        proc.wait()
        raise subprocess.TimeoutExpired(proc.args, timeout)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def cli_op(item: dict, out: Path, traced: bool = False) -> OpResult:
    """One CLI process. When traced, the process runs the CLI under the
    tracer (bench/cli_traced.py) and writes its spans to a file."""
    traced_spans = out / "spans.json" if traced else None
    cli_args = [item["verb"], "--scenario", item["preset"], "--out", str(out / "run")]
    out.mkdir(parents=True)
    if traced_spans is None:
        argv = [sys.executable, "-m", "becosmo.cli", *cli_args]
    else:
        argv = [sys.executable, str(Path(__file__).with_name("cli_traced.py")),
                str(traced_spans), repr(time.time()), *cli_args]
    start = time.perf_counter()
    try:
        with open(out / "stdout", "wb") as so, open(out / "stderr", "wb") as se:
            proc = subprocess.Popen(argv, stdout=so, stderr=se,
                                    stdin=subprocess.DEVNULL)
            code, rss = _wait(proc, CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        shutil.rmtree(out, ignore_errors=True)
        return OpResult(False, time.perf_counter() - start, error=repr(exc))
    seconds = time.perf_counter() - start
    try:
        if code not in (0, 3):
            raise CheckError(f"exit code {code}: "
                             f"{(out / 'stderr').read_text()[-500:]}")
        preset = BASES[item["preset"]]
        stages = VERB_STAGES[item["verb"]] or preset["analysis"]
        run_dir = out / "run"
        digest = check_run_dir(run_dir, stages, 400, 64, True)
        written = _dir_bytes(run_dir)
        child = json.loads(traced_spans.read_text()) if traced_spans else None
    except (CheckError, OSError, ValueError, KeyError) as exc:
        return OpResult(False, seconds, error=repr(exc), rss_kb=rss)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return OpResult(True, seconds, digest=digest, bytes_written=written,
                    rss_kb=rss, child=child)


OPS = {"scenario-sweep": scenario_op, "mode-sweep": mode_op,
       "presets-cli": cli_op}


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def reference_kernel() -> float:
    """Seconds for a fixed DOP853 solve with a Python right-hand side.

    It uses numpy and scipy but never becosmo, so its time tracks the speed
    of the CPU at that moment and not the code under test.
    """
    def rhs(t, y):
        return [y[1], -y[0] - 0.1 * math.sin(t) * y[1]]
    start = time.perf_counter()
    solve_ivp(rhs, (0.0, 20.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
    return time.perf_counter() - start


class SpeedGauge:
    """Reference-kernel samples around timed work.

    ``mark()`` times the kernel when KERNEL_EVERY_S has passed since the
    last sample, and returns the index of the latest sample; ``close()``
    takes a final one. ``scaled(seconds, index)`` turns a time measured
    between samples index and index + 1 into a time at reference speed,
    dividing by the mean of the two samples.
    """

    def __init__(self):
        reference_kernel()  # warm-up: the first call pays scipy's one-off costs
        self.samples: list[float] = []
        self._last = -math.inf

    def mark(self, every: float = KERNEL_EVERY_S) -> int:
        if time.perf_counter() - self._last >= every:
            self.samples.append(reference_kernel())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def close(self) -> None:
        self.mark(every=0.0)

    def scaled(self, seconds: float, index: int) -> float:
        around = (self.samples[index] + self.samples[index + 1]) / 2.0
        return seconds * REFERENCE_KERNEL_S / around


@dataclass
class LoopResult:
    seconds: list            # wall time of each successful op
    scaled: list             # the same at reference speed
    indices: list            # pool index of each successful op
    attempted: int
    failed: int
    errors: list             # (pool index, error) of failed ops
    digests: dict            # pool index -> output digest
    bytes_written: int
    child_rss_kb: int
    children: list           # traced child records (presets-cli)
    kernel_seconds: list     # reference kernel samples of the loop

    def digest(self) -> tuple[str, int]:
        """Digest over the outputs of every pool entry run, and their count."""
        h = hashlib.sha256()
        for i in sorted(self.digests):
            h.update(f"{i}:{self.digests[i]}\n".encode())
        return h.hexdigest(), len(self.digests)


def run_loop(workload: str, pool: list[dict], seconds: float, work: Path,
             tracer=None) -> LoopResult:
    """Closed loop over the pool until `seconds` of wall time have passed,
    and for at least one op.

    The reference kernel is timed between ops (see SpeedGauge), so each op
    also gets a time at reference speed. With a tracer, each op runs inside
    a root span "bench.op"; for the CLI workload the child's spans are
    merged under it.
    """
    op = OPS[workload]
    gauge = SpeedGauge()
    result = LoopResult([], [], [], 0, 0, [], {}, 0, 0, [], gauge.samples)
    timed = []               # (seconds, gauge index) of each successful op
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        mark = gauge.mark()
        index = n % len(pool)
        out = work / f"op{n:05d}"
        if tracer is None:
            res = op(pool[index], out)
        else:
            span = tracer.begin_span("bench.op", "bench")
            try:
                if workload == "presets-cli":
                    res = op(pool[index], out, traced=True)
                else:
                    res = op(pool[index], out)
            finally:
                tracer.end_span(span)
            if res.child is not None:
                tracer.merge(res.child, span[0])
                result.children.append(res.child)
        n += 1
        result.attempted += 1
        if res.ok and index in result.digests and result.digests[index] != res.digest:
            res.ok, res.error = False, "outputs differ from an earlier run of the same input"
        if not res.ok:
            result.failed += 1
            result.errors.append((index, res.error))
            continue
        result.digests.setdefault(index, res.digest)
        timed.append((res.seconds, mark))
        result.indices.append(index)
        result.bytes_written += res.bytes_written
        result.child_rss_kb = max(result.child_rss_kb, res.rss_kb)
    gauge.close()
    result.seconds = [t for t, _ in timed]
    result.scaled = [gauge.scaled(t, mark) for t, mark in timed]
    return result


def self_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
