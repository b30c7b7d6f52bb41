"""Scenario configuration, presets, and the end-to-end run pipeline.

A scenario bundles the condensate definition, the trap schedule, the
requested analyses and the numeric settings. Two presets encode the
benchmark scenarios whose published reference values the report compares
against: a quasi-2D sodium disk and a spherical 3D rubidium cloud.

Config files are JSON; every physical key carries an explicit SI unit
suffix, and unknown keys are rejected. A run writes one directory:
manifest.json, derived.json, trajectory.csv, horizons.csv, spectrum.csv and
report.json, depending on the analyses (pipeline stages, see STAGES) requested.
This module is the only one that writes files: the physics modules return
arrays, and _write_csv and _write_json fix the two file formats.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, q2d, threed
from .condensate import (DIMENSIONS, INTERACTION_EXPONENT, AtomSpecies,
                         CondensateSpec, DerivedParams, TrapGeometry, natural_coupling,
                         sound_frequency_at_healing_scale, swave_coupling,
                         thomas_fermi, validate_dimensional_reduction)
from .scaling import (ExpansionProtocol, ScaleTrajectory, integrate_scale_factor,
                      is_flat_case, proper_time)


class ConfigError(ValueError):
    """Scenario configuration is malformed; message names the field."""


class StageError(RuntimeError):
    """A pipeline stage failed; the stage name travels with the error."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# Upper bound on trajectory_samples and kappa_points: far above any grid a
# run needs, and small enough that a typo cannot ask for terabytes.
_MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class NumericSettings:
    ode_tolerance: float = 1e-10
    t_max_omega0: float = 200.0        # integration span in units of 1/omega0
    trajectory_samples: int = 400
    kappa_min: float | None = None     # 1/m; None -> scenario default grid
    kappa_max: float | None = None
    kappa_points: int = 64

    def __post_init__(self):
        if not 1e-14 < self.ode_tolerance < 1e-4:
            raise ConfigError("numeric.ode_tolerance must lie in (1e-14, 1e-4)")
        if not 0.0 < self.t_max_omega0 < math.inf:
            raise ConfigError("numeric.t_max_omega0 must be positive and finite")
        if not 2 <= self.trajectory_samples <= _MAX_SAMPLES:
            raise ConfigError(f"numeric.trajectory_samples must lie in [2, {_MAX_SAMPLES}]")
        if not 2 <= self.kappa_points <= _MAX_SAMPLES:
            raise ConfigError(f"numeric.kappa_points must lie in [2, {_MAX_SAMPLES}]")
        if (self.kappa_min is not None) != (self.kappa_max is not None):
            raise ConfigError("numeric.kappa_min and kappa_max must be set together")
        if self.kappa_min is not None:
            if not 0.0 < self.kappa_min < self.kappa_max < math.inf:
                raise ConfigError("kappa grid must be positive and finite with "
                                  "kappa_min < kappa_max")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    condensate: CondensateSpec
    expansion_mode: str = "free"       # "free" | "hold"
    analysis: tuple[str, ...] = ("derive",)
    numeric: NumericSettings = field(default_factory=NumericSettings)

    def __post_init__(self):
        if self.expansion_mode not in ("free", "hold"):
            raise ConfigError("expansion.mode must be 'free' or 'hold', "
                              f"got {self.expansion_mode!r}")
        validate_analysis(self.analysis, self.condensate.trap.dimension,
                          self.expansion_mode)

    def protocol(self) -> ExpansionProtocol:
        omega0 = self.condensate.trap.longitudinal_frequency
        if self.expansion_mode == "free":
            return ExpansionProtocol.free_expansion(omega0)
        return ExpansionProtocol.hold(omega0)

    def to_dict(self) -> dict:
        cond = self.condensate
        d = {
            "name": self.name,
            "condensate": {
                "species": {
                    "name": cond.species.name,
                    "mass_kg": cond.species.mass,
                    "scattering_length_m": cond.species.scattering_length,
                },
                "atom_number": cond.atom_number,
                "dimension": cond.trap.dimension,
                "interaction_exponent": INTERACTION_EXPONENT,
                "omega0_rad_per_s": cond.trap.longitudinal_frequency,
            },
            "expansion": {"mode": self.expansion_mode},
            "analysis": list(self.analysis),
            "numeric": {key: value for key in _SCHEMA["numeric"]
                        if (value := getattr(self.numeric, _NUMERIC_FIELDS.get(key, key)))
                        is not None},
        }
        if cond.trap.transverse_frequency is not None:
            d["condensate"]["omega_z_rad_per_s"] = cond.trap.transverse_frequency
        return d


PRESETS: dict[str, dict] = {
    "sodium-q2d": {
        "name": "sodium-q2d",
        "condensate": {
            "species": "sodium",
            "atom_number": 1e5,
            "dimension": 2,
            "interaction_exponent": 2.0,
            "omega0_rad_per_s": 2.0 * math.pi * 10.0,
            "omega_z_rad_per_s": 2.0 * math.pi * 790.0,
        },
        "expansion": {"mode": "free"},
        "analysis": ["derive", "evolve", "horizons", "spectrum-2d", "report"],
        "numeric": {"t_max_omega0": 200.0},
    },
    "rubidium-3d": {
        "name": "rubidium-3d",
        "condensate": {
            "species": "rubidium-87",
            "atom_number": 1e7,
            "dimension": 3,
            "interaction_exponent": 2.0,
            "omega0_rad_per_s": 2.0 * math.pi * 200.0,
        },
        "expansion": {"mode": "free"},
        "analysis": ["derive", "evolve", "horizons", "spectrum-3d", "report"],
        "numeric": {"t_max_omega0": 5000.0},
    },
}


def validate_analysis(analysis, dimension: int, expansion_mode: str = "free") -> None:
    """Reject analyses that are not stages or do not apply to the scenario."""
    for name in analysis:
        if not isinstance(name, str) or name not in STAGES:
            raise ConfigError(f"unknown analysis {name!r}; valid: {tuple(STAGES)}")
        stage = STAGES[name]
        if dimension not in stage.dimensions:
            raise ConfigError(f"{name} does not apply to a {dimension}D condensate")
        if expansion_mode not in stage.modes:
            raise ConfigError(f"{name} does not apply to expansion.mode {expansion_mode!r}")


def stage_chain(name: str) -> tuple[str, ...]:
    """The stage and, before it, every stage it needs."""
    needs = STAGES[name].needs
    return (stage_chain(needs) if needs else ()) + (name,)


# The keys each config object may hold and the JSON type of each value.
_SCHEMA = {
    "scenario": {"name": str, "condensate": dict, "expansion": dict,
                 "analysis": list, "numeric": dict},
    "condensate": {"species": (str, dict), "scattering_length_m": float,
                   "atom_number": float, "dimension": int,
                   "interaction_exponent": float, "omega0_rad_per_s": float,
                   "omega_z_rad_per_s": float},
    "condensate.species": {"name": str, "mass_kg": float, "scattering_length_m": float},
    "expansion": {"mode": str},
    "numeric": {"ode_tolerance": float, "t_max_omega0": float,
                "trajectory_samples": int, "kappa_min_per_m": float,
                "kappa_max_per_m": float, "kappa_points": int},
}
_TYPE_NAMES = {str: "a string", dict: "a JSON object", list: "a list",
               (str, dict): "a species name or a JSON object",
               float: "a finite number", int: "an integer"}
# numeric keys that differ from their NumericSettings field names
_NUMERIC_FIELDS = {"kappa_min_per_m": "kappa_min", "kappa_max_per_m": "kappa_max"}


def _section(value, context: str) -> dict:
    """A config object checked against _SCHEMA: no unknown keys, every value
    of its type, numbers finite and integers integral (3.0 reads as 3)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be {_TYPE_NAMES[dict]}")
    checked = {}
    for key, item in value.items():
        kind = _SCHEMA[context].get(key)
        if kind is None:
            raise ConfigError(f"unknown field {context}.{key}")
        if kind in (float, int):  # the magnitude test rejects NaN, inf and huge ints
            ok = (isinstance(item, (int, float)) and not isinstance(item, bool)
                  and abs(item) <= sys.float_info.max
                  and (kind is float or item == int(item)))
        else:
            ok = isinstance(item, kind)
        if not ok:
            raise ConfigError(f"{context}.{key} must be {_TYPE_NAMES[kind]}, got {item!r}")
        checked[key] = kind(item) if kind in (float, int) else item
    return checked


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing field {context}.{key}")
    return mapping[key]


def _species_from_config(cond: dict) -> AtomSpecies:
    spec = _require(cond, "species", "condensate")
    override = cond.get("scattering_length_m")
    if isinstance(spec, str):
        return AtomSpecies.from_table(spec, override)
    spec = _section(spec, "condensate.species")
    return AtomSpecies(_require(spec, "name", "condensate.species"),
                       _require(spec, "mass_kg", "condensate.species"),
                       override if override is not None
                       else _require(spec, "scattering_length_m", "condensate.species"))


def config_from_dict(data: dict) -> ScenarioConfig:
    data = _section(data, "scenario")
    cond = _section(_require(data, "condensate", "scenario"), "condensate")
    exponent = cond.get("interaction_exponent", INTERACTION_EXPONENT)
    if exponent != INTERACTION_EXPONENT:
        raise ConfigError("condensate.interaction_exponent must be 2 (the quartic "
                          f"coupling), got {exponent!r}")
    try:
        trap = TrapGeometry(_require(cond, "dimension", "condensate"),
                            _require(cond, "omega0_rad_per_s", "condensate"),
                            cond.get("omega_z_rad_per_s"))
        condensate = CondensateSpec(_species_from_config(cond), trap,
                                    _require(cond, "atom_number", "condensate"))
    except ConfigError:
        raise
    except (KeyError, ValueError) as exc:  # the condensate types' own checks
        raise ConfigError(f"condensate: {exc}") from exc
    expansion = _section(data.get("expansion", {}), "expansion")
    numeric = NumericSettings(**{_NUMERIC_FIELDS.get(key, key): value for key, value
                                 in _section(data.get("numeric", {}), "numeric").items()})
    return ScenarioConfig(name=_require(data, "name", "scenario"), condensate=condensate,
                          expansion_mode=expansion.get("mode", "free"),
                          analysis=tuple(data.get("analysis", ["derive"])),
                          numeric=numeric)


def load_scenario(source) -> ScenarioConfig:
    """Load a preset by name or a JSON config by path."""
    if isinstance(source, str) and source in PRESETS:
        return config_from_dict(PRESETS[source])
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"unknown preset or missing file: {source}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# run pipeline
# ---------------------------------------------------------------------------

# Published reference values the report compares against. The settled
# apparent horizon of the sodium scenario is a known outlier: evaluating
# c0/omega0 with the scenario parameters gives ten times the published
# figure, so the row carries a note and the formula value stands.
_REFERENCES = {
    "q2d.transverse_width_m": 0.746e-6,
    "q2d.healing_length_m": 1.34e-6,
    "q2d.windowed_contrast": 0.0179,
    "q2d.apparent_horizon_settled_m": 3.28e-6,
    "threed.thomas_fermi_radius_m": 12.2e-6,
    "threed.min_phonon_frequency_rad_per_s": 5582.0,
    "threed.max_contrast_prefactor": 30.3,
    "threed.max_contrast": 0.02,
}


@dataclass
class RunReport:
    scenario: str
    output_dir: str
    derived: dict = field(default_factory=dict)
    validity: list = field(default_factory=list)
    horizon_summary: dict = field(default_factory=dict)
    spectrum_paths: dict = field(default_factory=dict)
    reference_comparison: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _comparison_row(key: str, computed: float, note: str | None = None) -> dict:
    ref = _REFERENCES[key]
    row = {"key": key, "computed": computed, "reference": ref,
           "ratio": computed / ref}
    if note:
        row["note"] = note
    return row


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite value raises ValueError."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _write_csv(path: Path, columns: dict, infinite: tuple[str, ...] = ()) -> None:
    """A headered CSV with one column per key: floats as %.12e, bool and
    integer columns as %d (flags read 0/1). A NaN, or an infinity outside
    the columns named in infinite (which may hold +inf), raises ValueError
    before anything is written."""
    arrays = [np.asarray(values) for values in columns.values()]
    for name, a in zip(columns, arrays):
        ok = np.isfinite(a)
        if name in infinite:
            ok |= a == math.inf
        if not ok.all():
            raise ValueError(f"{path.name}: column {name} holds a non-finite value")
    row = ",".join("%d" if a.dtype.kind in "biu" else "%.12e" for a in arrays) + "\n"
    lines = [row % values for values in zip(*(a.tolist() for a in arrays))]
    path.write_text(",".join(columns) + "\n" + "".join(lines), newline="")


def _finite_or_none(value: float) -> float | None:
    """A horizon for report.json; an infinite one is written as null."""
    return value if math.isfinite(value) else None


def _kappa_grid(numeric: NumericSettings, default_min: float,
                default_max: float) -> np.ndarray:
    """Log-spaced wavenumber grid; the configured edges override the defaults."""
    if numeric.kappa_min is not None:
        default_min, default_max = numeric.kappa_min, numeric.kappa_max
    return np.geomspace(default_min, default_max, numeric.kappa_points)


@dataclass
class _Run:
    """What one run's stages share: the inputs, the stages that write files,
    the report, the manifest's file list and solver records, and results
    later stages read."""
    config: ScenarioConfig
    out: Path
    writes: set[str]
    report: RunReport
    files: dict
    solvers: dict
    derived: DerivedParams | None = None
    trajectory: ScaleTrajectory | None = None


def _derive(r: _Run) -> None:
    spec = r.config.condensate
    derived = r.derived = thomas_fermi(spec)
    validity = validate_dimensional_reduction(spec, derived)
    for check in validity.checks:
        if not check.passed:
            r.report.warnings.append({
                "source": f"validity:{check.name}",
                "message": f"{check.description}: ratio {check.ratio:.3g} "
                           f"below threshold {check.threshold:g}",
            })

    payload = r.report.derived = derived.as_dict()
    payload["omega_xi_rad_per_s"] = sound_frequency_at_healing_scale(derived)
    payload["validity"] = r.report.validity = [vars(c) for c in validity.checks]
    _write_json(r.out / "derived.json", payload)
    r.files["derived"] = "derived.json"

    rows = r.report.reference_comparison
    if spec.trap.dimension == 2:
        rows.append(_comparison_row("q2d.transverse_width_m", derived.transverse_width))
        rows.append(_comparison_row("q2d.healing_length_m", derived.healing_length))
        contrast = q2d.windowed_contrast(
            2.0 * math.pi / derived.healing_length, derived.healing_length,
            derived.effective_coupling, derived.chemical_potential,
            spec.species.mass)
        rows.append(_comparison_row("q2d.windowed_contrast", contrast))
    elif spec.trap.dimension == 3:
        rows.append(_comparison_row("threed.thomas_fermi_radius_m",
                                    derived.thomas_fermi_radius))
        omega_min = 2.0 * math.pi * derived.sound_speed / derived.thomas_fermi_radius
        rows.append(_comparison_row("threed.min_phonon_frequency_rad_per_s", omega_min))


def _evolve(r: _Run) -> None:
    spec, numeric, derived = r.config.condensate, r.config.numeric, r.derived
    D, N = spec.trap.dimension, INTERACTION_EXPONENT
    r.trajectory = integrate_scale_factor(
        r.config.protocol(), D, N,
        t_max=numeric.t_max_omega0 / spec.trap.longitudinal_frequency,
        tolerance=numeric.ode_tolerance, n_samples=numeric.trajectory_samples)
    trajectory = r.trajectory
    r.solvers["scale_ode"] = {"method": trajectory.method, "rtol": trajectory.rtol,
                              "nfev": trajectory.nfev, "steps": trajectory.steps}
    if r.config.expansion_mode == "free" and trajectory.linear_onset is None:
        r.report.warnings.append({
            "source": "evolve:linear_regime",
            "message": f"b(t) never reached the linear regime by t_max = "
                       f"{trajectory.t_max:.4g} s, so the horizon integrals "
                       "have no closed-form tail and the particle horizons "
                       "are infinite",
        })
    if "evolve" in r.writes:
        tau_prefactor = 1.0
        if not is_flat_case(D, N):
            conformal0 = geometry.conformal_factor(
                derived.sound_speed, natural_coupling(derived.effective_coupling), D)
            tau_prefactor = math.sqrt(conformal0) * derived.sound_speed
        _write_csv(r.out / "trajectory.csv", {
            "t_s": trajectory.ts, "b": trajectory.bs, "bdot_per_s": trajectory.bdots,
            "tau": proper_time(trajectory, tau_prefactor).samples})
        r.files["trajectory"] = "trajectory.csv"


def _horizons(r: _Run) -> None:
    trajectory, c0 = r.trajectory, r.derived.sound_speed
    ts = trajectory.ts[1:]  # the apparent horizon is infinite at t = 0
    _write_csv(r.out / "horizons.csv", {
        "t_s": ts, "r_apparent_m": geometry.apparent_horizon(trajectory, ts, c0),
        "particle_horizon_comoving_m": geometry.particle_horizon(trajectory, ts, c0)},
        infinite=("r_apparent_m", "particle_horizon_comoving_m"))
    r.files["horizons"] = "horizons.csv"
    settled = geometry.settled_apparent_horizon(trajectory, c0)
    r.report.horizon_summary = {
        "settled_apparent_m": settled,
        "apparent_at_t_max_m": _finite_or_none(geometry.apparent_horizon(
            trajectory, trajectory.t_max, c0)),
        "particle_horizon_initial_m": _finite_or_none(
            geometry.particle_horizon(trajectory, 0.0, c0)),
        "note": "valid for wavelengths well above the healing length",
    }
    if r.config.condensate.trap.dimension == 2 and settled is not None:
        r.report.reference_comparison.append(_comparison_row(
            "q2d.apparent_horizon_settled_m", settled,
            note="formula value c0/omega0; the published figure is "
                 "one order of magnitude smaller, ratio reported as is"))


def _spectrum_2d(r: _Run) -> None:
    derived, xi = r.derived, r.derived.healing_length
    kappas = _kappa_grid(r.config.numeric, 2.0 * math.pi / (50.0 * xi),
                         4.0 * math.pi / xi)
    with np.errstate(over="raise"):
        spectrum = q2d.spectrum_2d_grid(
            kappas, derived.effective_coupling, derived.chemical_potential,
            r.config.condensate.species.mass)
        scaled = spectrum.values / xi**2
    _write_csv(r.out / "spectrum.csv", {
        "kappa_per_m": kappas, "C_m2": spectrum.values, "C_over_xi2": scaled})
    r.report.spectrum_paths["spectrum-2d"] = "spectrum.csv"
    r.files["spectrum"] = "spectrum.csv"


def _spectrum_3d(r: _Run) -> None:
    species, derived = r.config.condensate.species, r.derived
    xi, omega_xi = derived.healing_length, sound_frequency_at_healing_scale(derived)
    alpha = r.trajectory.asymptotic_velocity
    kmax = threed.kappa_band_edge(xi, alpha, omega_xi)
    kappas = _kappa_grid(r.config.numeric, kmax / 100.0, kmax)
    with np.errstate(over="raise"):
        spectrum = threed.spectrum_3d_grid(
            kappas, xi, derived.sound_speed, derived.peak_density, alpha,
            natural_coupling(swave_coupling(species)), omega_xi)
    clipped = int(np.sum(~spectrum.in_band))
    if clipped:
        r.report.warnings.append({
            "source": "band_clip",
            "message": f"{clipped} of {len(kappas)} grid points beyond "
                       f"kappa_max = {kmax:.4e} 1/m (hydrodynamic band)",
        })
    _write_csv(r.out / "spectrum.csv", {
        "kappa_per_m": kappas, "phase_variance_m3": spectrum.phase_variance,
        "C3d_m3": spectrum.density_values, "in_band": spectrum.in_band})
    r.report.spectrum_paths["spectrum-3d"] = "spectrum.csv"
    r.files["spectrum"] = "spectrum.csv"

    estimate = threed.max_contrast_estimate(
        species.scattering_length, derived.peak_density,
        r.config.condensate.trap.longitudinal_frequency, omega_xi, alpha, xi)
    r.report.reference_comparison.append(_comparison_row(
        "threed.max_contrast_prefactor", estimate.prefactor))
    r.report.reference_comparison.append(_comparison_row(
        "threed.max_contrast", estimate.value, note="order-of-magnitude reference"))


def _write_report(r: _Run) -> None:
    _write_json(r.out / "report.json", r.report.to_dict())
    r.files["report"] = "report.json"


class Stage(NamedTuple):
    """A stage body, the stage it needs and the scenarios it applies to."""
    body: Callable[[_Run], None]
    needs: str | None = None
    dimensions: tuple[int, ...] = DIMENSIONS
    modes: tuple[str, ...] = ("free", "hold")


# The pipeline, in run order; a stage's needs come before it. derive always
# runs and "report" requests every stage that applies to the scenario. A
# requested stage writes its files; a stage that is only needed by another
# runs without writing. A held trap never releases (alpha = 0), so it has no
# 3D spectrum.
STAGES: dict[str, Stage] = {
    "derive": Stage(_derive),
    "evolve": Stage(_evolve, needs="derive"),
    "horizons": Stage(_horizons, needs="evolve"),
    "spectrum-2d": Stage(_spectrum_2d, needs="derive", dimensions=(2,)),
    "spectrum-3d": Stage(_spectrum_3d, needs="evolve", dimensions=(3,),
                         modes=("free",)),
    "report": Stage(_write_report, needs="derive"),
}


def run(config: ScenarioConfig, out_dir) -> RunReport:
    """Run the stages the analyses ask for and write the run directory.

    On failure the manifest is written with the failing stage named, the
    partial outputs are left in place and StageError carries the stage name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    D, mode = config.condensate.trap.dimension, config.expansion_mode
    writes = {"derive", *config.analysis}
    if "report" in writes:
        writes.update(name for name, stage in STAGES.items()
                      if D in stage.dimensions and mode in stage.modes)
    needed = {need for name in writes for need in stage_chain(name)}
    report = RunReport(config.name, str(out))
    manifest = {"scenario": config.to_dict(), "analyses": list(config.analysis),
                "files": {}, "solvers": {}, "complete": False, "failed_stage": None,
                "warnings": report.warnings}
    state = _Run(config, out, writes, report, manifest["files"], manifest["solvers"])
    for name in [name for name in STAGES if name in needed]:
        try:
            STAGES[name].body(state)
        except Exception as exc:
            manifest["failed_stage"] = name
            _write_json(out / "manifest.json", manifest)
            raise StageError(name, exc) from exc
    manifest["complete"] = True
    _write_json(out / "manifest.json", manifest)
    return report
