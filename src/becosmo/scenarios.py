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
arrays, and _write_csv and _write_json fix the two file formats. _write_csv
formats whole columns in numpy, writes exactly the bytes of %.12e and flags
as 0/1; values the longdouble scaling cannot round with certainty go
through Python's own %.12e.
"""

from __future__ import annotations

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
                         sound_frequency_at_healing_scale, thomas_fermi,
                         validate_dimensional_reduction)
from .scaling import ScaleTrajectory, check_sample_count, integrate_scale_factor


class ConfigError(ValueError):
    """Scenario configuration is malformed; message names the field."""


class StageError(RuntimeError):
    """A pipeline stage failed; the stage name travels with the error."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class NumericSettings:
    t_max_omega0: float = 200.0        # integration span in units of 1/omega0
    trajectory_samples: int = 400
    kappa_min_per_m: float | None = None   # None -> scenario default grid
    kappa_max_per_m: float | None = None
    kappa_points: int = 64

    def __post_init__(self):
        try:  # the rules of integrate_scale_factor, named by their config keys
            check_sample_count(self.trajectory_samples, "numeric.trajectory_samples")
            check_sample_count(self.kappa_points, "numeric.kappa_points")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 < self.t_max_omega0 < math.inf:
            raise ConfigError("numeric.t_max_omega0 must be positive and finite")
        if (self.kappa_min_per_m is None) != (self.kappa_max_per_m is None):
            raise ConfigError("numeric.kappa_min_per_m and kappa_max_per_m must be "
                              "set together")
        if self.kappa_min_per_m is not None:
            if not 0.0 < self.kappa_min_per_m < self.kappa_max_per_m < math.inf:
                raise ConfigError("kappa grid must be positive and finite with "
                                  "kappa_min_per_m < kappa_max_per_m")


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
                        if (value := getattr(self.numeric, key)) is not None},
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
    "numeric": {"t_max_omega0": float,
                "trajectory_samples": int, "kappa_min_per_m": float,
                "kappa_max_per_m": float, "kappa_points": int},
}
_TYPE_NAMES = {str: "a string", dict: "a JSON object", list: "a list",
               (str, dict): "a species name or a JSON object",
               float: "a finite number", int: "an integer"}


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
    # The Thomas-Fermi state depends on the input alone, so it is checked here.
    try:
        state = vars(thomas_fermi(condensate)).values()
        finite = all(0.0 < value < math.inf for value in state if value is not None)
    except ArithmeticError:  # so degenerate that it divides by zero
        finite = False
    if not finite:
        raise ConfigError(f"condensate.atom_number {condensate.atom_number:g} and the "
                          "trap give a Thomas-Fermi state that is not finite and positive")
    expansion = _section(data.get("expansion", {}), "expansion")
    numeric = NumericSettings(**_section(data.get("numeric", {}), "numeric"))
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
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"{path}: not a readable JSON file ({exc})") from exc
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
        # shallow: the JSON encoder only reads the lists and dicts
        return dict(vars(self))


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


# Tables of the float formatter, built with array arithmetic at import. A
# formatted double is 24 bytes: a head word (sign, lead digit, point), three
# words of four digits and a double word for the exponent, little-endian,
# with zero bytes as padding. _POW10[k + 340] = 10**k in longdouble;
# _DIGITS4[i] ("%04d" % i) and _EXPONENT[e + 324] ("e+XX" or "e-XXX") are
# packed words.
with np.errstate(over="ignore"):  # 10**340 overflows where longdouble is double
    _POW10 = np.longdouble(10) ** np.arange(-340, 341)
_DIGITS4 = np.arange(10, dtype="<u4")  # one place value per axis, thousands first
_DIGITS4 = (0x30303030 + _DIGITS4[:, None, None, None] + (_DIGITS4[:, None, None] << 8)
            + (_DIGITS4[:, None] << 16) + (_DIGITS4 << 24)).ravel()
_EXPONENT = np.zeros((633, 8), np.uint8)
_EXPONENT[:, 0] = ord("e")
_EXPONENT[:, 1] = np.where(np.arange(-324, 309) < 0, ord("-"), ord("+"))
_EXPONENT[:, 2:5] = 48 + abs(np.arange(-324, 309))[:, None] // [100, 10, 1] % 10
_EXPONENT[_EXPONENT[:, 2] == ord("0"), 2] = 0  # |e| < 100 has two digits
_EXPONENT = _EXPONENT.view("<u8")[:, 0]
# A scaled mantissa this close to a half-way point may round either way
# under the longdouble error of the scaling; Python formats it instead.
_WINDOW = float(1e13 * 64 * np.finfo(np.longdouble).eps)


def _format_floats(x: np.ndarray) -> np.ndarray:
    """The bytes of "%.12e" % v for each double v of a 1-D array, as rows of
    six '<u4' words, zero-padded. The 13-digit mantissa is |v| scaled by a
    power of ten in longdouble and rounded; zeros, inf and mantissas within
    _WINDOW of a half-way point are formatted by Python, so every row is
    exact."""
    a = np.abs(x)
    special = (a == 0.0) | (a == math.inf)
    a[special] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # inf where longdouble is double
        mantissa = a * _POW10[352 - e]  # |x| / 10**(e - 12)
        digits = mantissa.astype(np.int64)
        off = np.flatnonzero((digits < 10**12) | (digits >= 10**13))  # log10 near 10**e
        e[off] += np.where(digits[off] < 10**12, -1, 1)
        mantissa[off] = a[off] * _POW10[352 - e[off]]
        digits[off] = mantissa[off].astype(np.int64)
        fraction = (mantissa - digits).astype(np.float64)
    exact = ~special & (np.abs(fraction - 0.5) > _WINDOW) & np.isfinite(fraction)
    digits += fraction > 0.5
    digits[~exact] = 10**12  # a placeholder: Python formats these rows below
    carry = digits == 10**13  # 9.9999999999995 rounds up to 1.000000000000e+01
    digits[carry] = 10**12
    e += carry
    high = digits // 10**8  # the lead digit and the next four
    low = digits - high * 10**8
    lead, mid = high // 10**4, low // 10**4
    out = np.empty((len(x), 6), "<u4")
    out[:, 0] = 0x2E3000 + (lead << 8) + ord("-") * np.signbit(x)  # "-", "0" + lead, "."
    out[:, 1] = _DIGITS4[high - lead * 10**4]
    out[:, 2] = _DIGITS4[mid]
    out[:, 3] = _DIGITS4[low - mid * 10**4]
    out.view("<u8")[:, 2] = _EXPONENT[e + 324]
    fallback = np.flatnonzero(~exact)
    out[fallback] = np.array([b"%.12e" % v for v in x[fallback].tolist()],
                             dtype="S24").view("<u4").reshape(-1, 6)
    return out


def _write_csv(path: Path, columns: dict, infinite: tuple[str, ...] = ()) -> None:
    """A headered CSV with one column per key: floats as %.12e, bool
    columns (flags) as 0/1. A NaN, or an infinity outside the columns named
    in infinite (which may hold +inf), raises ValueError before anything is
    written. The cells are built in numpy as a table of zero-padded 24-byte
    fields, each ending in its separator; the zero bytes are dropped on
    writing."""
    arrays = [np.asarray(values) for values in columns.values()]
    for name, a in zip(columns, arrays):
        ok = np.isfinite(a)
        if name in infinite:
            ok |= a == math.inf
        if not ok.all():
            raise ValueError(f"{path.name}: column {name} holds a non-finite value")
    rows = len(arrays[0])
    real = np.array([a.dtype.kind != "b" for a in arrays])
    reals = np.array([a for a, is_real in zip(arrays, real) if is_real], np.float64)
    table = np.empty((rows, len(arrays), 6), "<u4")
    table[:, real] = _format_floats(reals.T.ravel()).reshape(rows, len(reals), 6)
    for i in np.flatnonzero(~real):  # a flag: the word of b"0" or b"1"
        table[:, i] = 0
        table[:, i, 0] = 48 + arrays[i]
    cells = table.view(np.uint8)
    cells[:, :, 23] = ord(",")
    cells[:, -1, 23] = ord("\n")
    path.write_bytes(",".join(columns).encode() + b"\n"
                     + cells.tobytes().translate(None, b"\0"))


def _finite_or_none(value: float) -> float | None:
    """A horizon for report.json; an infinite one is written as null."""
    return value if math.isfinite(value) else None


def _kappa_grid(numeric: NumericSettings, default_min: float,
                default_max: float) -> np.ndarray:
    """Log-spaced wavenumber grid; the configured edges override the defaults."""
    if numeric.kappa_min_per_m is not None:
        default_min, default_max = numeric.kappa_min_per_m, numeric.kappa_max_per_m
    return np.geomspace(default_min, default_max, numeric.kappa_points)


@dataclass
class _Run:
    """What one run's stages share: the inputs, the stages that write files,
    the report, the manifest's file list, and results later stages read."""
    config: ScenarioConfig
    out: Path
    writes: set[str]
    report: RunReport
    files: dict
    derived: DerivedParams | None = None
    trajectory: ScaleTrajectory | None = None


def _derive(r: _Run) -> None:
    spec = r.config.condensate
    derived = r.derived = thomas_fermi(spec)
    validity = validate_dimensional_reduction(spec, derived)
    for check in validity:
        if not check.passed:
            r.report.warnings.append({
                "source": f"validity:{check.name}",
                "message": f"{check.description}: ratio {check.ratio:.3g} "
                           f"below threshold {check.threshold:g}",
            })

    payload = r.report.derived = derived.as_dict()
    payload["omega_xi_rad_per_s"] = sound_frequency_at_healing_scale(derived)
    payload["validity"] = r.report.validity = [vars(c) for c in validity]
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
    D, omega0 = spec.trap.dimension, spec.trap.longitudinal_frequency
    r.trajectory = integrate_scale_factor(
        omega0, D, t_max=numeric.t_max_omega0 / omega0,
        n_samples=numeric.trajectory_samples, held=r.config.expansion_mode == "hold")
    trajectory = r.trajectory
    if "evolve" in r.writes:
        tau_prefactor = 1.0  # quasi-2D is the flat case: tau is the clock
        if D == 3:
            conformal0 = geometry.conformal_factor(
                derived.sound_speed, natural_coupling(derived.effective_coupling), D)
            tau_prefactor = math.sqrt(conformal0) * derived.sound_speed
        _write_csv(r.out / "trajectory.csv", {
            "t_s": trajectory.ts, "b": trajectory.bs, "bdot_per_s": trajectory.bdots,
            "tau": tau_prefactor * trajectory.clocks})
        r.files["trajectory"] = "trajectory.csv"


def _horizons(r: _Run) -> None:
    trajectory, c0 = r.trajectory, r.derived.sound_speed
    ts = trajectory.ts[1:]  # the apparent horizon is infinite at t = 0; ts[-1] = t_max
    apparent = geometry.apparent_horizon(trajectory, ts, c0)
    _write_csv(r.out / "horizons.csv", {
        "t_s": ts, "r_apparent_m": apparent,
        "particle_horizon_comoving_m": geometry.particle_horizon(trajectory, ts, c0)},
        infinite=("r_apparent_m", "particle_horizon_comoving_m"))
    r.files["horizons"] = "horizons.csv"
    settled = geometry.settled_apparent_horizon(trajectory, c0)
    r.report.horizon_summary = {
        "settled_apparent_m": settled,
        "apparent_at_t_max_m": _finite_or_none(apparent[-1]),
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
            natural_coupling(derived.effective_coupling), kmax)
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
        r.config.condensate.trap.longitudinal_frequency, omega_xi, alpha)
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

    An output directory that cannot be created raises ConfigError. On a
    stage failure the manifest is written with the failing stage named, the
    partial outputs are left in place and StageError carries the stage name.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out} ({exc})") from exc
    D, mode = config.condensate.trap.dimension, config.expansion_mode
    writes = {"derive", *config.analysis}
    if "report" in writes:
        writes.update(name for name, stage in STAGES.items()
                      if D in stage.dimensions and mode in stage.modes)
    needed = {need for name in writes for need in stage_chain(name)}
    report = RunReport(config.name, str(out))
    manifest = {"scenario": config.to_dict(), "analyses": list(config.analysis),
                "files": {}, "complete": False, "failed_stage": None,
                "warnings": report.warnings}
    state = _Run(config, out, writes, report, manifest["files"])
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
