"""Scenario configuration, presets, and the end-to-end run pipeline.

A scenario bundles the condensate definition, the trap schedule, the
requested analyses and the numeric settings. Two presets encode the
benchmark scenarios whose published reference values the report compares
against: a quasi-2D sodium disk and a spherical 3D rubidium cloud.

Config files are JSON; every physical key carries an explicit SI unit
suffix, and unknown keys are rejected. A run writes one directory: the file
that STAGES names for each stage the analyses request, and manifest.json.
Each stage body returns its file's contents and run() alone writes them, so
this module is the only one that writes files: the physics modules return
arrays, and _write_csv and _write_json fix the two file formats. _write_csv
formats at most _BLOCK_CELLS cells at a time in numpy, writes exactly the bytes
of %.12e and flags as 0/1; values the float64 scaling cannot round with certainty
(0.6 % of a scenario-sweep op's values) go through Python's own %.12e. _write_json
writes the bytes of json.dumps(indent=2, sort_keys=True) and a newline by its
own recursion. Both write each file on one os.open; a CSV's blocks go out in turn.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, q2d, threed
from .condensate import (DIMENSIONS, INTERACTION_EXPONENT, AtomSpecies,
                         CondensateSpec, DerivedParams, TrapGeometry, check_positive,
                         check_sample_count, natural_coupling,
                         sound_frequency_at_healing_scale, thomas_fermi,
                         validate_dimensional_reduction)
from .scaling import ScaleTrajectory, integrate_scale_factor


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
        if (self.kappa_min_per_m is None) != (self.kappa_max_per_m is None):
            raise ConfigError("numeric.kappa_min_per_m and kappa_max_per_m must be "
                              "set together")
        try:  # the library's rules, named by their config keys (a real one ends in its unit)
            check_sample_count(self.trajectory_samples, "numeric.trajectory_samples")
            check_sample_count(self.kappa_points, "numeric.kappa_points")
            check_positive(**{f"numeric.{key}": value for key, value in vars(self).items()
                              if key.endswith(("_omega0", "_per_m")) and value is not None})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.kappa_min_per_m is not None and not self.kappa_min_per_m < self.kappa_max_per_m:
            raise ConfigError("numeric.kappa_min_per_m must be below kappa_max_per_m")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    condensate: CondensateSpec
    expansion_mode: str = "free"       # "free" | "hold"
    analysis: tuple[str, ...] = ("derive",)
    numeric: NumericSettings = field(default_factory=NumericSettings)
    derived: DerivedParams = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # The name is the default output directory's, ./<name>-out, so it must name a file
        if self.name in ("", ".", "..") or "/" in self.name or "\0" in self.name:
            raise ConfigError("scenario.name must be a file name: not '', '.' or '..', "
                              f"and without '/' or NUL, got {self.name!r}")
        # The Thomas-Fermi state depends on the input alone: computed and checked once, here.
        try:
            derived = thomas_fermi(self.condensate)
            check_positive(**{k: v for k, v in vars(derived).items() if isinstance(v, float)})
        except (ArithmeticError, ValueError) as exc:  # ArithmeticError: it divides by 0
            raise ConfigError(f"condensate.atom_number {self.condensate.atom_number:g} and "
                              "the trap give a Thomas-Fermi state that is not finite and "
                              f"positive ({exc})") from exc
        object.__setattr__(self, "derived", derived)
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
    expansion = _section(data.get("expansion", {}), "expansion")
    numeric = NumericSettings(**_section(data.get("numeric", {}), "numeric"))
    return ScenarioConfig(name=_require(data, "name", "scenario"), condensate=condensate,
                          expansion_mode=expansion.get("mode", "free"),
                          analysis=tuple(data.get("analysis", ["derive"])),
                          numeric=numeric)


def read_scenario(source) -> dict:
    """A preset's config dict by name, or a JSON file's by path, top level checked."""
    if isinstance(source, str) and source in PRESETS:
        return PRESETS[source]
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"unknown preset or missing file: {source}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"{path}: not a readable JSON file ({exc})") from exc
    return _section(data, "scenario")


def load_scenario(source) -> ScenarioConfig:
    """Load a preset by name or a JSON config by path."""
    return config_from_dict(read_scenario(source))


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


_JSON_TYPES = (str, int, float, list, tuple, dict)  # in the order json tests them


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False), built by
    this recursion instead of json's slower pure-Python indenting encoder."""
    kind = type(value)
    if kind not in _JSON_TYPES:  # None, a bool, or a subclass such as np.float64
        if value is None or value is True or value is False:
            return {None: "null", True: "true", False: "false"}[value]
        kind = next((t for t in _JSON_TYPES if isinstance(value, t)), None)
    if kind is float:
        if value - value == 0.0:  # NaN - NaN and inf - inf are NaN
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if kind is str:
        return _encode_str(value)
    inner = indent + "  "
    if kind is dict:
        try:  # a key that is not a str fails to sort or to encode
            names = list(map(_encode_str, keys := sorted(value)))
        except TypeError:
            raise TypeError("JSON object keys must be str") from None
        items, brackets = [name + ": " + _json_text(value[key], inner)
                           for name, key in zip(names, keys)], "{}"
    elif kind is list or kind is tuple:
        items, brackets = [_json_text(item, inner) for item in value], "[]"
    elif kind is int:
        return int.__repr__(value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _write_bytes(path: Path, *chunks: bytes) -> None:
    """Path.write_bytes of the chunks joined, on one open, without its buffered writer."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: NaN or inf raises ValueError, another type TypeError."""
    _write_bytes(path, _json_text(payload).encode() + b"\n")


# Tables of the float formatter, built at import. A formatted double is 24
# bytes: a head word (sign, lead digit, point), three words of four digits
# and a double word for the exponent, little-endian, with zero bytes as
# padding. _POW10[k + 340] = 10**k correctly rounded from its decimal text
# (numpy's 10.0 ** k is one ulp off at 30 of these k), inf above 1e308;
# _DIGITS4[i] ("%04d" % i) and _EXPONENT[e + 324] ("e+XX" or "e-XXX") are packed words.
_POW10 = np.array([float("1e%d" % k) for k in range(-340, 341)])
_DIGITS4 = np.arange(10, dtype="<u4")  # one place value per axis, thousands first
_DIGITS4 = (0x30303030 + _DIGITS4[:, None, None, None] + (_DIGITS4[:, None, None] << 8)
            + (_DIGITS4[:, None] << 16) + (_DIGITS4 << 24)).ravel()
_EXPONENT = np.zeros((633, 8), np.uint8)
_EXPONENT[:, 0] = ord("e")
_EXPONENT[:, 1] = np.where(np.arange(-324, 309) < 0, ord("-"), ord("+"))
_EXPONENT[:, 2:5] = 48 + abs(np.arange(-324, 309))[:, None] // [100, 10, 1] % 10
_EXPONENT[_EXPONENT[:, 2] == ord("0"), 2] = 0  # |e| < 100 has two digits
_EXPONENT = _EXPONENT.view("<u8")[:, 0]
# The scaled mantissa |v| * 10**(12 - e) < 1e13 carries two float64 roundings
# (the power and the product), an error below 2**-52 * 1e13 = 2.2e-3; one this
# close to a half-way point may round either way, so Python formats it instead.
_WINDOW = 2.5e-3
# _write_csv's cells per block. Run by run on the scenario-sweep pool (4 seeds, 2-vCPU VM),
# whole tables took 22-44 minor faults an op; 8,192 cells took at most 6.4 and ran 0.6-3.1 %
# faster; 4,096 took at most 0.9 but paid more in per-block numpy calls (-1.3 to +4.9 %).
_BLOCK_CELLS = 8192


def _format_floats(x: np.ndarray) -> np.ndarray:
    """The bytes of "%.12e" % v for each double v of a 1-D array, as rows of
    six '<u4' words, zero-padded. The 13-digit mantissa is |v| scaled by a
    power of ten in float64 and rounded; Python formats zeros, inf, mantissas
    off [1e12, 1e13) (log10 off by one, or the power overflows) and those
    within _WINDOW of a half-way point, so every row is exact."""
    a = np.abs(x)
    special = (a == 0.0) | (a == math.inf)
    a[special] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    mantissa = a * _POW10[352 - e]  # |x| / 10**(e - 12); inf below 1e-296
    with np.errstate(invalid="ignore"):  # casting inf
        digits = mantissa.astype(np.int64)
    fraction = mantissa - digits
    exact = (~special & (digits >= 10**12) & (digits < 10**13)
             & (np.abs(fraction - 0.5) > _WINDOW))
    digits += fraction > 0.5
    fallback = np.flatnonzero(~exact)
    digits[fallback] = 10**12  # a placeholder: Python formats these rows below
    carry = digits == 10**13  # 9.9999999999995 rounds up to 1.000000000000e+01
    digits[carry] = 10**12
    e += carry
    high = digits // 10**8  # the lead digit and the next four
    low = digits - high * 10**8
    lead = high // 10**4
    high -= lead * 10**4
    mid = low // 10**4
    low -= mid * 10**4
    out = np.empty((len(x), 6), "<u4")
    out[:, 0] = 0x2E3000 + (lead << 8) + ord("-") * np.signbit(x)  # "-", "0" + lead, "."
    out[:, 1] = _DIGITS4[high]
    out[:, 2] = _DIGITS4[mid]
    out[:, 3] = _DIGITS4[low]
    out.view("<u8")[:, 2] = _EXPONENT[e + 324]
    if fallback.size:
        out[fallback] = np.array([b"%.12e" % v for v in x[fallback].tolist()],
                                 dtype="S24").view("<u4").reshape(-1, 6)
    return out


def _write_csv(path: Path, columns: dict, infinite: tuple[str, ...] = ()) -> None:
    """A headered CSV with one column per key: floats as %.12e, bool
    columns (flags) as 0/1. A NaN, or an infinity outside the columns named
    in infinite (which may hold +inf), raises ValueError before anything is
    written. Each block of at most _BLOCK_CELLS cells is built in numpy as a table of
    zero-padded 24-byte fields, each ending in its separator, and compacted in turn."""
    arrays = [np.asarray(values) for values in columns.values()]
    for name, a in zip(columns, arrays):
        ok = np.isfinite(a)
        if name in infinite:
            ok |= a == math.inf
        if not ok.all():
            raise ValueError(f"{path.name}: column {name} holds a non-finite value")
    flags = [i for i, a in enumerate(arrays) if a.dtype.kind == "b"]
    reals = np.stack([a for a in arrays if a.dtype.kind != "b"], axis=1, dtype=np.float64)
    chunks, rows = [",".join(columns).encode() + b"\n"], max(1, _BLOCK_CELLS // len(arrays))
    for start in range(0, len(reals), rows):
        block = reals[start:start + rows]
        table = _format_floats(block.ravel()).reshape(block.shape + (6,))
        for i in flags:  # a flag: the word of b"0" or b"1"
            table = np.insert(table, i, 0, axis=1)
            table[:, i, 0] = 48 + arrays[i][start:start + rows]
        cells = table.view(np.uint8)
        cells[:, :, 23] = ord(",")
        cells[:, -1, 23] = ord("\n")
        chunks.append(cells.tobytes().translate(None, b"\0"))
    _write_bytes(path, b"".join(chunks[:2]), *chunks[2:])  # the header, with the first block


def _finite_or_none(value: float) -> float | None:
    """A horizon for report.json; an infinite one is written as null."""
    return value if math.isfinite(value) else None


def _kappa_grid(numeric: NumericSettings, default_min: float,
                default_max: float) -> np.ndarray:
    """Log-spaced wavenumber grid; the configured edges override the defaults."""
    if numeric.kappa_min_per_m is not None:
        default_min, default_max = numeric.kappa_min_per_m, numeric.kappa_max_per_m
    return np.geomspace(default_min, default_max, numeric.kappa_points)


# The horizon columns, the only ones that may hold +inf (before release, on a held trap).
_INFINITE_COLUMNS = ("r_apparent_m", "particle_horizon_comoving_m")


@dataclass
class _Run:
    """What one run's stages share: the inputs, the report and the trajectory."""
    config: ScenarioConfig
    report: RunReport
    trajectory: ScaleTrajectory | None = None


def _derive(r: _Run) -> dict:
    spec, derived = r.config.condensate, r.config.derived
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
    return payload


def _evolve(r: _Run) -> dict:
    spec, numeric, derived = r.config.condensate, r.config.numeric, r.config.derived
    D, omega0 = spec.trap.dimension, spec.trap.longitudinal_frequency
    trajectory = r.trajectory = integrate_scale_factor(
        omega0, D, t_max=numeric.t_max_omega0 / omega0,
        n_samples=numeric.trajectory_samples, held=r.config.expansion_mode == "hold")
    tau_prefactor = 1.0  # quasi-2D is the flat case: tau is the clock
    if D == 3:
        conformal0 = geometry.conformal_factor(
            derived.sound_speed, natural_coupling(derived.effective_coupling), D)
        tau_prefactor = math.sqrt(conformal0) * derived.sound_speed
    return {"t_s": trajectory.ts, "b": trajectory.bs, "bdot_per_s": trajectory.bdots,
            "tau": tau_prefactor * trajectory.clocks}


def _horizons(r: _Run) -> dict:
    trajectory, c0 = r.trajectory, r.config.derived.sound_speed
    ts = trajectory.ts[1:]  # the apparent horizon is infinite at t = 0; ts[-1] = t_max
    apparent = geometry.apparent_horizon(trajectory, ts, c0)
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
    return {"t_s": ts, "r_apparent_m": apparent,
            "particle_horizon_comoving_m": geometry.particle_horizon(trajectory, ts, c0)}


def _spectrum_2d(r: _Run) -> dict:
    derived, xi = r.config.derived, r.config.derived.healing_length
    kappas = _kappa_grid(r.config.numeric, 2.0 * math.pi / (50.0 * xi),
                         4.0 * math.pi / xi)
    with np.errstate(over="raise"):
        spectrum = q2d.spectrum_2d_grid(
            kappas, derived.effective_coupling, derived.chemical_potential,
            r.config.condensate.species.mass)
        scaled = spectrum.values / xi**2
    r.report.spectrum_paths["spectrum-2d"] = "spectrum.csv"
    return {"kappa_per_m": kappas, "C_m2": spectrum.values, "C_over_xi2": scaled}


def _spectrum_3d(r: _Run) -> dict:
    species, derived = r.config.condensate.species, r.config.derived
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
    r.report.spectrum_paths["spectrum-3d"] = "spectrum.csv"

    omega0 = r.config.condensate.trap.longitudinal_frequency
    estimate = threed.max_contrast_estimate(
        species.scattering_length, derived.peak_density, omega0, omega_xi, alpha)
    if estimate.short_linear_window:
        r.report.warnings.append({
            "source": "short_linear_window",
            "message": f"omega_xi/omega0 = {omega_xi / omega0:.3g} is below 10: the "
                       "max_contrast estimate needs a long linear-expansion window",
        })
    r.report.reference_comparison.append(_comparison_row(
        "threed.max_contrast_prefactor", estimate.prefactor))
    r.report.reference_comparison.append(_comparison_row(
        "threed.max_contrast", estimate.value, note="order-of-magnitude reference"))
    return {"kappa_per_m": kappas, "phase_variance_m3": spectrum.phase_variance,
            "C3d_m3": spectrum.density_values, "in_band": spectrum.in_band}


class Stage(NamedTuple):
    """A stage body, which returns its file's contents (a JSON payload or CSV
    columns), the file, the stage it needs and the scenarios it applies to."""
    body: Callable[[_Run], dict]
    file: str
    needs: str | None = None
    dimensions: tuple[int, ...] = DIMENSIONS
    modes: tuple[str, ...] = ("free", "hold")


# The pipeline, in run order; a stage's needs come before it. derive always
# runs and "report" requests every stage that applies to the scenario. A
# requested stage writes its file; a stage that is only needed by another
# runs and its contents are dropped. A held trap never releases (alpha = 0),
# so it has no 3D spectrum.
STAGES: dict[str, Stage] = {
    "derive": Stage(_derive, "derived.json"),
    "evolve": Stage(_evolve, "trajectory.csv", needs="derive"),
    "horizons": Stage(_horizons, "horizons.csv", needs="evolve"),
    "spectrum-2d": Stage(_spectrum_2d, "spectrum.csv", needs="derive", dimensions=(2,)),
    "spectrum-3d": Stage(_spectrum_3d, "spectrum.csv", needs="evolve", dimensions=(3,),
                         modes=("free",)),
    "report": Stage(lambda r: r.report.to_dict(), "report.json", needs="derive"),
}


def run(config: ScenarioConfig, out_dir) -> RunReport:
    """Run the stages the analyses ask for and write the run directory: each
    requested stage's file, then manifest.json, the run's only writes.

    An output directory that cannot be created raises ConfigError. On a
    stage failure the manifest is written with the failing stage named, the
    partial outputs are left in place and StageError carries the stage name.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
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
    state = _Run(config, report)
    try:
        for name in [name for name in STAGES if name in needed]:
            try:
                stage = STAGES[name]
                contents = stage.body(state)
                if name in writes:
                    if stage.file.endswith(".csv"):
                        _write_csv(out / stage.file, contents, _INFINITE_COLUMNS)
                    else:
                        _write_json(out / stage.file, contents)
                    manifest["files"][stage.file.rpartition(".")[0]] = stage.file
            except Exception as exc:
                manifest["failed_stage"] = name
                raise StageError(name, exc) from exc
        manifest["complete"] = True
    finally:
        _write_json(out / "manifest.json", manifest)
    return report
