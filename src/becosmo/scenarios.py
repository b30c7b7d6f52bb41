"""Scenario configuration, presets, and the end-to-end run pipeline.

A scenario bundles the condensate definition, the trap schedule, the
requested analyses and the numeric settings. Two presets encode the
benchmark scenarios whose published reference values the report compares
against: a quasi-2D sodium disk and a spherical 3D rubidium cloud.

Config files are JSON; every physical key carries an explicit SI unit
suffix. A run writes one directory: manifest.json, derived.json,
trajectory.csv, horizons.csv, spectrum.csv and report.json, depending on
the analyses requested.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import geometry, q2d, threed
from .condensate import (AtomSpecies, CondensateSpec, DerivedParams,
                         InteractionLaw, TrapGeometry, natural_coupling,
                         sound_frequency_at_healing_scale, swave_coupling,
                         thomas_fermi, validate_dimensional_reduction)
from .scaling import (ExpansionProtocol, integrate_scale_factor,
                      write_trajectory_csv)

ANALYSES = ("derive", "evolve", "horizons", "spectrum-2d", "spectrum-3d", "report")
_TRAJECTORY_STAGES = {"evolve", "horizons", "spectrum-3d", "report"}


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
    ode_tolerance: float = 1e-10
    t_max_omega0: float = 200.0        # integration span in units of 1/omega0
    trajectory_samples: int = 400
    kappa_min: float | None = None     # 1/m; None -> scenario default grid
    kappa_max: float | None = None
    kappa_points: int = 64

    def __post_init__(self):
        if not 1e-14 < self.ode_tolerance < 1e-4:
            raise ConfigError("numeric.ode_tolerance must lie in (1e-14, 1e-4)")
        if self.t_max_omega0 <= 0:
            raise ConfigError("numeric.t_max_omega0 must be positive")
        if self.kappa_points < 2:
            raise ConfigError("numeric.kappa_points must be at least 2")
        if (self.kappa_min is not None) != (self.kappa_max is not None):
            raise ConfigError("numeric.kappa_min and kappa_max must be set together")
        if self.kappa_min is not None:
            if self.kappa_min <= 0 or self.kappa_max <= self.kappa_min:
                raise ConfigError("kappa grid must be positive with kappa_min < kappa_max")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    condensate: CondensateSpec
    expansion_mode: str = "free"       # "free" | "hold"
    analysis: tuple[str, ...] = ("derive",)
    numeric: NumericSettings = field(default_factory=NumericSettings)

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
                "interaction_exponent": cond.interaction.exponent,
                "omega0_rad_per_s": cond.trap.longitudinal_frequency,
            },
            "expansion": {"mode": self.expansion_mode},
            "analysis": list(self.analysis),
            "numeric": {
                "ode_tolerance": self.numeric.ode_tolerance,
                "t_max_omega0": self.numeric.t_max_omega0,
                "trajectory_samples": self.numeric.trajectory_samples,
                "kappa_points": self.numeric.kappa_points,
            },
        }
        if cond.trap.transverse_frequency is not None:
            d["condensate"]["omega_z_rad_per_s"] = cond.trap.transverse_frequency
        if self.numeric.kappa_min is not None:
            d["numeric"]["kappa_min_per_m"] = self.numeric.kappa_min
            d["numeric"]["kappa_max_per_m"] = self.numeric.kappa_max
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


def validate_analysis(analysis, dimension: int) -> None:
    for a in analysis:
        if a not in ANALYSES:
            raise ConfigError(f"unknown analysis {a!r}; valid: {ANALYSES}")
    if "spectrum-2d" in analysis and dimension != 2:
        raise ConfigError("spectrum-2d requires a 2D condensate")
    if "spectrum-3d" in analysis and dimension != 3:
        raise ConfigError("spectrum-3d requires a 3D condensate")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing field {context}.{key}")
    return mapping[key]


def _species_from_config(cond: dict) -> AtomSpecies:
    spec = _require(cond, "species", "condensate")
    override = cond.get("scattering_length_m")
    if isinstance(spec, str):
        try:
            return AtomSpecies.from_table(spec, override)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(spec, dict):
        try:
            return AtomSpecies(
                name=_require(spec, "name", "condensate.species"),
                mass=float(_require(spec, "mass_kg", "condensate.species")),
                scattering_length=float(override if override is not None
                                        else _require(spec, "scattering_length_m",
                                                      "condensate.species")),
            )
        except ValueError as exc:
            raise ConfigError(f"condensate.species: {exc}") from exc
    raise ConfigError("condensate.species must be a table name or an inline object")


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    name = _require(data, "name", "scenario")
    cond = _require(data, "condensate", "scenario")
    species = _species_from_config(cond)
    try:
        trap = TrapGeometry(
            dimension=int(_require(cond, "dimension", "condensate")),
            longitudinal_frequency=float(_require(cond, "omega0_rad_per_s", "condensate")),
            transverse_frequency=(float(cond["omega_z_rad_per_s"])
                                  if "omega_z_rad_per_s" in cond else None),
        )
        interaction = InteractionLaw(
            exponent=float(cond.get("interaction_exponent", 2.0)),
            bare_coupling=cond.get("bare_coupling"),
        )
        condensate = CondensateSpec(
            species=species, trap=trap,
            atom_number=float(_require(cond, "atom_number", "condensate")),
            interaction=interaction,
        )
    except ValueError as exc:
        raise ConfigError(f"condensate: {exc}") from exc

    expansion = data.get("expansion", {"mode": "free"})
    mode = expansion.get("mode", "free")
    if mode not in ("free", "hold"):
        raise ConfigError(f"expansion.mode must be 'free' or 'hold', got {mode!r}")

    analysis = tuple(data.get("analysis", ["derive"]))
    validate_analysis(analysis, trap.dimension)

    num = data.get("numeric", {})
    numeric = NumericSettings(
        ode_tolerance=float(num.get("ode_tolerance", 1e-10)),
        t_max_omega0=float(num.get("t_max_omega0", 200.0)),
        trajectory_samples=int(num.get("trajectory_samples", 400)),
        kappa_min=(float(num["kappa_min_per_m"]) if "kappa_min_per_m" in num else None),
        kappa_max=(float(num["kappa_max_per_m"]) if "kappa_max_per_m" in num else None),
        kappa_points=int(num.get("kappa_points", 64)),
    )
    return ScenarioConfig(name=str(name), condensate=condensate,
                          expansion_mode=mode, analysis=analysis, numeric=numeric)


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
    derived: dict
    validity: list
    horizon_summary: dict
    spectrum_paths: dict
    reference_comparison: list
    warnings: list

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "output_dir": self.output_dir,
            "derived": self.derived,
            "validity": self.validity,
            "horizon_summary": self.horizon_summary,
            "spectrum_paths": self.spectrum_paths,
            "reference_comparison": self.reference_comparison,
            "warnings": self.warnings,
        }


def _comparison_row(key: str, computed: float, note: str | None = None) -> dict:
    ref = _REFERENCES[key]
    row = {"key": key, "computed": computed, "reference": ref,
           "ratio": computed / ref}
    if note:
        row["note"] = note
    return row


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _kappa_grid(numeric: NumericSettings, default_min: float,
                default_max: float) -> np.ndarray:
    """Log-spaced wavenumber grid; the configured edges override the defaults."""
    if numeric.kappa_min is not None:
        default_min, default_max = numeric.kappa_min, numeric.kappa_max
    return np.geomspace(default_min, default_max, numeric.kappa_points)


def run(config: ScenarioConfig, out_dir) -> RunReport:
    """Execute the requested analyses and write the run directory.

    Stages run in dependency order (derive, trajectory, horizons, spectrum,
    report). On failure the manifest is written with the failing stage named
    and the partial outputs are left in place.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    analysis = config.analysis
    manifest = {
        "scenario": config.to_dict(),
        "analyses": list(analysis),
        "files": {},
        "complete": False,
        "failed_stage": None,
        "warnings": [],
    }
    warnings: list[dict] = []
    spectrum_paths: dict[str, str] = {}
    horizon_summary: dict = {}
    comparison: list[dict] = []

    def fail(stage: str, exc: Exception):
        manifest["failed_stage"] = stage
        manifest["warnings"] = warnings
        _write_json(out / "manifest.json", manifest)
        raise StageError(stage, exc)

    # -- derive ----------------------------------------------------------------
    try:
        spec = config.condensate
        derived = thomas_fermi(spec)
        validity = validate_dimensional_reduction(spec, derived)
        omega_xi = sound_frequency_at_healing_scale(derived)
    except Exception as exc:
        fail("derive", exc)

    for check in validity.checks:
        if not check.passed:
            warnings.append({
                "source": f"validity:{check.name}",
                "message": f"{check.description}: ratio {check.ratio:.3g} "
                           f"below threshold {check.threshold:g}",
            })

    derived_payload = derived.as_dict()
    derived_payload["omega_xi_rad_per_s"] = omega_xi
    derived_payload["validity"] = [vars(c) for c in validity.checks]
    _write_json(out / "derived.json", derived_payload)
    manifest["files"]["derived"] = "derived.json"

    D = spec.trap.dimension
    omega0 = spec.trap.longitudinal_frequency
    if D == 2:
        comparison.append(_comparison_row("q2d.transverse_width_m",
                                          derived.transverse_width))
        comparison.append(_comparison_row("q2d.healing_length_m",
                                          derived.healing_length))
        contrast = q2d.windowed_contrast(
            2.0 * math.pi / derived.healing_length, derived.healing_length,
            derived.effective_coupling, derived.chemical_potential,
            spec.species.mass)
        comparison.append(_comparison_row("q2d.windowed_contrast", contrast))
    elif D == 3:
        comparison.append(_comparison_row("threed.thomas_fermi_radius_m",
                                          derived.thomas_fermi_radius))
        omega_min = 2.0 * math.pi * derived.sound_speed / derived.thomas_fermi_radius
        comparison.append(_comparison_row("threed.min_phonon_frequency_rad_per_s",
                                          omega_min))

    # -- trajectory --------------------------------------------------------------
    trajectory = None
    if _TRAJECTORY_STAGES & set(analysis):
        try:
            trajectory = integrate_scale_factor(
                config.protocol(), D, spec.interaction.exponent,
                t_max=config.numeric.t_max_omega0 / omega0,
                tolerance=config.numeric.ode_tolerance,
                n_samples=config.numeric.trajectory_samples)
        except Exception as exc:
            fail("evolve", exc)
        if "evolve" in analysis or "report" in analysis:
            tau_prefactor = 1.0
            if not geometry.flatness_exponent(D, spec.interaction.exponent).is_flat:
                conformal0 = geometry.conformal_factor(
                    derived.sound_speed, natural_coupling(derived.effective_coupling), D)
                tau_prefactor = math.sqrt(conformal0) * derived.sound_speed
            write_trajectory_csv(trajectory, out / "trajectory.csv", tau_prefactor)
            manifest["files"]["trajectory"] = "trajectory.csv"

    # -- horizons ----------------------------------------------------------------
    if trajectory is not None and ("horizons" in analysis or "report" in analysis):
        try:
            c0 = derived.sound_speed
            geometry.write_horizons_csv(trajectory, c0, out / "horizons.csv")
            manifest["files"]["horizons"] = "horizons.csv"
            settled = geometry.settled_apparent_horizon(trajectory, c0)
            horizon_summary = {
                "settled_apparent_m": settled,
                "apparent_at_t_max_m": geometry.apparent_horizon(
                    trajectory, trajectory.t_max, c0),
                "particle_horizon_initial_m": geometry.particle_horizon(
                    trajectory, 0.0, c0),
                "note": "valid for wavelengths well above the healing length",
            }
            if D == 2 and settled is not None:
                comparison.append(_comparison_row(
                    "q2d.apparent_horizon_settled_m", settled,
                    note="formula value c0/omega0; the published figure is "
                         "one order of magnitude smaller, ratio reported as is"))
        except Exception as exc:
            fail("horizons", exc)

    # -- spectra -----------------------------------------------------------------
    if "spectrum-2d" in analysis or ("report" in analysis and D == 2):
        try:
            xi = derived.healing_length
            kappas = _kappa_grid(config.numeric, 2.0 * math.pi / (50.0 * xi),
                                 4.0 * math.pi / xi)
            spectrum = q2d.spectrum_2d_grid(
                kappas, derived.effective_coupling, derived.chemical_potential,
                spec.species.mass, scenario=config.name)
            q2d.write_spectrum_2d_csv(spectrum, xi, out / "spectrum.csv")
            spectrum_paths["spectrum-2d"] = "spectrum.csv"
            manifest["files"]["spectrum"] = "spectrum.csv"
        except Exception as exc:
            fail("spectrum-2d", exc)

    if trajectory is not None and (
            "spectrum-3d" in analysis or ("report" in analysis and D == 3)):
        try:
            xi = derived.healing_length
            c0 = derived.sound_speed
            alpha = trajectory.asymptotic_velocity
            g_nat = natural_coupling(swave_coupling(spec.species))
            kmax = threed.kappa_band_edge(xi, alpha, omega_xi)
            kappas = _kappa_grid(config.numeric, kmax / 100.0, kmax)
            spectrum3 = threed.spectrum_3d_grid(
                kappas, xi, c0, derived.peak_density, alpha, g_nat, omega_xi,
                scenario=config.name)
            clipped = int(np.sum(~spectrum3.in_band))
            if clipped:
                warnings.append({
                    "source": "band_clip",
                    "message": f"{clipped} of {len(kappas)} grid points beyond "
                               f"kappa_max = {kmax:.4e} 1/m (hydrodynamic band)",
                })
            threed.write_spectrum_3d_csv(spectrum3, out / "spectrum.csv")
            spectrum_paths["spectrum-3d"] = "spectrum.csv"
            manifest["files"]["spectrum"] = "spectrum.csv"

            estimate = threed.max_contrast_estimate(
                spec.species.scattering_length, derived.peak_density,
                omega0, omega_xi, alpha, xi)
            comparison.append(_comparison_row("threed.max_contrast_prefactor",
                                              estimate.prefactor))
            comparison.append(_comparison_row(
                "threed.max_contrast", estimate.value,
                note="order-of-magnitude reference"))
        except Exception as exc:
            fail("spectrum-3d", exc)

    report = RunReport(
        scenario=config.name,
        output_dir=str(out),
        derived=derived_payload,
        validity=[vars(c) for c in validity.checks],
        horizon_summary=horizon_summary,
        spectrum_paths=spectrum_paths,
        reference_comparison=comparison,
        warnings=warnings,
    )
    if "report" in analysis:
        _write_json(out / "report.json", report.to_dict())
        manifest["files"]["report"] = "report.json"

    manifest["complete"] = True
    manifest["warnings"] = warnings
    _write_json(out / "manifest.json", manifest)
    return report
