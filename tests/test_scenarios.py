import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import becosmo
from becosmo import scenarios
from becosmo.cli import main
from becosmo.condensate import thomas_fermi
from becosmo.scaling import ScaleTrajectory
from becosmo.scenarios import (PRESETS, ConfigError, StageError,
                               config_from_dict, load_scenario, run)


def _preset_dict(name, **overrides):
    data = json.loads(json.dumps(PRESETS[name]))  # deep copy
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            data[section][field] = value
        else:
            data[section] = value
    return data


class TestLoading:
    def test_sodium_preset(self):
        config = load_scenario("sodium-q2d")
        trap = config.condensate.trap
        assert trap.dimension == 2
        assert trap.longitudinal_frequency == pytest.approx(2 * math.pi * 10.0)
        assert trap.transverse_frequency == pytest.approx(2 * math.pi * 790.0)
        assert config.condensate.atom_number == 1e5
        assert config.condensate.species.scattering_length == pytest.approx(2.8e-9)
        assert "spectrum-2d" in config.analysis

    def test_rubidium_preset(self):
        config = load_scenario("rubidium-3d")
        assert config.condensate.atom_number == 1e7
        assert config.condensate.trap.longitudinal_frequency == pytest.approx(
            2 * math.pi * 200.0)
        assert config.condensate.trap.dimension == 3

    def test_preset_round_trip(self):
        for name in PRESETS:
            config = load_scenario(name)
            assert config_from_dict(config.to_dict()) == config

    def test_file_round_trip(self, tmp_path):
        config = load_scenario("sodium-q2d")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config.to_dict()))
        assert load_scenario(path) == config

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_scenario("no-such-preset")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_missing_field_named(self, tmp_path):
        data = _preset_dict("sodium-q2d")
        del data["condensate"]["atom_number"]
        with pytest.raises(ConfigError, match="condensate.atom_number"):
            config_from_dict(data)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(_preset_dict("sodium-q2d", **{"condensate.atom_number": 0}))
        with pytest.raises(ConfigError):
            config_from_dict(_preset_dict("sodium-q2d",
                                          **{"expansion": {"mode": "bounce"}}))
        with pytest.raises(ConfigError):
            config_from_dict(_preset_dict("sodium-q2d", analysis=["spectral"]))
        with pytest.raises(ConfigError):
            config_from_dict(_preset_dict("sodium-q2d", analysis=["spectrum-3d"]))
        with pytest.raises(ConfigError):
            config_from_dict(_preset_dict("sodium-q2d",
                                          numeric={"ode_tolerance": 1.0}))
        with pytest.raises(ConfigError):
            config_from_dict(_preset_dict(
                "sodium-q2d", numeric={"kappa_min_per_m": 10.0}))

    def test_inline_species(self):
        data = _preset_dict("sodium-q2d")
        data["condensate"]["species"] = {
            "name": "custom", "mass_kg": 3.8e-26, "scattering_length_m": 3e-9}
        config = config_from_dict(data)
        assert config.condensate.species.name == "custom"

    def test_scattering_length_override(self):
        data = _preset_dict("sodium-q2d")
        data["condensate"]["scattering_length_m"] = 1.9e-9
        config = config_from_dict(data)
        assert config.condensate.species.scattering_length == pytest.approx(1.9e-9)

    def test_readme_configs_load_and_derive(self):
        # every JSON block of the README is a scenario the loader accepts
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = [block.split("```", 1)[0] for block in readme.split("```json\n")[1:]]
        assert blocks
        for block in blocks:
            config = config_from_dict(json.loads(block))
            assert thomas_fermi(config.condensate).healing_length > 0.0


# Inputs the config boundary must reject: each is a ConfigError, and the CLI
# exits 1 without writing anything.
_BAD_INPUTS = {
    "nan-omega0": ("sodium-q2d", "condensate.omega0_rad_per_s", math.nan),
    "nan-atom-number": ("sodium-q2d", "condensate.atom_number", math.nan),
    "inf-omega0": ("rubidium-3d", "condensate.omega0_rad_per_s", math.inf),
    "tiny-omega0": ("sodium-q2d", "condensate.omega0_rad_per_s", 1e-300),
    "huge-omega0": ("rubidium-3d", "condensate.omega0_rad_per_s", 1e200),
    "inf-omega-z": ("sodium-q2d", "condensate.omega_z_rad_per_s", math.inf),
    "zero-samples": ("sodium-q2d", "numeric.trajectory_samples", 0),
    "too-many-samples": ("sodium-q2d", "numeric.trajectory_samples", 10**12),
    "too-many-kappa-points": ("rubidium-3d", "numeric.kappa_points", 1_000_001),
    "fractional-dimension": ("rubidium-3d", "condensate.dimension", 3.7),
    "boolean-dimension": ("rubidium-3d", "condensate.dimension", True),
    "expansion-list": ("sodium-q2d", "expansion", [1]),
    "string-tolerance": ("sodium-q2d", "numeric.ode_tolerance", "x"),
    "string-t-max": ("sodium-q2d", "numeric.t_max_omega0", "200"),
    "analysis-string": ("sodium-q2d", "analysis", "derive"),
    "analysis-item-list": ("sodium-q2d", "analysis", [["derive"]]),
    "name-list": ("sodium-q2d", "name", ["na"]),
    "species-number": ("sodium-q2d", "condensate.species", 1.0),
    "hold-spectrum-3d": ("rubidium-3d", "expansion", {"mode": "hold"}),
    "unknown-top-key": ("sodium-q2d", "comment", "x"),
    "unknown-condensate-key": ("sodium-q2d", "condensate.bare_coupling", 1.0),
    "unknown-expansion-key": ("sodium-q2d", "expansion", {"mode": "free", "rate": 1}),
    "unknown-numeric-key": ("sodium-q2d", "numeric", {"tolerance": 1e-10}),
    "unknown-species-key": ("sodium-q2d", "condensate.species",
                            {"name": "x", "mass_kg": 3.8e-26,
                             "scattering_length_m": 3e-9, "spin": 1}),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_is_a_config_error(case, tmp_path):
    preset, key, value = _BAD_INPUTS[case]
    data = _preset_dict(preset)
    section, _, field = key.rpartition(".")
    (data[section] if section else data)[field] = value
    with pytest.raises(ConfigError):
        config_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["report", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _leaves(child, path + (index,))
    else:
        yield path


_PRESET_LEAVES = [(name, path) for name in PRESETS for path in _leaves(PRESETS[name])]
_MUTANTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 2.5, 3.7,
                     "x", "", [], [1.0], {}, None, True]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, 5), st.text(max_size=4))


@settings(max_examples=300, deadline=None)
@given(leaf=st.sampled_from(_PRESET_LEAVES), value=_MUTANTS)
def test_mutated_preset_rejects_or_round_trips(leaf, value):
    name, path = leaf
    data = json.loads(json.dumps(PRESETS[name]))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        config = config_from_dict(data)
    except ConfigError:
        return
    assert config_from_dict(config.to_dict()) == config
    thomas_fermi(config.condensate)  # an accepted model always derives


class TestRun:
    def test_sodium_full_run(self, tmp_path):
        out = tmp_path / "na"
        report = run(load_scenario("sodium-q2d"), out)
        for name in ("manifest.json", "derived.json", "trajectory.csv",
                     "horizons.csv", "spectrum.csv", "report.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert manifest["failed_stage"] is None
        solver = manifest["solvers"]["scale_ode"]
        assert set(solver) == {"method", "rtol", "nfev", "steps"}
        assert solver["method"] == "dormand-prince-5(4)"
        assert 0.0 < solver["rtol"] < 1e-10
        for count in (solver["nfev"], solver["steps"]):
            assert isinstance(count, int) and count > 0
        rows = {r["key"]: r for r in report.reference_comparison}
        assert rows["q2d.windowed_contrast"]["ratio"] == pytest.approx(1.0, abs=0.01)
        assert rows["q2d.transverse_width_m"]["ratio"] == pytest.approx(1.0, abs=0.01)
        assert rows["q2d.healing_length_m"]["ratio"] == pytest.approx(1.0, abs=0.02)
        horizon_row = rows["q2d.apparent_horizon_settled_m"]
        assert horizon_row["ratio"] == pytest.approx(10.0, abs=0.5)
        assert "note" in horizon_row
        assert report.warnings == []
        for row in report.reference_comparison:
            assert {"key", "computed", "reference", "ratio"} <= set(row)

    def test_rubidium_full_run(self, tmp_path):
        report = run(load_scenario("rubidium-3d"), tmp_path / "rb")
        rows = {r["key"]: r for r in report.reference_comparison}
        assert rows["threed.thomas_fermi_radius_m"]["ratio"] == pytest.approx(
            1.0, abs=0.02)
        assert rows["threed.min_phonon_frequency_rad_per_s"]["ratio"] == \
            pytest.approx(1.0, abs=0.02)
        assert rows["threed.max_contrast_prefactor"]["computed"] == pytest.approx(
            30.3, abs=0.1)
        assert 0.015 <= rows["threed.max_contrast"]["computed"] <= 0.022

    def test_empty_analysis_derive_only(self, tmp_path):
        data = _preset_dict("sodium-q2d", analysis=[])
        out = tmp_path / "noop"
        run(config_from_dict(data), out)
        assert (out / "derived.json").exists()
        assert not (out / "trajectory.csv").exists()
        assert not (out / "spectrum.csv").exists()

    def test_needed_stage_runs_without_writing(self, tmp_path):
        out = tmp_path / "needed"
        run(config_from_dict(_preset_dict("rubidium-3d",
                                          analysis=["horizons", "spectrum-3d"])), out)
        assert {p.name for p in out.iterdir()} == {
            "manifest.json", "derived.json", "horizons.csv", "spectrum.csv"}

    def test_stage_failure_keeps_partial_outputs(self, tmp_path):
        # kappa edges of 1e-300 and 1e300 overflow the 3D spectrum
        data = _preset_dict("rubidium-3d")
        data["numeric"].update(kappa_min_per_m=1e-300, kappa_max_per_m=1e300)
        out = tmp_path / "fail"
        with pytest.raises(StageError) as err:
            run(config_from_dict(data), out)
        assert err.value.stage == "spectrum-3d"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert manifest["failed_stage"] == "spectrum-3d"
        for name in ("derived.json", "trajectory.csv", "horizons.csv"):
            assert (out / name).exists(), name
        assert not (out / "spectrum.csv").exists()

    # A failure anywhere inside a stage, file writes and reference rows
    # included, names that stage in the error and in the manifest. A patched
    # writer fails only for the file of the stage under test.
    _STAGE_FILES = {"derive": "derived.json", "evolve": "trajectory.csv",
                    "horizons": "horizons.csv", "spectrum-2d": "spectrum.csv"}

    @pytest.mark.parametrize("preset, owner, attr, stage", [
        ("sodium-q2d", "scenarios", "_write_json", "derive"),
        ("sodium-q2d", "q2d", "windowed_contrast", "derive"),
        ("rubidium-3d", "scenarios", "_comparison_row", "derive"),
        ("sodium-q2d", "scenarios", "_write_csv", "evolve"),
        ("sodium-q2d", "scenarios", "_write_csv", "horizons"),
        ("sodium-q2d", "scenarios", "_write_csv", "spectrum-2d"),
        ("rubidium-3d", "threed", "max_contrast_estimate", "spectrum-3d"),
        ("sodium-q2d", "RunReport", "to_dict", "report"),
    ])
    def test_failure_inside_stage_names_it(self, tmp_path, monkeypatch,
                                           preset, owner, attr, stage):
        target = scenarios if owner == "scenarios" else getattr(scenarios, owner)
        original = getattr(target, attr)

        def broken(*args, **kwargs):
            if attr.startswith("_write_") and args[0].name != self._STAGE_FILES[stage]:
                return original(*args, **kwargs)
            raise OSError("injected")

        monkeypatch.setattr(target, attr, broken)
        out = tmp_path / "run"
        with pytest.raises(StageError) as err:
            run(load_scenario(preset), out)
        assert err.value.stage == stage
        assert isinstance(err.value.cause, OSError)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_stage"] == stage
        assert manifest["complete"] is False

    def test_non_finite_value_fails_its_stage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenarios, "sound_frequency_at_healing_scale",
                            lambda derived: math.nan)
        out = tmp_path / "nan"
        with pytest.raises(StageError) as err:
            run(load_scenario("sodium-q2d"), out)
        assert err.value.stage == "derive"
        assert isinstance(err.value.cause, ValueError)
        assert not (out / "derived.json").exists()

    def test_horizons_stage_lookups_do_not_grow_with_samples(self, tmp_path,
                                                             monkeypatch):
        calls = []
        for method in ("b", "bdot", "clock", "horizon_integral"):
            original = getattr(ScaleTrajectory, method)
            def counted(self, t, _original=original, _method=method):
                calls.append(_method)
                return _original(self, t)
            monkeypatch.setattr(ScaleTrajectory, method, counted)
        stage = scenarios.STAGES["horizons"]
        per_stage = {}

        def horizons(r):
            calls.clear()
            stage.body(r)
            per_stage[r.config.numeric.trajectory_samples] = sorted(calls)

        monkeypatch.setitem(scenarios.STAGES, "horizons", stage._replace(body=horizons))
        for samples in (50, 400, 4000):
            data = _preset_dict("sodium-q2d", analysis=["horizons"])
            data["numeric"]["trajectory_samples"] = samples
            run(config_from_dict(data), tmp_path / str(samples))
        # one array lookup each for the CSV columns and the two summary points
        assert per_stage[50] == per_stage[400] == per_stage[4000] == [
            "b", "b", "bdot", "bdot", "horizon_integral", "horizon_integral"]

    def test_band_clip_warning(self, tmp_path):
        report = run(load_scenario("rubidium-3d"), tmp_path / "clip")
        assert report.warnings == []
        data = _preset_dict("rubidium-3d")
        data["numeric"]["kappa_min_per_m"] = 1e5
        data["numeric"]["kappa_max_per_m"] = 1e8
        clipped = run(config_from_dict(data), tmp_path / "clip2")
        sources = [w["source"] for w in clipped.warnings]
        assert "band_clip" in sources

    def test_validity_warning_named(self, tmp_path):
        data = _preset_dict("sodium-q2d", analysis=["derive"])
        data["condensate"]["omega_z_rad_per_s"] = 2 * math.pi * 80.0
        report = run(config_from_dict(data), tmp_path / "loose")
        sources = [w["source"] for w in report.warnings]
        assert "validity:mode_mixing_suppression" in sources


class TestCli:
    def test_report_exit_zero(self, tmp_path):
        assert main(["report", "--scenario", "sodium-q2d",
                     "--out", str(tmp_path / "run")]) == 0

    def test_derive_only(self, tmp_path):
        out = tmp_path / "derive"
        assert main(["derive", "--scenario", "rubidium-3d", "--out", str(out)]) == 0
        assert (out / "derived.json").exists()
        assert not (out / "trajectory.csv").exists()

    def test_config_error_exit_one(self, tmp_path):
        assert main(["derive", "--scenario", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "x")]) == 1

    def test_numeric_failure_exit_two(self, tmp_path, capsys):
        assert main(["spectrum3d", "--scenario", "rubidium-3d", "--out",
                     str(tmp_path / "y"), "--kappa-min", "1e-300",
                     "--kappa-max", "1e300"]) == 2
        assert "stage 'spectrum-3d' failed" in capsys.readouterr().err

    # The model is quasi-2D or 3D with the quartic coupling; any other is
    # rejected at load, before a run directory exists.
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("field, value", [
        ("dimension", 1), ("interaction_exponent", 1.5),
        ("interaction_exponent", 3.0), ("interaction_exponent", 5.0 / 3.0)])
    def test_unsupported_model_exit_one(self, tmp_path, capsys, preset, field, value):
        data = _preset_dict(preset)
        data["condensate"][field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "never"
        assert main(["report", "--scenario", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and field in err
        assert not out.exists()

    def test_warning_exit_three(self, tmp_path):
        data = _preset_dict("sodium-q2d", analysis=["derive"])
        data["condensate"]["omega_z_rad_per_s"] = 2 * math.pi * 80.0
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(data))
        assert main(["derive", "--scenario", str(path),
                     "--out", str(tmp_path / "z")]) == 3

    # b(t) never reaches the linear regime, so every particle horizon is
    # infinite; the run says so and exits 3. Over the two shortest spans b
    # stays so close to 1 that it fits any line, so the fit alone would give
    # a finite horizon (about 1.0 c0/omega0 against the exact pi/2).
    @pytest.mark.parametrize("t_max_omega0", [0.5, 1e-12, 1e-3])
    def test_short_free_run_exit_three(self, tmp_path, t_max_omega0):
        data = _preset_dict("sodium-q2d", **{"numeric.t_max_omega0": t_max_omega0})
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "short"
        assert main(["report", "--scenario", str(path), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert [w["source"] for w in report["warnings"]] == ["evolve:linear_regime"]
        assert report["horizon_summary"]["particle_horizon_initial_m"] is None

    def test_wrong_dimension_spectrum_exit_one(self, tmp_path):
        assert main(["spectrum2d", "--scenario", "rubidium-3d",
                     "--out", str(tmp_path / "w")]) == 1
        assert main(["spectrum3d", "--scenario", "sodium-q2d",
                     "--out", str(tmp_path / "w2")]) == 1

    def test_spectrum3d_writes_grid(self, tmp_path):
        out = tmp_path / "rb3"
        assert main(["spectrum3d", "--scenario", "rubidium-3d",
                     "--out", str(out)]) == 0
        header = (out / "spectrum.csv").read_text().splitlines()[0]
        assert header == "kappa_per_m,phase_variance_m3,C3d_m3,in_band"

    def test_kappa_overrides(self, tmp_path):
        out = tmp_path / "grid"
        code = main(["spectrum2d", "--scenario", "sodium-q2d", "--out", str(out),
                     "--kappa-min", "1e5", "--kappa-max", "1e6",
                     "--kappa-points", "10"])
        assert code == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 11
        first = float(lines[1].split(",")[0])
        last = float(lines[-1].split(",")[0])
        assert first == pytest.approx(1e5, rel=1e-9)
        assert last == pytest.approx(1e6, rel=1e-9)

    _FILES = {
        "derive": {"manifest.json", "derived.json"},
        "evolve": {"manifest.json", "derived.json", "trajectory.csv"},
        "horizons": {"manifest.json", "derived.json", "trajectory.csv",
                     "horizons.csv"},
        "spectrum2d": {"manifest.json", "derived.json", "spectrum.csv"},
        "spectrum3d": {"manifest.json", "derived.json", "trajectory.csv",
                       "spectrum.csv"},
        "report": {"manifest.json", "derived.json", "trajectory.csv",
                   "horizons.csv", "spectrum.csv", "report.json"},
    }

    @pytest.mark.parametrize("preset", ["sodium-q2d", "rubidium-3d"])
    @pytest.mark.parametrize("verb", ["derive", "evolve", "horizons", "spectrum2d",
                                      "spectrum3d", "report"])
    def test_verb_writes_exactly_its_files(self, tmp_path, preset, verb):
        out = tmp_path / "run"
        code = main([verb, "--scenario", preset, "--out", str(out)])
        wrong_dimension = {("sodium-q2d", "spectrum3d"), ("rubidium-3d", "spectrum2d")}
        if (preset, verb) in wrong_dimension:
            assert code == 1
            assert not out.exists()
            return
        assert code == 0
        assert {p.name for p in out.iterdir()} == self._FILES[verb]

    def test_hold_has_no_3d_spectrum(self, tmp_path):
        data = _preset_dict("rubidium-3d", analysis=["derive", "evolve", "horizons"])
        data["expansion"]["mode"] = "hold"
        path = tmp_path / "hold.json"
        path.write_text(json.dumps(data))
        assert main(["spectrum3d", "--scenario", str(path),
                     "--out", str(tmp_path / "s")]) == 1
        out = tmp_path / "r"
        assert main(["report", "--scenario", str(path), "--out", str(out)]) in (0, 3)
        assert {p.name for p in out.iterdir()} == self._FILES["report"] - {"spectrum.csv"}

        # a held trap has infinite horizons; report.json stays strict JSON
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        summary = report["horizon_summary"]
        assert summary["apparent_at_t_max_m"] is None
        assert summary["particle_horizon_initial_m"] is None
        # a held trap is not a free run cut short
        assert "evolve:linear_regime" not in [w["source"] for w in report["warnings"]]

    def test_overflow_is_a_named_numeric_failure(self, tmp_path, capsys):
        data = _preset_dict("sodium-q2d")
        data["numeric"]["t_max_omega0"] = 1e300
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["report", "--scenario", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "stage 'evolve' failed" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_spectrum_overflow_is_a_named_numeric_failure(self, tmp_path, capsys):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["spectrum3d", "--scenario", "rubidium-3d", "--out", str(out),
                         "--kappa-min", "1e-300", "--kappa-max", "1e300"])
        assert code == 2
        assert "stage 'spectrum-3d' failed" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "spectrum.csv").exists()

    def test_report_imports_no_scipy(self, tmp_path):
        # scipy's import dominates a CLI process's start-up; the package
        # needs numpy only, so every scipy import is made to fail up front
        script = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None",
            "import numpy as np",
            "import becosmo",
            "from becosmo.cli import main",
            "from becosmo.condensate import INTERACTION_EXPONENT",
            "for preset in ('sodium-q2d', 'rubidium-3d'):",
            "    out = sys.argv[1] + '/' + preset",
            "    assert main(['report', '--scenario', preset, '--out', out]) == 0",
            "    config = becosmo.load_scenario(preset)",
            "    spec = config.condensate",
            "    traj = becosmo.integrate_scale_factor(",
            "        config.protocol(), spec.trap.dimension, INTERACTION_EXPONENT,",
            "        config.numeric.t_max_omega0 / spec.trap.longitudinal_frequency)",
            "    kappas = np.geomspace(1e2, 1e10, 64)",
            "    times = becosmo.horizon_crossing_time(kappas, traj, 1e-3)",
            "    assert times.shape == (64,)",
            "print(sorted(m for m, mod in sys.modules.items()",
            "             if m.startswith('scipy') and mod is not None))"])
        src = str(Path(becosmo.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "wronskian" in out


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        config = load_scenario("sodium-q2d")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(config, out_a)
        run(config, out_b)
        for name in ("trajectory.csv", "horizons.csv", "spectrum.csv",
                     "derived.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # report carries the run directory; everything else must match exactly
        report_a = json.loads((out_a / "report.json").read_text())
        report_b = json.loads((out_b / "report.json").read_text())
        report_a.pop("output_dir")
        report_b.pop("output_dir")
        assert report_a == report_b


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    scenarios._write_csv(path, {"x_m": np.array([0.5, -1.0e-20, math.inf]),
                                "count": np.array([3, 0, 12]),
                                "flag": np.array([True, False, True])},
                        infinite=("x_m",))
    assert path.read_bytes() == (b"x_m,count,flag\n"
                                 b"5.000000000000e-01,3,1\n"
                                 b"-1.000000000000e-20,0,0\n"
                                 b"inf,12,1\n")

    # the per-row f-string loop the stage writers used is the reference
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.uniform(-300.0, 300.0, 500)
    values = np.concatenate([rng.standard_normal(500) * scale,
                             [0.0, -0.0, 5e-324, math.inf]])
    flags = values > 0.0
    scenarios._write_csv(path, {"v": values, "f": flags}, infinite=("v",))
    expected = "v,f\n" + "".join(f"{v:.12e},{int(f)}\n" for v, f in zip(values, flags))
    assert path.read_bytes() == expected.encode()

    # NaN and -inf never, +inf only in a declared column; nothing is written
    for column, infinite in (([1.0, math.nan], ("v",)), ([1.0, -math.inf], ("v",)),
                             ([1.0, math.inf], ())):
        bad = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="column v"):
            scenarios._write_csv(bad, {"v": np.array(column)}, infinite=infinite)
        assert not bad.exists()
