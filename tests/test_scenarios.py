import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import becosmo
from becosmo import scenarios
from becosmo.cli import main
from becosmo.condensate import CondensateSpec, thomas_fermi
from becosmo.scaling import ScaleTrajectory, integrate_scale_factor
from becosmo.scenarios import (PRESETS, ConfigError, ScenarioConfig, StageError,
                               config_from_dict, load_scenario, run)

from test_golden import GOLDEN, SCENARIOS as GOLDEN_SCENARIOS, _digests as golden_digests


def _readme_blocks(language):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return [block.split("```", 1)[0] for block in readme.split(f"```{language}\n")[1:]]


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
        with pytest.raises(ConfigError, match="unknown field numeric.ode_tolerance"):
            config_from_dict(_preset_dict("sodium-q2d",
                                          numeric={"ode_tolerance": 1e-10}))
        with pytest.raises(ConfigError):
            config_from_dict(_preset_dict(
                "sodium-q2d", numeric={"kappa_min_per_m": 10.0}))

    @pytest.mark.parametrize("edges", [(10.0, 10.0), (20.0, 10.0)], ids=["equal", "reversed"])
    def test_kappa_edges_must_be_ordered(self, edges):
        numeric = dict(zip(("kappa_min_per_m", "kappa_max_per_m"), edges))
        with pytest.raises(ConfigError) as err:
            config_from_dict(_preset_dict("sodium-q2d", numeric=numeric))
        assert str(err.value) == "numeric.kappa_min_per_m must be below kappa_max_per_m"

    @pytest.mark.parametrize("key", ["kappa_min_per_m", "kappa_max_per_m"])
    def test_lone_kappa_edge_names_its_keys(self, key):
        # the message names the JSON keys, which are also the settings fields
        with pytest.raises(ConfigError, match="numeric.kappa_min_per_m and "
                                              "kappa_max_per_m must be set together"):
            config_from_dict(_preset_dict("sodium-q2d", numeric={key: 10.0}))

    def test_non_finite_thomas_fermi_state_named(self):
        # 1e308 atoms overflow the 3D Thomas-Fermi radius: the state depends
        # on the input alone, so the load fails and names the field
        with pytest.raises(ConfigError, match="condensate.atom_number"):
            config_from_dict(_preset_dict("rubidium-3d",
                                          **{"condensate.atom_number": 1e308}))
        # 1e300 gives a finite, if absurd, state, and loads
        config_from_dict(_preset_dict("rubidium-3d", **{"condensate.atom_number": 1e300}))

    def test_library_config_checks_thomas_fermi_state(self):
        # a ScenarioConfig built in code carries the same rule, so run() never
        # starts on a state that derive cannot compute
        loaded = config_from_dict(_preset_dict("rubidium-3d"))
        condensate = CondensateSpec(loaded.condensate.species, loaded.condensate.trap, 1e308)
        with pytest.raises(ConfigError, match="condensate.atom_number 1e[+]308 and the trap"):
            ScenarioConfig(loaded.name, condensate, analysis=loaded.analysis)

    def test_thomas_fermi_state_computed_once(self, tmp_path, monkeypatch):
        # the config keeps the state it checked; derive reads it, and the CLI
        # builds one config with its overrides merged in
        calls = []
        original = scenarios.thomas_fermi
        monkeypatch.setattr(scenarios, "thomas_fermi",
                            lambda spec: calls.append(spec) or original(spec))
        run(load_scenario("sodium-q2d"), tmp_path / "library")
        assert len(calls) == 1
        assert main(["derive", "--scenario", "sodium-q2d", "--kappa-points", "16",
                     "--out", str(tmp_path / "cli")]) == 0
        assert len(calls) == 2

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
        blocks = _readme_blocks("json")
        assert blocks
        for block in blocks:
            config = config_from_dict(json.loads(block))
            assert thomas_fermi(config.condensate).healing_length > 0.0

    def test_readme_python_runs(self, capsys):
        # every Python block of the README runs as written, so it names no
        # function the package lacks
        blocks = _readme_blocks("python")
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out


# Inputs the config boundary must reject: each is a ConfigError, and the CLI
# exits 1 without writing anything.
_BAD_INPUTS = {
    "nan-omega0": ("sodium-q2d", "condensate.omega0_rad_per_s", math.nan),
    "nan-atom-number": ("sodium-q2d", "condensate.atom_number", math.nan),
    "huge-atom-number": ("rubidium-3d", "condensate.atom_number", 1e308),
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
    "removed-ode-tolerance": ("rubidium-3d", "numeric.ode_tolerance", 1e-10),
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
        # every background is closed form: there are no solver records
        assert "solvers" not in manifest
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
        manifest = json.loads((tmp_path / "rb" / "manifest.json").read_text())
        assert "solvers" not in manifest
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

    @pytest.mark.parametrize("preset, stage, name", [
        ("sodium-q2d", "derive", "derived.json"),
        ("sodium-q2d", "evolve", "trajectory.csv"),
        ("sodium-q2d", "horizons", "horizons.csv"),
        ("sodium-q2d", "spectrum-2d", "spectrum.csv"),
        ("rubidium-3d", "spectrum-3d", "spectrum.csv"),
        ("sodium-q2d", "report", "report.json"),
    ])
    def test_failing_open_fails_its_stage(self, tmp_path, monkeypatch, preset, stage, name):
        # every file is opened by os.open in _write_bytes; an open that fails
        # for one file fails the stage that writes it
        original = os.open

        def broken(path, *args, **kwargs):
            if Path(path).name == name:
                raise PermissionError("injected")
            return original(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", broken)
        out = tmp_path / "run"
        with pytest.raises(StageError) as err:
            run(load_scenario(preset), out)
        assert err.value.stage == stage
        assert isinstance(err.value.cause, PermissionError)
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
            columns = stage.body(r)
            per_stage[r.config.numeric.trajectory_samples] = sorted(calls)
            return columns

        monkeypatch.setitem(scenarios.STAGES, "horizons", stage._replace(body=horizons))
        for samples in (50, 400, 4000):
            data = _preset_dict("sodium-q2d", analysis=["horizons"])
            data["numeric"]["trajectory_samples"] = samples
            run(config_from_dict(data), tmp_path / str(samples))
        # one array lookup each for the CSV columns and the initial particle
        # horizon; the apparent horizon at t_max is the column's last row
        assert per_stage[50] == per_stage[400] == per_stage[4000] == [
            "b", "bdot", "horizon_integral", "horizon_integral"]

    def test_band_clip_warning(self, tmp_path):
        report = run(load_scenario("rubidium-3d"), tmp_path / "clip")
        assert report.warnings == []
        data = _preset_dict("rubidium-3d")
        data["numeric"]["kappa_min_per_m"] = 1e5
        data["numeric"]["kappa_max_per_m"] = 1e8
        clipped = run(config_from_dict(data), tmp_path / "clip2")
        sources = [w["source"] for w in clipped.warnings]
        assert "band_clip" in sources

    def test_short_linear_window_warning(self, tmp_path):
        # omega_xi/omega0 is 127.7 for the preset and 8.06 with 1e4 atoms; the
        # max_contrast estimate needs it well above 1 and flags it below 10
        report = run(load_scenario("rubidium-3d"), tmp_path / "preset")
        assert report.warnings == []
        data = _preset_dict("rubidium-3d")
        data["condensate"]["atom_number"] = 1e4
        report = run(config_from_dict(data), tmp_path / "small")
        assert report.warnings == [{
            "source": "short_linear_window",
            "message": "omega_xi/omega0 = 8.06 is below 10: the max_contrast "
                       "estimate needs a long linear-expansion window"}]

    def test_nul_in_output_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot create output directory"):
            run(load_scenario("sodium-q2d"), tmp_path / "a\0b")
        assert list(tmp_path.iterdir()) == []

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

    # A scenario the CLI cannot read, or an output directory it cannot
    # create, is a configuration error naming the path: exit 1, no traceback
    # and nothing written. "file" is an existing file.
    @pytest.mark.parametrize("scenario, content, out, named", [
        ("dir", None, "out", "dir"),
        ("latin1.json", b'{"name": "caf\xe9"}', "out", "latin1.json"),
        ("deep.json", b"[" * 100_000, "out", "deep.json"),
        ("sodium-q2d", None, "file", "file"),
        ("sodium-q2d", None, "file/sub", "file/sub"),
    ], ids=["scenario-directory", "scenario-not-utf8", "scenario-deep-json",
            "out-is-file", "out-under-file"])
    def test_bad_path_exit_one(self, tmp_path, monkeypatch, capsys, scenario, content,
                               out, named):
        monkeypatch.chdir(tmp_path)
        Path("dir").mkdir()
        Path("file").write_text("kept")
        if content is not None:
            Path(scenario).write_bytes(content)
        before = sorted(tmp_path.rglob("*"))
        assert main(["derive", "--scenario", scenario, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert Path("file").read_text() == "kept"

    # The scenario name makes the default output directory, ./<name>-out, so
    # it must be a file name: a NUL, a path or an empty name exits 1 naming
    # the field, with no traceback and nothing written, here or above.
    @pytest.mark.parametrize("name", ["a\0b", "../../escape", "", ".", "..", "a/b"],
                             ids=["nul", "escape", "empty", "dot", "dot-dot", "slash"])
    def test_name_that_is_not_a_file_name_exits_one(self, tmp_path, monkeypatch, capsys,
                                                    name):
        work = tmp_path / "a" / "b"
        work.mkdir(parents=True)
        monkeypatch.chdir(work)
        path = tmp_path / "named.json"
        path.write_text(json.dumps({**PRESETS["sodium-q2d"], "name": name}))
        before = sorted(tmp_path.rglob("*"))
        assert main(["derive", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == ("configuration error: scenario.name must be a file name: not '', "
                       f"'.' or '..', and without '/' or NUL, got {name!r}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--kappa-min", "--kappa-max"])
    def test_lone_kappa_flag_exits_one(self, tmp_path, capsys, flag):
        out = tmp_path / "lone"
        assert main(["spectrum2d", "--scenario", "sodium-q2d", "--out", str(out),
                     flag, "1e5"]) == 1
        assert capsys.readouterr().err == (
            "configuration error: --kappa-min and --kappa-max must be given together\n")
        assert not out.exists()

    def test_scenario_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([_preset_dict("sodium-q2d")]))
        out = tmp_path / "list"
        assert main(["derive", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: scenario must be a JSON object\n")
        assert not out.exists()

    def test_short_linear_window_exits_three(self, tmp_path, capsys):
        data = _preset_dict("rubidium-3d")
        data["condensate"]["atom_number"] = 1e4
        path = tmp_path / "small.json"
        path.write_text(json.dumps(data))
        assert main(["report", "--scenario", str(path),
                     "--out", str(tmp_path / "small")]) == 3
        assert "warning [short_linear_window]: omega_xi/omega0 = 8.06" in (
            capsys.readouterr().out)

    def test_warning_exit_three(self, tmp_path):
        data = _preset_dict("sodium-q2d", analysis=["derive"])
        data["condensate"]["omega_z_rad_per_s"] = 2 * math.pi * 80.0
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(data))
        assert main(["derive", "--scenario", str(path),
                     "--out", str(tmp_path / "z")]) == 3

    # b(t) need not reach the linear regime: the particle horizon comes from
    # the first integral, finite from release however short the run, and
    # r_p(0) = pi c0/(2 omega0) in quasi-2D. At omega0 t_max = 1e-12 b stays
    # 1 to the last bit.
    @pytest.mark.parametrize("t_max_omega0", [0.5, 1e-12, 1e-3])
    def test_short_free_run_has_finite_horizons(self, tmp_path, t_max_omega0):
        data = _preset_dict("sodium-q2d", **{"numeric.t_max_omega0": t_max_omega0})
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "short"
        assert main(["report", "--scenario", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["warnings"] == []
        c0 = report["derived"]["sound_speed_m_per_s"]
        omega0 = data["condensate"]["omega0_rad_per_s"]
        assert report["horizon_summary"]["particle_horizon_initial_m"] == pytest.approx(
            math.pi * c0 / (2.0 * omega0), rel=1e-13)

    def test_trajectory_samples_do_not_move_the_horizon(self, tmp_path):
        # just past the onset of the linear regime, the sample count of
        # trajectory.csv must not decide whether the horizon is finite
        reports = []
        for samples in (7, 400):
            data = _preset_dict("sodium-q2d", **{"numeric.t_max_omega0": 27.59})
            data["numeric"]["trajectory_samples"] = samples
            path = tmp_path / f"n{samples}.json"
            path.write_text(json.dumps(data))
            out = tmp_path / f"n{samples}"
            assert main(["report", "--scenario", str(path), "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        assert [r["warnings"] for r in reports] == [[], []]
        initial = [r["horizon_summary"]["particle_horizon_initial_m"] for r in reports]
        assert initial[0] is not None and initial[0] == initial[1]

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
        assert report["warnings"] == []

    def test_overflow_is_a_named_numeric_failure(self, tmp_path, capsys):
        # a 0.5 rad/s trap run for 1e308/omega0 overflows the span t_max
        data = _preset_dict("rubidium-3d")
        data["condensate"]["omega0_rad_per_s"] = 0.5
        data["numeric"]["t_max_omega0"] = 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["report", "--scenario", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "stage 'evolve' failed" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("preset", ["sodium-q2d", "rubidium-3d"])
    def test_span_at_1e300_completes(self, tmp_path, preset):
        # the closed forms, b = hypot(1, omega0 t) and the 3D inverse of
        # t(b), are finite at any valid span
        data = _preset_dict(preset)
        data["numeric"]["t_max_omega0"] = 1e300
        path, out = tmp_path / "huge.json", tmp_path / "o"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", "--scenario", str(path), "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for name in ("manifest.json", "derived.json", "report.json"):
            json.loads((out / name).read_text(), parse_constant=reject)
        for name in ("trajectory.csv", "horizons.csv", "spectrum.csv"):
            table = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
            assert np.isfinite(table).all(), name

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
            "for preset in ('sodium-q2d', 'rubidium-3d'):",
            "    out = sys.argv[1] + '/' + preset",
            "    assert main(['report', '--scenario', preset, '--out', out]) == 0",
            "    config = becosmo.load_scenario(preset)",
            "    spec = config.condensate",
            "    omega0 = spec.trap.longitudinal_frequency",
            "    traj = becosmo.integrate_scale_factor(",
            "        omega0, spec.trap.dimension, config.numeric.t_max_omega0 / omega0)",
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

    # A usage error is a configuration error: exit 1, never argparse's 2,
    # which the exit-code contract reserves for a numeric failure.
    @pytest.mark.parametrize("argv", [
        ["selftest"], ["nosuchverb"],
        ["derive", "--scenario", "sodium-q2d", "--kappa-points", "abc"],
        ["derive"],
        ["report", "--scenario", "rubidium-3d", "--tol", "1e-10"]],
        ids=["selftest", "unknown-verb", "bad-int", "no-scenario", "removed-tol"])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "never"
        assert main(argv + ["--out", str(out)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        assert "usage: becosmo" in capsys.readouterr().out


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


# Keys and strings any JSON file may hold: quotes, backslashes, control
# characters and non-ASCII text among them.
_JSON_TEXT = st.one_of(st.text(max_size=8),
                       st.sampled_from(['"', "\\", "\n", "\x00\x1f\x7f", "é", "☃",
                                        "\U0001f600", '"\\"', "\ud800"]))
_JSON_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308,
                                          1e308, 1.7976931348623157e308, 1e16, 0.1]))
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_TEXT, st.integers(), _JSON_FLOATS, _JSON_FLOATS.map(np.float64),
              st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=25)


def _json_written(payload) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        scenarios._write_json(path, payload)
        return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=6))
def test_write_json_is_json_dumps(payload):
    expected = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert _json_written(payload) == expected.encode()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("depth", range(4))
def test_write_json_rejects_non_finite(value, depth, tmp_path):
    payload = {"a": 1.0, "z": value}
    for _ in range(depth):  # inside a tuple in a list in a dict, depth times
        payload = {"b": [0.5, (payload,)]}
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        scenarios._write_json(path, payload)
    assert not path.exists()


@pytest.mark.parametrize("payload", [{"v": {1.0, 2.0}}, {"v": [np.int64(3)]},
                                     {"v": {"w": {1: "one"}}}])
def test_write_json_rejects_other_types(payload, tmp_path):
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        scenarios._write_json(path, payload)
    assert not path.exists()


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    scenarios._write_csv(path, {"x_m": np.array([0.5, -1.0e-20, math.inf]),
                                "flag": np.array([True, False, True])},
                        infinite=("x_m",))
    assert path.read_bytes() == (b"x_m,flag\n"
                                 b"5.000000000000e-01,1\n"
                                 b"-1.000000000000e-20,0\n"
                                 b"inf,1\n")

    # the per-row f-string loop the stage writers used is the reference, on
    # tables of two and four row blocks; an inf and a value that Python
    # formats (an exact half-way mantissa) sit on both sides of block edges
    rows = scenarios._BLOCK_CELLS // 5  # rows per block of the five-column table
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.uniform(-300.0, 300.0, 3 * rows + 100)
    values = np.concatenate([rng.standard_normal(3 * rows + 100) * scale,
                             [0.0, -0.0, 5e-324, math.inf]])
    values[[rows - 1, 2 * rows]] = math.inf
    values[[rows, 2 * rows - 1]] = 1234567890123.5
    flags = values > 0.0
    scenarios._write_csv(path, {"v": values, "f": flags}, infinite=("v",))
    expected = "v,f\n" + "".join(f"{v:.12e},{int(f)}\n" for v, f in zip(values, flags))
    assert path.read_bytes() == expected.encode()
    # flags before, between and after the real columns
    scenarios._write_csv(path, {"f": flags, "v": values, "g": ~flags, "w": values[::-1],
                                "h": flags}, infinite=("v", "w"))
    expected = "f,v,g,w,h\n" + "".join(f"{int(f)},{v:.12e},{int(not f)},{w:.12e},{int(f)}\n"
                                       for v, w, f in zip(values, values[::-1], flags))
    assert path.read_bytes() == expected.encode()

    # NaN and -inf never, +inf only in a declared column; nothing is written
    for column, infinite in (([1.0, math.nan], ("v",)), ([1.0, -math.inf], ("v",)),
                             ([1.0, math.inf], ())):
        bad = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="column v"):
            scenarios._write_csv(bad, {"v": np.array(column)}, infinite=infinite)
        assert not bad.exists()


def test_write_csv_peak_memory_is_bounded(tmp_path):
    # a 4,000-row trajectory is formatted _BLOCK_CELLS cells at a time: the
    # traced peak is 1,422 KiB, where the whole table at once took 2,054 KiB
    trajectory = integrate_scale_factor(2.0 * math.pi * 200.0, 3, t_max=4.0, n_samples=4000)
    columns = {"t_s": trajectory.ts, "b": trajectory.bs, "bdot_per_s": trajectory.bdots,
               "tau": trajectory.clocks}
    tracemalloc.start()
    try:
        scenarios._write_csv(tmp_path / "trajectory.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1536 * 1024


def test_short_writes_keep_every_byte(tmp_path, monkeypatch):
    # os.write may write fewer bytes than it is given; _write_bytes writes
    # the rest, so runs whose every write takes at most 5 bytes keep the
    # golden digests
    original, calls = os.write, []

    def short(fd, data):
        calls.append(len(data))
        return original(fd, data[:5])

    monkeypatch.setattr(os, "write", short)
    for name in ("sodium-q2d", "rubidium-3d"):
        run(config_from_dict(GOLDEN_SCENARIOS[name]), tmp_path / name)
        assert golden_digests(tmp_path / name) == GOLDEN[name], name
    assert len(calls) > 10_000 and min(calls) > 0


def test_write_bytes_truncates_and_keeps_the_file_mode(tmp_path):
    path, reference = tmp_path / "file", tmp_path / "reference"
    scenarios._write_bytes(path, b"first\n")
    reference.write_bytes(b"first\n")
    assert path.stat().st_mode == reference.stat().st_mode  # 0o666 less the umask
    path.write_bytes(b"x" * 100_000)  # a longer file already at the path
    scenarios._write_bytes(path, b"short\n")
    assert path.read_bytes() == b"short\n"
    scenarios._write_bytes(path, b"")
    assert path.read_bytes() == b""


def _written(columns: dict, infinite=()) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        scenarios._write_csv(path, columns, infinite)
        return path.read_bytes()


def _percent_e(values) -> bytes:
    """The reference: Python's own %.12e, one value per row."""
    return ("v\n" + "".join("%.12e\n" % v for v in values)).encode()


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_write_csv_matches_percent_e(values):
    assert _written({"v": np.array(values, dtype=np.float64)}) == _percent_e(values)


def _near_window(rng) -> np.ndarray:
    """Mantissas 1e-3 and 3e-4 inside and outside _WINDOW of a half-way
    point, below and above it, at every decimal exponent of a double."""
    texts = []
    for exponent in range(-323, 309):
        for n in rng.integers(10**12, 10**13, 2).tolist():
            for side in (-1.0, 1.0):
                for offset in (-1e-3, -3e-4, 3e-4, 1e-3):
                    fraction = round(1e6 * (0.5 + side * (scenarios._WINDOW + offset)))
                    texts.append(f"{n}.{fraction:06d}e{exponent - 12}")
    values = np.array([float(text) for text in texts])
    return values[values < math.inf]  # above 1.8e308 the text overflows


@pytest.mark.parametrize("tables", ["native", "double"])
def test_write_csv_matches_percent_e_on_hard_cases(monkeypatch, tables):
    if tables == "double":
        # numpy's 10.0 ** k (one ulp off at 30 k, inf past 1e308) under the
        # wider window 1e13 * 64 eps: more values fall back, every row stays exact
        with np.errstate(over="ignore"):
            monkeypatch.setattr(scenarios, "_POW10", 10.0 ** np.arange(-340, 341))
        monkeypatch.setattr(scenarios, "_WINDOW", 1e13 * 64 * np.finfo(float).eps)
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2**64, 120_000, dtype=np.uint64).view(np.float64)
    # exact halves of the 13th digit, scaled by 1 and, inexactly, by 1/10**j
    ties = [rng.integers(10**12, 10**13, 1000) * 10.0**j + 0.5 * 10.0**j
            for j in range(4)]
    # the correctly rounded powers of ten, where log10 rounds to an integer
    powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
    near = _near_window(rng)
    # the scaled mantissas fall on both sides of the fallback boundary
    scale = scenarios._POW10[352 - np.floor(np.log10(near)).astype(int)]
    margin = np.abs((near * scale)[np.isfinite(scale)] % 1.0 - 0.5) - scenarios._WINDOW
    assert ((margin > 0.0) & (margin < 2e-3)).sum() > 1000
    assert ((margin <= 0.0) & (margin > -2e-3)).sum() > 1000
    values = np.concatenate([
        bits[np.isfinite(bits)], *ties, powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, math.inf), near, -near,
        [12345678901234.5, 1234567890123.5, 9.9999999999995, 9.99999999999949,
         9.9999999999995e-101, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, 1e22, 1e23, 1e100, 1e-100, -1e100, -1e-100,
         0.0, -0.0, math.inf]])
    assert _written({"v": values}, infinite=("v",)) == _percent_e(values.tolist())
    assert _written({"v": np.array([]), "f": np.array([], dtype=bool)}) == b"v,f\n"


def test_format_tables():
    # built by array arithmetic at import; each entry decodes to its text
    digits = scenarios._DIGITS4.view("S4")
    assert digits.tolist() == [b"%04d" % i for i in range(10000)]
    exponents = scenarios._EXPONENT.view("S8")
    assert [x.replace(b"\0", b"") for x in exponents.tolist()] == [
        b"e%+03d" % e for e in range(-324, 309)]
    # every power of ten is correctly rounded (inf past the largest double),
    # and the window covers the scaling's error: a mantissa below 1e13 after
    # two float64 roundings, the power's and the product's, is off by less
    # than 2**-52 * 1e13
    assert scenarios._POW10.dtype == np.float64
    for k in range(-340, 341):
        power = scenarios._POW10[k + 340]
        assert power == (float(Fraction(10) ** k) if k <= 308 else math.inf), k
    assert Fraction(scenarios._WINDOW) >= Fraction(10**13, 2**52)
