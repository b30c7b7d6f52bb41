"""Golden run outputs: a refactor that claims byte-identical outputs must
reproduce these digests.

Each scenario is run through run() and every file it writes is hashed:
the CSVs, derived.json and manifest.json as written, and report.json
without output_dir (the one field that names the run directory). The mode
engine is pinned the same way: the (times, phi, phidot) arrays of
integrate_mode and of analytic_evolution for three modes. The digests were
recorded on x86-64 Linux with Python 3.11 and numpy 2.4; a change that
moves any of them must say why in CHANGES.md and record the new digests
here.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from becosmo.scaling import LinearExpansion
from becosmo.scenarios import PRESETS, config_from_dict, run
from becosmo.threed import analytic_evolution, freezing_time, integrate_mode


def _variant(preset, mode="free", analysis=None, t_max_omega0=None):
    data = json.loads(json.dumps(PRESETS[preset]))  # deep copy
    data["expansion"]["mode"] = mode
    if analysis is not None:
        data["analysis"] = analysis
    if t_max_omega0 is not None:
        data["numeric"]["t_max_omega0"] = t_max_omega0
    return data


SCENARIOS = {
    "sodium-q2d": _variant("sodium-q2d"),
    "rubidium-3d": _variant("rubidium-3d"),
    "sodium-q2d-hold": _variant("sodium-q2d", mode="hold"),
    # a held trap never releases, so it has no 3D spectrum
    "rubidium-3d-hold": _variant("rubidium-3d", mode="hold",
                                 analysis=["derive", "evolve", "horizons", "report"]),
    # too short to reach the linear regime, with finite closed-form horizons
    "sodium-q2d-short": _variant("sodium-q2d", t_max_omega0=0.5),
}

GOLDEN = {
    "rubidium-3d": {
        "derived.json": "f13d3a855970a2c98f7e10ebbaafec91e85fcd9487c2a1755cb3f61e1677f607",
        "horizons.csv": "186210c1d38a7ba16a70842bd5963458dff2f484d134346d77e4b50ec68d4815",
        "manifest.json": "2585a177c1863af14f2354ac2d2b18a6a5f7e7bc15d2226d92e743f421e3a378",
        "report.json": "fcf71e1fac7498683671d6541ca56d654756201536e701aeb46373e3ae5e5704",
        "spectrum.csv": "9606584a985626533d6e94729ba2322d233aacd635c3523fa2d88e25b4716bfc",
        "trajectory.csv": "caf3df5b8771c93c22776ea8cf2bfa422a5fab9d73be3cfa5d594745ee597845",
    },
    "rubidium-3d-hold": {
        "derived.json": "f13d3a855970a2c98f7e10ebbaafec91e85fcd9487c2a1755cb3f61e1677f607",
        "horizons.csv": "a1444ff10fdb5f92e3daeb8893e93d295fc93204db1a913d130a06d9960eccce",
        "manifest.json": "e032607f994626a89ec4d64ea0194fcfdffaa180f7b234fd90044c972866355b",
        "report.json": "3351b8bd67ad940b055045fbf75275ffc76a805cfc358a379c5e7ac25dcabfd1",
        "trajectory.csv": "9bf3c8d9317babfd98eb455ba2a6280e1cce128e5d6a982cd101415304bb05fd",
    },
    "sodium-q2d": {
        "derived.json": "5d46c9eba5a2081cde7dde78c9c7268844a531ba921e2d43d41c475c30d247e3",
        "horizons.csv": "8a03191794ffbd8744cb0c03ca2890338274664bf8899ecc0d4240699e344be1",
        "manifest.json": "c5846d3d757108eebd59816a3e92280b652f1f4bcd62571bb42fd08e9157b1a4",
        "report.json": "ef684d6ff797c18ad615660ccc4d708ff2f49e52b3d98394fbf1e3a30272f35b",
        "spectrum.csv": "16da8ba1c94bfc4f177a9d6c8330a85163ebf71350e8fe006ef53db941e8e9e8",
        "trajectory.csv": "32c7e87296c21f9059bb18aca80152872b9057c21636680d2a5bff5566f84c1c",
    },
    "sodium-q2d-hold": {
        "derived.json": "5d46c9eba5a2081cde7dde78c9c7268844a531ba921e2d43d41c475c30d247e3",
        "horizons.csv": "c901fd8777b2166b4d64c467b1961ff01279712b6f874011d80e28be4debecb3",
        "manifest.json": "bebb8ab9c1b90cc6d0b0d226d615dea737b2c7868f0843967fcce318da29e2f5",
        "report.json": "2f2c09f46707933c6e8d40ed38ff9812c9776ff1059c76606fdefeed51df2dfa",
        "spectrum.csv": "16da8ba1c94bfc4f177a9d6c8330a85163ebf71350e8fe006ef53db941e8e9e8",
        "trajectory.csv": "71a3ce609cb9cb4cd66d733d50f8c5390a13591d1266e2b8edcaaaef2f956a84",
    },
    "sodium-q2d-short": {
        "derived.json": "5d46c9eba5a2081cde7dde78c9c7268844a531ba921e2d43d41c475c30d247e3",
        "horizons.csv": "e62990d590b427a4842b8dbd2ba04f74a87c10827af2c031cff0f5f801adc84c",
        "manifest.json": "56854cbce3efd7be525ee69186f559b4ba15eb3bb29ac51bda5bd8d2477146c8",
        "report.json": "7bc709a86549dca88f26adcb1ed0706e81121bd0436c693d29f32c32432ea63e",
        "spectrum.csv": "16da8ba1c94bfc4f177a9d6c8330a85163ebf71350e8fe006ef53db941e8e9e8",
        "trajectory.csv": "6317c2920419f934c4a5bbec1cb680e43416b783172bf6610d8b0ee64dc501f1",
    },
}


def _digests(out):
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("output_dir")
            data = json.dumps(report, indent=2, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_outputs_match_recorded_digests(name, tmp_path):
    run(config_from_dict(SCENARIOS[name]), tmp_path)
    digests = _digests(tmp_path)
    # the full digests, ready to paste into GOLDEN when a change is deliberate
    assert digests == GOLDEN[name], json.dumps({name: digests}, indent=4)


# (kappa, start depth z(t_start)) -> digests of the integrated and the
# analytic history, on b = sqrt(2/3) t with c0 = g = 1 and tolerance 1e-11.
MODE_ALPHA = math.sqrt(2.0 / 3.0)
GOLDEN_MODES = {
    (1.0, 180.0): ("4e311237a1fbfb973b00699719679e471a6783ab7922af2b360145acf4f2b774",
                   "1248c4e7bdf2ff1aa4776f24b6e54c491b69498a01b651070407fc9428241a69"),
    (10.0, 320.0): ("d1c8d29b02f099521e3be5ec0286b8e4d5c97e835d7edabe0c5dd6d210ba7449",
                    "7b8258b3c60d99e3977206c8456409130156745857d1cd11024c9406e3ee2a0a"),
    (100.0, 600.0): ("736d88a242f76c730949514e64e1f39f7b809f0593c73529c4b0dfb52b3d8781",
                     "487b61c029f04c033b847abbe8cecc1f95fbe66f02e2924dcef7207e9a8f9269"),
}


def _history_digest(evolution):
    digest = hashlib.sha256()
    for array in (evolution.times, evolution.phi, evolution.phidot):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kappa, depth", sorted(GOLDEN_MODES))
def test_mode_histories_match_recorded_digests(kappa, depth):
    t_start = ((2.0 / 3.0) * kappa * MODE_ALPHA ** -2.5 / depth) ** (2.0 / 3.0)
    evolution = integrate_mode(kappa, LinearExpansion(MODE_ALPHA), t_start,
                               freezing_time(kappa, MODE_ALPHA), tolerance=1e-11)
    analytic = analytic_evolution(kappa, evolution.times, MODE_ALPHA)
    assert (_history_digest(evolution), _history_digest(analytic)) == GOLDEN_MODES[
        (kappa, depth)]
