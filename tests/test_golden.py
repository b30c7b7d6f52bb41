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
    # too short to reach the linear regime: infinite particle horizons
    "sodium-q2d-short": _variant("sodium-q2d", t_max_omega0=0.5),
}

GOLDEN = {
    "rubidium-3d": {
        "derived.json": "f13d3a855970a2c98f7e10ebbaafec91e85fcd9487c2a1755cb3f61e1677f607",
        "horizons.csv": "0754131da989ebc608920a9f5840b5890a6a35d5d7972407233d5f4877a4e93d",
        "manifest.json": "b0fa19c7ea768fdb30c80b9ff790256e7595cd5ab6f5f3860fe1c04d37d12c4c",
        "report.json": "f7f370bfdfdbafe6610791d6d1540c2ef962df322713aa128f5a4b31a5e0b328",
        "spectrum.csv": "dc87b8a36de2024ac5a529ed65b61eaa9ddcbedba699bd445588926262138fec",
        "trajectory.csv": "294ae937ca93c474ee004811e9605cd6922ed44a34754cd918736b424661fabd",
    },
    "rubidium-3d-hold": {
        "derived.json": "f13d3a855970a2c98f7e10ebbaafec91e85fcd9487c2a1755cb3f61e1677f607",
        "horizons.csv": "a1444ff10fdb5f92e3daeb8893e93d295fc93204db1a913d130a06d9960eccce",
        "manifest.json": "a4aa8eaaf35f46ce79f5961380f91c7de0b1f887d9fd5a35dfe7d9be551722a9",
        "report.json": "3351b8bd67ad940b055045fbf75275ffc76a805cfc358a379c5e7ac25dcabfd1",
        "trajectory.csv": "9bf3c8d9317babfd98eb455ba2a6280e1cce128e5d6a982cd101415304bb05fd",
    },
    "sodium-q2d": {
        "derived.json": "5d46c9eba5a2081cde7dde78c9c7268844a531ba921e2d43d41c475c30d247e3",
        "horizons.csv": "cd6a814eb13bcc3cded47436c2a8a69dca26c009484c42bb6a2fe63b18eee23d",
        "manifest.json": "7fbfa901d970e975107cfb93546af4453b89c073e27a2bb65f830c7b96c94f29",
        "report.json": "a8c924683647fecfba06c03bf6036a2b8e6776161f335b871822b39a4a0c54d0",
        "spectrum.csv": "16da8ba1c94bfc4f177a9d6c8330a85163ebf71350e8fe006ef53db941e8e9e8",
        "trajectory.csv": "5c365a7045ada6475d5cdf2c180b17cc81e97f5ae6b91e1646e7c46c7f490bf8",
    },
    "sodium-q2d-hold": {
        "derived.json": "5d46c9eba5a2081cde7dde78c9c7268844a531ba921e2d43d41c475c30d247e3",
        "horizons.csv": "c901fd8777b2166b4d64c467b1961ff01279712b6f874011d80e28be4debecb3",
        "manifest.json": "56b5fc3772967fffb6729034b497581e5f0c39fe0b0a25f540a5054b831c524a",
        "report.json": "2f2c09f46707933c6e8d40ed38ff9812c9776ff1059c76606fdefeed51df2dfa",
        "spectrum.csv": "16da8ba1c94bfc4f177a9d6c8330a85163ebf71350e8fe006ef53db941e8e9e8",
        "trajectory.csv": "71a3ce609cb9cb4cd66d733d50f8c5390a13591d1266e2b8edcaaaef2f956a84",
    },
    "sodium-q2d-short": {
        "derived.json": "5d46c9eba5a2081cde7dde78c9c7268844a531ba921e2d43d41c475c30d247e3",
        "horizons.csv": "9ddb0c08d51bf2aa6e022f0ca232471dfc27cb61d17e61708ac7d188cec09d1f",
        "manifest.json": "4e4e8c37af5e49da67e3fdd29343df004244f065d9210b1728b11e2429d45d7f",
        "report.json": "41897ccd8dbc74344ca258b100bea194ce09bf8b326f1322c52d5c458a3c37cf",
        "spectrum.csv": "16da8ba1c94bfc4f177a9d6c8330a85163ebf71350e8fe006ef53db941e8e9e8",
        "trajectory.csv": "83724cd5b30697ffec8a0fc7461ac2c197eb7954937da4edb79605d2a0e9521f",
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
