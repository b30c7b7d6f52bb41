"""Command-line interface.

Verbs: derive, evolve, horizons, spectrum2d, spectrum3d, report, each taking
--scenario <preset|path> plus output and numeric overrides. Exit codes:
0 success, 1 configuration error, 2 numeric failure, 3 success with validity
warnings. An undocumented selftest verb dumps the special-function identity
table.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .scenarios import (STAGES, ConfigError, ScenarioConfig, StageError,
                        load_scenario, run, stage_chain)
from .specfun import identity_table

# One verb per pipeline stage, named without the hyphen (spectrum-2d -> spectrum2d).
_VERB_STAGES = {stage.replace("-", ""): stage for stage in STAGES}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True,
                        help="preset name (sodium-q2d, rubidium-3d) or JSON path")
    parser.add_argument("--out", default=None,
                        help="output directory (default: ./<scenario>-out)")
    parser.add_argument("--tol", type=float, default=None,
                        help="ODE relative tolerance override")
    parser.add_argument("--kappa-min", type=float, default=None,
                        help="lower edge of the wavenumber grid (1/m)")
    parser.add_argument("--kappa-max", type=float, default=None,
                        help="upper edge of the wavenumber grid (1/m)")
    parser.add_argument("--kappa-points", type=int, default=None,
                        help="number of wavenumber grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becosmo",
        description="Expanding-condensate acoustic cosmology: derived "
                    "parameters, expansion histories, horizons and frozen "
                    "fluctuation spectra.")
    subs = parser.add_subparsers(dest="verb", required=True,
                                 metavar="{" + ",".join(_VERB_STAGES) + "}")
    for verb in _VERB_STAGES:
        sub = subs.add_parser(verb)
        _add_common(sub)
    subs.add_parser("selftest")
    return parser


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if (args.kappa_min is None) != (args.kappa_max is None):
        raise ConfigError("--kappa-min and --kappa-max must be given together")
    flags = {"ode_tolerance": args.tol, "kappa_min": args.kappa_min,
             "kappa_max": args.kappa_max, "kappa_points": args.kappa_points}
    numeric = dataclasses.replace(
        config.numeric, **{key: value for key, value in flags.items() if value is not None})

    # A verb runs its stage and every stage it needs; report keeps the
    # scenario's own analysis list. replace() validates the result.
    stage = _VERB_STAGES[args.verb]
    chain = config.analysis + (stage,) if stage == "report" else stage_chain(stage)
    return dataclasses.replace(config, numeric=numeric,
                               analysis=tuple(dict.fromkeys(chain)))


def _run_selftest() -> int:
    ok = True
    for row in identity_table():
        passed = row["residual"] <= max(row["budget"], 1e-15)
        ok = ok and passed
        print(f"{'pass' if passed else 'FAIL'}  {row['check']:<34} "
              f"residual {row['residual']:.3e}  budget {row['budget']:.0e}")
    return 0 if ok else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "selftest":
        return _run_selftest()

    try:
        config = load_scenario(args.scenario)
        config = _apply_overrides(config, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out if args.out is not None else f"{config.name}-out"
    try:
        report = run(config, out_dir)
    except StageError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2

    print(f"run complete: {report.output_dir}")
    for row in report.reference_comparison:
        note = f"  ({row['note']})" if "note" in row else ""
        print(f"  {row['key']}: computed {row['computed']:.4g}, "
              f"reference {row['reference']:.4g}, ratio {row['ratio']:.3f}{note}")
    for warning in report.warnings:
        print(f"  warning [{warning['source']}]: {warning['message']}")
    return 3 if report.warnings else 0


if __name__ == "__main__":
    raise SystemExit(main())
