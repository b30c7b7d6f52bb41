"""Command-line interface.

Verbs: derive, evolve, horizons, spectrum2d, spectrum3d, report, each taking
--scenario <preset|path> plus output and numeric overrides. Exit codes:
0 success, 1 configuration error (a usage error included: an unknown verb, a
missing or malformed option), 2 numeric failure, 3 success with validity
warnings.
"""

from __future__ import annotations

import argparse
import sys

from .scenarios import (STAGES, ConfigError, ScenarioConfig, StageError,
                        config_from_dict, read_scenario, run, stage_chain)

# One verb per pipeline stage, named without the hyphen (spectrum-2d -> spectrum2d).
_VERB_STAGES = {stage.replace("-", ""): stage for stage in STAGES}


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError, so it exits 1 like any other."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True,
                        help="preset name (sodium-q2d, rubidium-3d) or JSON path")
    parser.add_argument("--out", default=None,
                        help="output directory (default: ./<scenario>-out)")
    parser.add_argument("--kappa-min", type=float, default=None,
                        help="lower edge of the wavenumber grid (1/m)")
    parser.add_argument("--kappa-max", type=float, default=None,
                        help="upper edge of the wavenumber grid (1/m)")
    parser.add_argument("--kappa-points", type=int, default=None,
                        help="number of wavenumber grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="becosmo",
        description="Expanding-condensate acoustic cosmology: derived "
                    "parameters, expansion histories, horizons and frozen "
                    "fluctuation spectra.")
    parser.add_argument("verb", choices=_VERB_STAGES,
                        metavar="{" + ",".join(_VERB_STAGES) + "}")
    _add_common(parser)
    return parser


def _build_config(args) -> ScenarioConfig:
    """The scenario's dict with the flags and the verb's stages merged in, built once."""
    data = read_scenario(args.scenario)
    if (args.kappa_min is None) != (args.kappa_max is None):
        raise ConfigError("--kappa-min and --kappa-max must be given together")
    flags = {"kappa_min_per_m": args.kappa_min, "kappa_max_per_m": args.kappa_max,
             "kappa_points": args.kappa_points}
    numeric = {**data.get("numeric", {}), **{k: v for k, v in flags.items() if v is not None}}

    # A verb runs its stage and every stage it needs; report keeps the
    # scenario's own analysis list, unchecked until built, so repeats go by ==.
    stage = _VERB_STAGES[args.verb]
    chain = ([*data.get("analysis", ["derive"]), stage] if stage == "report"
             else stage_chain(stage))
    analysis = [name for i, name in enumerate(chain) if name not in chain[:i]]
    return config_from_dict({**data, "numeric": numeric, "analysis": analysis})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _build_config(args)
        report = run(config, args.out if args.out is not None else f"{config.name}-out")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
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
