"""Command-line harness: converge | dissipate | blowup | skyrmion.

Each subcommand reads a flat key-value config file, optionally patched by
repeatable ``--override key=value`` flags, runs the experiment and exits
with status 0 iff every asserted invariant of that experiment held: 1 if
one failed, 2 on a config error, 3 if a step failed (a solve that missed
its tolerance, a collapsed node or a non-finite state).
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    cmd_blowup,
    cmd_converge,
    cmd_dissipate,
    cmd_skyrmion,
    format_error_table,
)
from .io import ConfigError, parse_config
from .stepper import STEP_ERRORS


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the run config file")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")
    sub.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="llgsip",
        description="Structured-grid semi-implicit projection solver for the "
        "Landau-Lifshitz-Gilbert equation",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("converge", "manufactured-solution refinement study"),
        ("dissipate", "energy-dissipation sweep over damping parameters"),
        ("blowup", "near-singular bubble evolution with snapshots"),
        ("skyrmion", "relax a topological seed to a static texture"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "skyrmion":
            sub.add_argument(
                "--resume", default=None, help="checkpoint to resume from"
            )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up at call time, so a caller may substitute a cmd_* function
    cmd = globals()[f"cmd_{args.command}"]
    kwargs = {"resume": args.resume} if args.command == "skyrmion" else {}
    try:
        config = parse_config(args.config, overrides=args.override, **kwargs)
        if config.experiment != args.command:
            print(
                f"config describes experiment {config.experiment!r}, "
                f"but subcommand is {args.command!r}",
                file=sys.stderr,
            )
            return 2
        if args.out is not None:
            config.out_dir = args.out
        result = cmd(config, **kwargs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except STEP_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    if args.command == "converge":
        print(format_error_table(result.records))
    elif args.command == "dissipate":
        for gamma, series in result.energies.items():
            print(f"gamma={gamma:g}: E0={series[0][2]:.6e} -> E={series[-1][2]:.6e}")
    elif args.command == "blowup":
        print(f"wrote {len(result.snapshots)} snapshots")
    else:
        status = "steady" if result.steady else "budget exhausted"
        print(f"{status}; Q = {result.charge:.4f}; state -> {result.snapshot_path}")
    for message in getattr(result, "violations", ()):  # converge checks none
        print(message, file=sys.stderr)

    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
