"""Command-line front end.

Subcommands:
  run <scenario>   drive a canned scenario and emit its JSON report; the
                   scenario's own parameters apply unless --config is given
  footprint        print the virtual-size cost table (CSV)

Exit codes: 0 success / all verdicts pass, 1 a verdict failed,
2 bad usage or a bad --config file (see `_load_params`, `Params.validate`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import footprint, harness
from .ledger import Params


def _load_params(path: str, unsafe: bool) -> Params:
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    if not isinstance(overrides, dict):
        raise ValueError(f"{path} must hold a JSON object of parameters")
    for key in overrides:
        if key not in Params.__dataclass_fields__:
            raise ValueError(f"unknown parameter {key!r} in {path}")
    p = Params(**overrides)
    p.validate(unsafe=unsafe)
    return p


def cmd_run(args) -> int:
    config = {"seed": args.seed}
    if args.config:
        try:
            config["params"] = _load_params(args.config, args.unsafe)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.scenario not in harness.SCENARIOS:
        print(f"error: unknown scenario {args.scenario!r}; choose from "
              + ", ".join(sorted(harness.SCENARIOS)), file=sys.stderr)
        return 2
    if args.no_resets:
        config["resets"] = False
    report = harness.run_scenario(args.scenario, **config)
    text = harness.report_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    ok = all(v["pass"] for v in report["verdicts"])
    return 0 if ok else 1


def cmd_footprint(args) -> int:
    ns = [2 ** i for i in range(11)]
    text = footprint.cost_table_csv(ns, args.fee_rate)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arksim", description="commit-chain protocol simulator")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--config", help="JSON file of parameters; replaces"
                                        " the scenario's own")
    p_run.add_argument("--out", help="write output to this file")
    p_run.add_argument("--unsafe", action="store_true",
                       help="allow parameter combinations outside the safe"
                            " region (e.g. renewal window <= 4k)")
    p_run.add_argument("--no-resets", action="store_true",
                       help="operator cosigns offchain spends without"
                            " holding reset transactions")
    p_run.set_defaults(func=cmd_run)

    p_fp = sub.add_parser("footprint", help="print the exit cost table")
    p_fp.add_argument("--fee-rate", type=int, default=6, help="sat/vB")
    p_fp.add_argument("--out", help="write output to this file")
    p_fp.set_defaults(func=cmd_footprint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
