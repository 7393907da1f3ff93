"""Command-line entry points: run, compare, and sweep scenario files.

Exit codes: 0 the experiment completed (pass or fail is recorded in the
report), 1 a solver, control or inversion stage failed, 2 the scenario
file or arguments did not validate.
"""

import argparse
import json
import os
import sys

from .controls import ControlError
from .grid import GridError
from .harness import (ConfigError, compare_reports, load_config, run_scenario,
                      sweep_scenario)
from .inversion import InversionError
from .nonlinearity import NonlinearityError
from .operator import OperatorError
from .solver import SolverError


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="viscowave",
        description="Forward solves, measurement identities, and coefficient "
                    "recovery for the viscous wave model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("config", help="YAML scenario file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")

    p_cmp = sub.add_parser("compare", help="compare two report.json files")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")

    p_sweep = sub.add_parser("sweep", help="run a scenario over parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path, e.g. regularization.alpha_inv")
    p_sweep.add_argument("--values", required=True, nargs="+",
                         help="values (parsed as JSON when possible)")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--seed", type=int, default=None, help="override seed")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            print(compare_reports(args.report_a, args.report_b))
            return 0
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = args.out or cfg["out_dir"]
        if args.command == "run":
            report = run_scenario(cfg, out)
            print(json.dumps({"experiment": report["experiment"],
                              "passed": report["passed"],
                              "metrics": report["metrics"],
                              "report": os.path.join(out, "report.json")},
                             indent=2))
        else:
            values = [_parse_value(v) for v in args.values]
            print(json.dumps(sweep_scenario(cfg, args.param, values, out), indent=2))
        return 0
    except (ConfigError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ControlError, SolverError, InversionError, OperatorError,
            NonlinearityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
