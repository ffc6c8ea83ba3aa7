"""Batch command-line interface.

Four subcommands: simulate (write a dataset CSV), estimate (effects from a
dataset CSV), experiment (run a scenario grid to a results CSV), and
variance (asymptotic-variance report for a process spec). Exit codes: 0
success, 2 configuration/validation problems, 3 I/O problems.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from ._converters import _as_float
from .asymptotics import variance_report
from .dgp import Dataset, simulate
from .harness import (
    BUILTIN_SCENARIOS,
    METHOD_NAMES,
    _fmt_vector,
    csv_digest,
    emit_csv,
    estimate,
    run_scenario,
    scenario_from_config,
    spec_from_config,
)
from .ica import CONTRASTS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _finite_float(text: str) -> float:
    """A flag's number, refused where the same config value would be."""
    try:
        return _as_float(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrica",
        description="Treatment-effect estimation in partially linear models "
                    "by linear source separation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a dataset to CSV")
    p_sim.add_argument("--spec", required=True, help="process spec config file")
    p_sim.add_argument("--n", type=int, required=True, help="number of rows")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate effects from a dataset CSV")
    p_est.add_argument("--data", required=True, help="dataset CSV (x_*,t_*,y header)")
    p_est.add_argument("--method", required=True, choices=METHOD_NAMES)
    p_est.add_argument("--contrast", default="logcosh", choices=tuple(CONTRASTS))
    p_est.add_argument("--seed", type=int, default=0, help="seed of ica's restart draws")
    p_est.add_argument("--lambda-scale", type=_finite_float, default=1.0)
    p_est.add_argument("--folds", type=int, default=2)
    p_est.add_argument("--tol", type=_finite_float, default=1e-4,
                       help="stop level: ica stops when its read row's 1 - |cos| is below "
                            "max(tol, 1/n) on two sweeps running (tol itself below 1e-8, "
                            "for the float64 fixed point); each lasso fit of oml and homl "
                            "stops when no standardized coefficient moves by tol in a sweep")
    p_est.add_argument("--max-iter", type=int, default=1000)
    p_est.set_defaults(handler=_cmd_estimate)

    p_exp = sub.add_parser("experiment", help="run a scenario grid to a results CSV")
    p_exp.add_argument("--config", help="scenario config file")
    p_exp.add_argument("--out", help="output results CSV")
    p_exp.add_argument("--workers", type=int, default=1, help="parallel workers (default: 1)")
    p_exp.add_argument("--list", action="store_true", dest="list_builtins",
                       help="list builtin scenario names and exit")
    p_exp.set_defaults(handler=_cmd_experiment)

    p_var = sub.add_parser("variance", help="asymptotic variance report for a spec")
    p_var.add_argument("--spec", required=True, help="process spec config file")
    p_var.add_argument("--seed", type=int, default=0,
                       help="seed for drawing unresolved coefficient blocks")
    p_var.set_defaults(handler=_cmd_variance)
    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_simulate(args) -> int:
    spec = spec_from_config(_read_text(args.spec))
    dataset = simulate(spec, args.n, args.seed)
    dataset.to_csv(args.out)
    print(f"wrote {dataset.n} rows x {dataset.columns.shape[1]} columns to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    dataset = Dataset.from_csv(args.data)
    est = estimate(args.method, dataset, contrast=args.contrast, seed=args.seed, tol=args.tol,
                   max_iter=args.max_iter, lambda_scale=args.lambda_scale, folds=args.folds)
    print(f"method={est.method}")
    print(f"theta_hat={_fmt_vector(est.theta_hat)}")
    print(f"converged={'true' if est.diagnostics.converged else 'false'}")
    print(f"iterations={est.diagnostics.iterations}")
    print(f"restarts={est.diagnostics.restarts}")
    if est.diagnostics.condition_value is not None:
        print(f"condition_value={est.diagnostics.condition_value:.6g}")
    if est.diagnostics.notes:
        print(f"notes={est.diagnostics.notes}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.list_builtins:
        for name in BUILTIN_SCENARIOS:
            print(name)
        return EXIT_OK
    if not args.config or not args.out:
        raise ValueError("experiment needs --config and --out (or --list)")
    config = scenario_from_config(_read_text(args.config))
    records = run_scenario(config, workers=args.workers)
    emit_csv(records, args.out)
    n_cells = len(config.cells())
    print(f"scenario {config.scenario}: {len(records)} records "
          f"({n_cells} cells x {config.seeds} seeds) -> {args.out}")
    print(f"digest={csv_digest(args.out)}")
    return EXIT_OK


def _cmd_variance(args) -> int:
    spec = spec_from_config(_read_text(args.spec))
    report = variance_report(spec, seed=args.seed)
    for field in fields(report):
        value = getattr(report, field.name)
        print(f"{field.name}={value if isinstance(value, str) else format(value, '.12g')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
