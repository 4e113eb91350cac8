"""Command line front end.

Subcommands:
  size        sample-size calculators
  draw        draw a sample (with repetition) from a points CSV
  verify      exhaustively check a guarantee for a drawn sample
  query       approximate range counting from a stored sample
  experiment  run a Monte-Carlo experiment config
  calibrate   search for the smallest workable leading constant

Exit codes: 0 success (for verify: the property holds), 1 verify found a
violation, 2 bad parameters, malformed config or sample files, or failed
calibration, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .errors import BudgetExceededError, CalibrationError, ParameterError
from .estimator import GUARANTEE_PARAMS, GUARANTEES, estimate_count
from .harness import ExperimentConfig, calibrate_constant, run_experiment, sample_size_for
from .ranges import read_points_csv
from .sampling import _load_sample_json, draw_sample, read_sample_json, write_sample_json
from .verify import _SPELLINGS, verify_property

__all__ = ["main"]


def _cmd_size(args: argparse.Namespace) -> int:
    print(sample_size_for(args.property, args.d, args.eps, args.p, args.delta, args.C))
    return 0


def _cmd_draw(args: argparse.Namespace) -> int:
    X = read_points_csv(args.points)
    N = draw_sample(X, args.m, args.seed)
    write_sample_json(args.out, N, X)
    print(f"drew {N.m} of {len(X)} points (seed {N.seed}) -> {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    X = read_points_csv(args.points)
    N = read_sample_json(args.sample)
    if args.eps is None:
        raise ParameterError(f"verify --property {args.property} needs --eps")
    report = verify_property(args.property, X, N, args.eps, args.p, args.family)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _parse_guarantee(spec: str) -> dict[str, Any]:
    """name[:eps[:p][:delta]] -> estimate_count keyword arguments.

    approx:EPS[:DELTA], sensitive:EPS[:DELTA], relative:EPS:P[:DELTA], none.
    """
    parts = spec.split(":")
    name = parts[0]
    if name not in GUARANTEES:
        raise ParameterError(
            f"unknown guarantee {name!r}; choose from {GUARANTEES}"
        )
    try:
        values = [float(x) for x in parts[1:]]
    except ValueError:
        raise ParameterError(f"malformed guarantee string {spec!r}") from None
    required, optional = GUARANTEE_PARAMS[name]
    if not (len(required) <= len(values) <= len(required) + len(optional)):
        raise ParameterError(
            f"guarantee {name!r} takes {spec!r} as "
            f"{name}{''.join(':' + w.upper() for w in required)}"
            f"{''.join('[:' + w.upper() + ']' for w in optional)}"
        )
    return {"guarantee": name, **dict(zip(required + optional, values))}


def _cmd_query(args: argparse.Namespace) -> int:
    N, coords = _load_sample_json(args.sample)
    if coords is None:
        raise ParameterError(
            f"{args.sample}: no embedded coordinates; draw the sample with "
            "the CLI (or write_sample_json with the ground set) first"
        )
    if args.points_size not in (None, N.ground_size):
        raise ParameterError(
            f"--points-size {args.points_size} disagrees with the sample's "
            f"n_points {N.ground_size}"
        )
    try:
        params = tuple(float(x) for x in args.range.split(","))
    except ValueError:
        raise ParameterError(f"malformed --range {args.range!r}") from None
    kwargs = _parse_guarantee(args.guarantee)
    est = estimate_count(params, coords, N.ground_size, fam=args.family, **kwargs)
    print(json.dumps(est.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json_path(args.config)
    result = run_experiment(cfg)
    payload = result.to_json_bytes()
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    if args.csv:
        result.save_csv(args.csv)
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json_path(args.config)
    C = calibrate_constant(cfg, args.target_delta)
    print(C)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcsample",
        description="Sampling, verification and counting over finite "
        "geometric range spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("size", help="sample-size calculators")
    p.add_argument("--property", required=True, choices=list(_SPELLINGS))
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--d", type=int, required=True, help="VC dimension")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--C", type=float, default=1.0)
    p.set_defaults(func=_cmd_size)

    p = sub.add_parser("draw", help="draw a sample from a points CSV")
    p.add_argument("--points", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_draw)

    p = sub.add_parser("verify", help="exhaustively verify a guarantee")
    p.add_argument("--property", required=True, choices=list(_SPELLINGS))
    p.add_argument("--points", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("query", help="approximate count for one range")
    p.add_argument("--points-size", type=int, default=None,
                   help="|X|, the ground set size behind the sample "
                   "(default and only accepted value: the file's n_points)")
    p.add_argument("--sample", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--range", required=True,
                   help="comma-separated witness parameters")
    p.add_argument("--guarantee", required=True,
                   help="name[:eps[:p][:delta]], e.g. relative:0.3:0.05")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("experiment", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.add_argument("--csv", default=None, help="also write the CSV table here")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("calibrate", help="calibrate the leading constant")
    p.add_argument("--config", required=True)
    p.add_argument("--target-delta", type=float, required=True)
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, CalibrationError, ParameterError,
            json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceededError) else 2


if __name__ == "__main__":
    sys.exit(main())
