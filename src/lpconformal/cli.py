"""Command-line interface: calibrate, estimate, evaluate, compare, simulate.

Exit codes: 0 on success, 2 on domain or parameter errors, 3 on I/O or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import cache
from pathlib import Path

from .estimation import default_epsilon_grid, estimate_lp_params
from .harness import (
    METHOD_NAMES,
    WEIGHTED_METHODS,
    FileFormatError,
    MethodSpec,
    compare,
    evaluate,
    perturbation_dict,
    read_matrix,
    read_scores,
    read_weighted_scores,
    reports_json,
    write_report_csv,
    write_text,
)
from .shiftlab import PerturbationSpec, PointMass, perturb_sample

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"could not parse grid {text!r}: {exc}") from exc


def _emit_text(text: str, out: str | Path | None) -> None:
    if out:
        write_text(out, text + "\n")
    else:
        print(text)


def _emit(payload: dict, out: str | Path | None) -> None:
    _emit_text(json.dumps(payload, sort_keys=True, indent=2), out)


def _threshold_payload(result) -> dict:
    return {
        "threshold": result.threshold,
        "unbounded": result.is_unbounded,
        "level_used": result.level_used,
        "coverage_bound": result.coverage_bound,
    }


def _perturbation_from_args(args) -> PerturbationSpec | None:
    if args.perturb_rho == 0.0 and args.perturb_epsilon == 0.0:
        return None
    return PerturbationSpec(
        epsilon=args.perturb_epsilon,
        rho=args.perturb_rho,
        global_law=PointMass(args.perturb_global),
        seed=args.perturb_seed,
    )


def _cmd_calibrate(args) -> int:
    weights = None
    if args.method in WEIGHTED_METHODS:
        if not args.weights:
            raise ValueError(f"method {args.method!r} requires --weights")
        scores, weights = read_weighted_scores(args.weights, args.test_weight).by_score()
    else:
        if not args.scores:
            raise ValueError(f"method {args.method!r} requires --scores")
        sample = read_scores(args.scores, has_header=args.has_header)
    method = _method_from_args(args.method, args)
    if weights is None:
        result = method.threshold(sample, args.alpha)
    else:
        result = method.rule(scores.size, args.alpha, weights).apply(scores)
    payload = {
        "method": args.method,
        "alpha": args.alpha,
        **method.params_dict(),
        **_threshold_payload(result),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    calib_a = read_scores(args.calib_a, has_header=args.has_header)
    calib_b = read_scores(args.calib_b, has_header=args.has_header)
    test = read_scores(args.test, has_header=args.has_header)
    grid = (default_epsilon_grid(calib_a, calib_b, test) if args.grid is None
            else _parse_grid(args.grid))
    result = estimate_lp_params(calib_a, calib_b, test, grid, args.alpha)
    payload = {
        "alpha": args.alpha,
        "epsilon": result.epsilon,
        "rho": result.rho,
        "beta": result.beta,
        "q": result.q,
        # A grid point's fields are scalars, so a shallow dict serializes as asdict's would.
        "grid_trace": [{f.name: getattr(p, f.name) for f in fields(p)} for p in result.grid_trace],
    }
    _emit(payload, args.out)
    return EXIT_OK


def _method_from_args(name: str, args) -> MethodSpec:
    return MethodSpec(
        name=name,
        epsilon=args.epsilon,
        rho=args.rho,
        rho_chi2=args.rho_chi2,
        delta=args.delta,
        sigma=args.sigma,
        test_weight=args.test_weight,
    )


def _split_kwargs(args) -> dict:
    """The split, seed and perturbation arguments of ``evaluate`` and ``compare``."""
    return dict(alpha=args.alpha, n_splits=args.splits, n_calib=args.n_calib,
                k_test=args.k_test, base_seed=args.seed,
                perturbation=_perturbation_from_args(args),
                redraw_per_split=not args.fixed_perturbation)


def _cmd_evaluate(args) -> int:
    matrix = read_matrix(args.matrix)
    report = evaluate(matrix, _method_from_args(args.method, args), **_split_kwargs(args))
    _emit_text(report.to_json(), args.out)
    if args.csv:
        write_report_csv([report], args.csv)
    return EXIT_OK


def _cmd_compare(args) -> int:
    matrix = read_matrix(args.matrix)
    names = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if not names:
        raise ValueError(f"--methods names no method, got {args.methods!r}")
    methods = [_method_from_args(name, args) for name in names]
    reports = compare(matrix, methods, **_split_kwargs(args))
    _emit_text(reports_json(reports), args.out)
    if args.csv:
        write_report_csv(reports, args.csv)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    sample = read_scores(args.scores, has_header=args.has_header)
    local = None if args.local_law == "uniform" else PointMass(args.local_value)
    spec = PerturbationSpec(
        epsilon=args.epsilon,
        rho=args.rho,
        local_law=local,
        global_law=PointMass(args.global_value),
        seed=args.seed,
    )
    perturbed = perturb_sample(sample, spec)
    out = Path(args.out)
    values = perturbed.scores.tolist()
    # One %-format call; %r of a float is its repr, as an f-string's !r.
    write_text(out, ("%r\n" * len(values)) % tuple(values))
    _emit({"source": str(args.scores), "n": sample.n, **perturbation_dict(spec)},
          out.with_name(out.stem + "_spec.json"))
    return EXIT_OK


def _add_common_method_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.1, help="miscoverage level")
    parser.add_argument("--epsilon", type=float, default=0.0, help="local shift radius")
    parser.add_argument("--rho", type=float, default=0.0, help="global shift mass budget")
    parser.add_argument("--rho-chi2", type=float, default=0.0, help="chi-square ball radius")
    parser.add_argument("--delta", type=float, default=0.0, help="smoothing noise bound")
    parser.add_argument("--sigma", type=float, default=1.0, help="smoothing scale")
    parser.add_argument("--test-weight", type=float, default=1.0, help="test point weight")


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--matrix", required=True, help="score matrix CSV")
    parser.add_argument("--splits", type=int, default=30, metavar="M")
    parser.add_argument("--n-calib", type=int, required=True)
    parser.add_argument("--k-test", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--perturb-epsilon", type=float, default=0.0)
    parser.add_argument("--perturb-rho", type=float, default=0.0)
    parser.add_argument("--perturb-global", type=float, default=0.0,
                        help="point-mass location of the global perturbation law")
    parser.add_argument("--perturb-seed", type=int, default=0)
    parser.add_argument("--fixed-perturbation", action="store_true",
                        help="draw the test perturbation once instead of per split")
    parser.add_argument("--csv", help="also write a per-split CSV table")
    parser.add_argument("--out", help="write the JSON report here (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpconformal",
        description="Distributionally robust split conformal prediction tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="compute a threshold from a score file")
    p.add_argument("--scores", help="score CSV, one score per line")
    p.add_argument("--weights", help="weighted-score CSV with header score,weight")
    p.add_argument("--has-header", action="store_true", help="score file has a header line")
    p.add_argument("--method", default="lp", choices=METHOD_NAMES)
    _add_common_method_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("estimate", help="data-driven (epsilon, rho) selection")
    p.add_argument("--calib-a", required=True, help="shift-estimation calibration scores")
    p.add_argument("--calib-b", required=True, help="quantile calibration scores (disjoint)")
    p.add_argument("--test", required=True, help="test scores")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--grid", help="comma-separated epsilon grid (default: 20 log-spaced over the pooled IQR)")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("evaluate", help="coverage/efficiency of one method over splits")
    p.add_argument("--method", required=True, choices=METHOD_NAMES)
    _add_common_method_flags(p)
    _add_eval_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="paired evaluation of several methods")
    p.add_argument("--methods", required=True, help="comma-separated method names")
    _add_common_method_flags(p)
    _add_eval_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("simulate", help="emit a perturbed score file plus a sidecar spec")
    p.add_argument("--scores", required=True)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--local-law", choices=["uniform", "point"], default="uniform")
    p.add_argument("--local-value", type=float, default=0.0,
                   help="location of the point-mass local law")
    p.add_argument("--global-value", type=float, default=0.0,
                   help="location of the point-mass global law")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="perturbed score CSV path")
    p.set_defaults(func=_cmd_simulate)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.

    Building it takes a few milliseconds, and parsing leaves it unchanged:
    each call gets a fresh namespace filled from the declared defaults.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
