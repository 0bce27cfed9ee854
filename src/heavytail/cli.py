"""Command line surface: fit, gaussianize, transform, simulate, replicate.

Reads plain numeric series files (one value per line, or single-column
CSV; blank lines and ``#`` comments ignored), fits heavy-tail models,
Gaussianizes data, generates samples and runs replication studies.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
Every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .distributions import Gaussian, LambertWDist, family_from_name, sp
from .estimation import fit_model, sample_moments
from .exceptions import (
    ConvergenceError,
    DataError,
    DomainError,
    HeavytailError,
    SeriesParseError,
)
from .normality import anderson_darling
from .simulate import StudyPlan, _json_safe, rlambertw, run_study
from .transform import TailParams, h_tau, w_tau

__all__ = ["main", "entry_point"]

MIN_SERIES_LENGTH = 10


def read_series(path, min_n: int = MIN_SERIES_LENGTH) -> np.ndarray:
    """Parse a numeric series file.

    Accepts newline/whitespace-delimited values or a single-column CSV.
    Blank lines and lines starting with ``#`` are skipped; any other
    non-numeric or non-finite token is a hard error reported with its
    line number.
    """
    values: list[float] = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise SeriesParseError(f"cannot read {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for token in stripped.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                raise SeriesParseError(
                    f"{path}:{lineno}: non-numeric token {token!r}"
                ) from None
            if not math.isfinite(value):
                raise SeriesParseError(
                    f"{path}:{lineno}: non-finite value {token!r}"
                )
            values.append(value)
    if len(values) < min_n:
        raise DataError(
            f"insufficient data: {path} has {len(values)} usable values, "
            f"need at least {min_n}"
        )
    return np.asarray(values)


def write_series(values, path=None) -> None:
    """Write one value per line with full round-trip precision."""
    text = "\n".join(repr(float(v)) for v in np.asarray(values).ravel()) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def parse_tau(spec: str) -> TailParams:
    """Parse ``"mu,sigma,delta[,delta_r]"`` into a TailParams."""
    try:
        parts = [float(tok) for tok in spec.split(",")]
    except ValueError:
        raise DomainError(f"cannot parse tau specification {spec!r}") from None
    if len(parts) == 3:
        return TailParams(parts[0], parts[1], parts[2])
    if len(parts) == 4:
        return TailParams(parts[0], parts[1], (parts[2], parts[3]))
    raise DomainError("tau must have 3 or 4 comma-separated components")


def _summary_block(values) -> dict[str, float]:
    m = sample_moments(values)
    return {
        "min": m.min,
        "max": m.max,
        "mean": m.mean,
        "median": m.median,
        "sd": m.sd,
        "skewness": m.skewness,
        "kurtosis": m.kurtosis,
    }


def _print_summaries(raw: dict, gaussianized: dict, out=sys.stdout) -> None:
    print(f"{'':>12}{'observed y':>16}{'gaussianized x':>16}", file=out)
    for key in ("min", "max", "mean", "median", "sd", "skewness", "kurtosis"):
        print(f"{key:>12}{raw[key]:>16.4f}{gaussianized[key]:>16.4f}", file=out)


def _t_and_p(estimate: float, se: float | None) -> tuple[float, float]:
    if se is None or not math.isfinite(se) or se <= 0:
        return math.nan, math.nan
    t = estimate / se
    return t, 2.0 * sp.ndtr(-abs(t))


def _fit_report(y, args) -> dict:
    result = fit_model(y, args.family, args.tail, args.method)
    x = w_tau(y, result.tau)
    if not isinstance(result.input, Gaussian):
        # w_tau(y) follows the fitted input law F_X; its normal scores
        # Phi^-1(F_X(x)), on the input's mean and sd, are the Gaussianized data.
        x = Gaussian(result.tau.mu_x, result.tau.sigma_x).quantile(result.input.cdf(x))

    params = {}
    for name, value in result.params.items():
        se = (result.std_errors or {}).get(name)
        t, p = _t_and_p(value, se)
        params[name] = {
            "estimate": value,
            "std_error": se if se is not None else math.nan,
            "t": t,
            "p": p,
        }

    ad_raw = anderson_darling(y)
    ad_gauss = anderson_darling(x)
    report = {
        "method": args.method,
        "family": args.family,
        "tail": args.tail,
        "converged": result.converged,
        "iterations": result.iterations,
        "boundary_hit": result.boundary_hit,
        "parameters": params,
        "loglik": {
            "total": result.loglik_total,
            "input": result.loglik_input,
            "penalty": result.loglik_penalty,
        },
        "summary": {
            "observed": _summary_block(y),
            "gaussianized": _summary_block(x),
        },
        "normality": {
            "observed": {"statistic": ad_raw.statistic, "p": ad_raw.p_value},
            "gaussianized": {
                "statistic": ad_gauss.statistic,
                "p": ad_gauss.p_value,
            },
        },
        "lr_test": None,
    }

    if args.tail == "hh":
        # One-parameter restriction: shared tail versus separate tails.
        restricted = fit_model(y, args.family, "h", args.method)
        lr = 2.0 * (result.loglik_total - restricted.loglik_total)
        report["lr_test"] = {
            "statistic": lr,
            "df": 1,
            "p": float(sp.chdtrc(1, max(lr, 0.0))),
            "loglik_h": restricted.loglik_total,
            "loglik_hh": result.loglik_total,
        }
    return report


def _print_fit_report(report: dict) -> None:
    print(
        f"model: {report['family']} input, tail={report['tail']}, "
        f"method={report['method']}"
    )
    print(
        f"converged: {report['converged']} "
        f"(iterations={report['iterations']}"
        + (
            f", boundary={report['boundary_hit']})"
            if report["boundary_hit"]
            else ")"
        )
    )
    ll = report["loglik"]
    print(
        f"log-likelihood: {ll['total']:.4f} "
        f"(input {ll['input']:.4f} + penalty {ll['penalty']:.4f})"
    )
    print()
    print(f"{'parameter':>12}{'estimate':>12}{'std.err':>12}{'t':>10}{'p':>10}")
    for name, row in report["parameters"].items():
        print(
            f"{name:>12}{row['estimate']:>12.4f}{row['std_error']:>12.4f}"
            f"{row['t']:>10.3f}{row['p']:>10.4f}"
        )
    if report["lr_test"]:
        lr = report["lr_test"]
        print()
        print(
            f"LR test (hh vs h): statistic={lr['statistic']:.4f}, "
            f"df=1, p={lr['p']:.4f}"
        )
    print()
    _print_summaries(report["summary"]["observed"], report["summary"]["gaussianized"])
    print()
    nr = report["normality"]
    print(
        "Anderson-Darling: observed "
        f"A2={nr['observed']['statistic']:.4f} (p={nr['observed']['p']:.4g}), "
        f"gaussianized A2={nr['gaussianized']['statistic']:.4f} "
        f"(p={nr['gaussianized']['p']:.4g})"
    )


def cmd_fit(args) -> int:
    y = read_series(args.input)
    report = _fit_report(y, args)
    if args.json:
        print(json.dumps(_json_safe(report), indent=1))
    else:
        _print_fit_report(report)
    return 0


def cmd_gaussianize(args) -> int:
    y = read_series(args.input)
    if args.tau is not None:
        tau = parse_tau(args.tau)
    elif args.fit:
        tau = fit_model(y, "gaussian", args.tail, args.method).tau
    else:
        raise DomainError("gaussianize needs either --tau or --fit")
    x = w_tau(y, tau)
    _print_summaries(_summary_block(y), _summary_block(x))
    print(f"tau: {','.join(repr(float(v)) for v in tau.as_array())}")
    if args.out:
        write_series(x, args.out)
        print(f"wrote {len(x)} values to {args.out}")
    else:
        write_series(x)
    return 0


def cmd_transform(args) -> int:
    y = read_series(args.input)
    tau = parse_tau(args.tau)
    out = h_tau(y, tau) if args.direction == "forward" else w_tau(y, tau)
    write_series(out, args.out)
    if args.out:
        print(f"wrote {len(out)} values to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be at least 1")
    tau = parse_tau(args.tau)
    if args.family == "gaussian":
        family = Gaussian(tau.mu_x, tau.sigma_x)
    else:
        if not args.beta:
            raise DomainError(
                f"family {args.family!r} needs --beta with its parameters; "
                "the location/scale components of --tau are derived from them"
            )
        params = tuple(float(tok) for tok in args.beta.split(","))
        family = family_from_name(args.family, params)
    dist = LambertWDist(family, tau.delta)
    y = rlambertw(args.n, dist, seed=args.seed)
    write_series(y, args.out)
    if args.out:
        print(f"wrote {len(y)} values to {args.out}")
    return 0


def cmd_replicate(args) -> int:
    if args.plan:
        plan = StudyPlan.from_json(args.plan)
    else:
        plan = StudyPlan()
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    table = run_study(plan)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "replication_table.csv"
    json_path = out_dir / "replication_table.json"
    table.to_csv(csv_path)
    table.to_json(json_path)
    print(f"wrote {csv_path} and {json_path} ({len(table.rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytail",
        description="Heavy-tail Lambert W x F_X modelling tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a heavy-tail model to a series file")
    p_fit.add_argument("input")
    p_fit.add_argument("--family", default="gaussian", choices=["gaussian", "student-t"])
    p_fit.add_argument("--tail", default="h", choices=["h", "hh"])
    p_fit.add_argument("--method", default="mle", choices=["mle", "igmm"])
    p_fit.add_argument("--json", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_g = sub.add_parser("gaussianize", help="back-transform a series to latent scale")
    p_g.add_argument("input")
    p_g.add_argument("--tau", help='transformation vector "mu,sigma,delta[,delta_r]"')
    p_g.add_argument("--fit", action="store_true", help="estimate tau from the data")
    p_g.add_argument("--method", default="mle", choices=["mle", "igmm"])
    p_g.add_argument("--tail", default="h", choices=["h", "hh"])
    p_g.add_argument("--out", help="output series file (default: stdout)")
    p_g.set_defaults(func=cmd_gaussianize)

    p_t = sub.add_parser("transform", help="apply the transform elementwise")
    p_t.add_argument("input")
    p_t.add_argument("--tau", required=True)
    p_t.add_argument("--direction", default="forward", choices=["forward", "inverse"])
    p_t.add_argument("--out", help="output series file (default: stdout)")
    p_t.set_defaults(func=cmd_transform)

    p_s = sub.add_parser("simulate", help="generate a random sample")
    p_s.add_argument("--family", default="gaussian")
    p_s.add_argument("--beta", help="input family parameters, comma separated")
    p_s.add_argument("--tau", required=True)
    p_s.add_argument("--n", type=int, required=True)
    p_s.add_argument("--seed", type=int, default=0)
    p_s.add_argument("--out", help="output series file (default: stdout)")
    p_s.set_defaults(func=cmd_simulate)

    p_r = sub.add_parser("replicate", help="run a Monte-Carlo replication study")
    p_r.add_argument("--plan", help="study plan JSON file (default: desk-scale plan)")
    p_r.add_argument("--seed", type=int, default=None, help="override the plan seed")
    p_r.add_argument("--out", required=True, help="output directory")
    p_r.set_defaults(func=cmd_replicate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError is a ValueError, so it comes first.
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DataError, DomainError and SeriesParseError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HeavytailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
