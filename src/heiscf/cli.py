"""Command-line interface.

One binary, seven subcommands, flags only; every randomized run records
its seed so reports are reproducible byte for byte.  Each command only
fills in its report; `main` frames it, writes it and judges it.  Exit
codes: 0 ok, 1 exactly when the report lists violations (a verify or
measure bound, a count mismatch, bestapprox's thm16 check), 2 parse/usage
error, 3 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Optional

from . import __version__
from .cf import expand, reconstruct
from .domain import RAD_KD, rk_constant
from .errors import (
    AmbiguousNearestInteger,
    CertificationError,
    HeisCFError,
    ParseError,
)
from .siegel import (
    PrecisionContext,
    from_heis,
    parse_heis_point,
    parse_planar_point,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CERTIFY = 3

EXACT_DEPTH_MAX = 10  # longest digit string exact verify/measure draw


def _finite(obj):
    """obj with each non-finite float as None: standard JSON prints it as null."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(_finite(report), indent=2, allow_nan=False)
    elif fmt == "csv":  # only count and khinchin accept it (_check_usage)
        # the report's own row dicts: count's counts, the sampled ranges, else the sums
        rows = report.get("counts") or report.get("experiment", {}).get("ranges") or [
            {k: report["sums"][k] for k in ("M", "partial_sum", "tail_bound")}]
        text = "\n".join(",".join(map(str, row)) for row in [rows[0], *map(dict.values, rows)])
    else:
        text = _render_text(report)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _render_text(report: dict) -> str:
    lines = []

    def walk(obj, pad):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, pad + "  ")
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(pad + "  -")
                    walk(v, pad + "  ")
                else:
                    lines.append(f"{pad}- {v}")

    walk(report, "")
    return "\n".join(lines)


def _base_report(args) -> dict:
    """The frame of every report: its command, parameters and seed, and the
    depth verify/measure clamp exact samples to."""
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "format", "out", "command") and v is not None
    }
    rep = {"command": args.command, "version": __version__, "params": params}
    if hasattr(args, "seed"):
        rep["seed"] = args.seed
    if args.command in ("verify", "measure") and not args.bits and args.depth > EXACT_DEPTH_MAX:
        rep["depth_used"] = EXACT_DEPTH_MAX
    return rep


def _check_usage(args) -> None:
    """Usage errors in flags, reported before any work starts."""
    bits = getattr(args, "bits", None)
    depth = getattr(args, "depth", None)
    if bits is not None and bits < 64:
        raise ParseError("--bits must be at least 64")
    if depth is not None and depth < 0:
        raise ParseError("--depth must not be negative")
    if args.command == "expand" and bits is not None and depth is None:
        raise ParseError("expand --bits needs --depth")
    for flag in ("samples", "m_max"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ParseError(f"--{flag.replace('_', '-')} must be at least 1")
    # C^4 and the tail bound's 8 C^4 stay normal floats: phi^4 cannot overflow or flush to 0
    for flag, lo, hi in (("epsilon", 0.0, math.inf), ("bigc", 2.0**-255, 2.0**255)):
        value = getattr(args, flag, None)
        if value is not None and not lo < value < hi:
            raise ParseError(f"--{flag} must lie in ({lo:g}, {hi:g})")
    given = [f for f in ("point", "heis") if getattr(args, f, None) is not None]
    if len(given) == 2:
        raise ParseError("give only one of --point and --heis")
    if args.command == "bestapprox" and bits is not None and not given:
        raise ParseError("bestapprox --bits needs --point or --heis: sampled fixtures are exact")
    if args.format == "csv" and args.command not in ("count", "khinchin"):
        raise ParseError(f"{args.command} has no CSV output: use --format json or text")


def _parse_point_arg(args):
    ctx = PrecisionContext(args.bits) if args.bits else None
    if args.point is not None:
        return parse_planar_point(args.point, ctx)
    if args.heis is not None:
        return from_heis(*parse_heis_point(args.heis, ctx), ctx)
    raise ParseError("one of --point or --heis is required")


def cmd_expand(args, rep: dict) -> None:
    e = expand(_parse_point_arg(args), max_depth=args.depth)
    rep["expansion"] = e.as_dict()
    rep["max_depth_hit"] = not e.terminated


def _random_expansions(args, rng):
    """Seeded expansions for verify/measure: rational or certified big-float."""
    from .lab.random_points import random_bigfloat_point, random_digit_string

    ctx = PrecisionContext(args.bits) if args.bits else None
    for _ in range(args.samples):
        if ctx is not None:
            yield expand(random_bigfloat_point(rng, ctx), max_depth=args.depth)
        else:
            g0, digits = random_digit_string(rng, min(args.depth, EXACT_DEPTH_MAX))
            yield expand(reconstruct(g0, digits))


def cmd_verify(args, rep: dict) -> None:
    from .lab.identities import verify_expansion

    rng = random.Random(args.seed)
    checked = 0
    max_residual = 0.0
    failures = []
    for e in _random_expansions(args, rng):
        for r in verify_expansion(e):
            checked += 1
            residual = r.residual
            if residual:  # an exact pass is 0.0, which leaves the maximum as it is
                max_residual = max(max_residual, residual / r.scale)
            if not r.passed:
                failures.append(r.as_dict())
    rep["identities"] = {
        "checked": checked,
        "max_relative_residual": max_residual,
        "failures": failures,
    }
    rep["violations"] = failures


def cmd_measure(args, rep: dict) -> None:
    from .lab.approx import approx_quality

    rng = random.Random(args.seed)
    records = [approx_quality(e, n) for e in _random_expansions(args, rng) for n in range(e.depth)]
    c_max = max((r.c_n for r in records), default=0.0)
    rel = [r.relsize_n for r in records]
    # reference_*: the bands acceptance criterion 4 observes (tests/test_acceptance.py)
    rep["measurements"] = {
        "indices_measured": len(records),
        "max_c_n": c_max,
        "reference_max_c_n": 1.26,
        "relsize_min": min(rel, default=0.0),
        "relsize_max": max(rel, default=0.0),
        "reference_relsize_range": [0.35, 3.38],
    }
    rep["violations"] = [v for r in records for v in r.violations]


def cmd_bestapprox(args, rep: dict) -> None:
    from .lab.approx import best_approx_search, prop71_check
    from .lab.random_points import DIGIT_V_NORM_MIN, random_rational_point

    if args.point is not None or args.heis is not None:
        h = _parse_point_arg(args)
        try:
            B = float(args.m_max or 100) ** 0.5
        except OverflowError:
            raise ParseError("--m-max is too large: it must convert to a float") from None
        try:
            best, d = best_approx_search(h, B)
        except ValueError as e:  # a point too large for the float search
            raise ParseError(str(e)) from None
        rep["best"] = {"point": str(best), "distance": d, "q_abs_max": B}
    else:
        qmax2 = args.m_max or 200 * 200
        if qmax2 < DIGIT_V_NORM_MIN:
            raise ParseError(f"--m-max must be at least {DIGIT_V_NORM_MIN} without --point"
                             f" or --heis: sampled q_n, n >= 1, have |q_n|^2 >= {DIGIT_V_NORM_MIN}")
        fixtures, violations = [], []
        rng = random.Random(args.seed)
        while len(fixtures) < args.samples:
            h = random_rational_point(rng, length=5, q_norm_max=10**10)
            e = expand(h)
            ns = [n for n in range(1, e.depth) if e.first_column(n)[0].norm() <= qmax2]
            if not ns:
                continue
            r = prop71_check(e, max(ns))
            fixtures.append(r.as_dict())
            violations.extend(r.violations_thm16)
        rep["best"] = {"fixtures": fixtures}
        rep["violations"] = violations


def cmd_count(args, rep: dict) -> None:
    from .lab.enumerate import (
        enumerate_rationals_naive,
        enumerate_rationals_qnorm,
        kprime_region,
    )

    region = kprime_region(0.0)
    counts, violations = [], []
    for m in range(1, args.m_max + 1):
        s = enumerate_rationals_qnorm(m, region)
        n = enumerate_rationals_naive(m, region)
        allt = enumerate_rationals_qnorm(m, region, lowest_terms=False)
        counts.append(
            {"m": m, "structured": s.count, "naive": n.count, "all_terms": allt.count}
        )
        if s.points != n.points:
            violations.append(f"structured != naive at m={m}")
    rep["counts"] = counts
    rep["violations"] = violations


def cmd_khinchin(args, rep: dict) -> None:
    from .lab.khinchin import khinchin_partial_sum

    rep["sums"] = khinchin_partial_sum(args.bigc, args.epsilon, args.m_max or 10000).as_dict()
    if args.samples:
        from .lab.sampling import khinchin_experiment

        rep["experiment"] = khinchin_experiment(
            args.bigc, args.epsilon, (4, 8), args.samples, args.seed
        ).as_dict()


def cmd_constants(args, rep: dict) -> None:
    rk = rk_constant(RAD_KD, 1e-9)
    rep["constants"] = {
        "rad": RAD_KD,
        "rad_exact": "2^(-1/4)",
        "rk": rk,
        "rad_times_rk": RAD_KD * rk,
    }


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heiscf",
        description="Continued fractions on the Heisenberg group",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a point into digits")
    p.add_argument("--point", help='planar form "(u; v)"')
    p.add_argument("--heis", help='Heisenberg form "z, t"')
    p.add_argument("--depth", type=int, help="maximum number of digits")
    p.add_argument("--bits", type=int, help="big-float backend precision")
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="identity suite on random points")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--depth", type=int, default=15)
    p.add_argument("--bits", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("measure", help="approximation-quality statistics")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--depth", type=int, default=15)
    p.add_argument("--bits", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("bestapprox", help="exhaustive best-approximation search")
    p.add_argument("--point")
    p.add_argument("--heis")
    p.add_argument("--bits", type=int)
    p.add_argument("--m-max", type=int, help="max denominator norm |q|^2")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_bestapprox)

    p = sub.add_parser("count", help="rational-point enumeration vs oracle")
    p.add_argument("--m-max", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("khinchin", help="convergence sums and sampling experiment")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--bigc", type=float, default=1.0)
    p.add_argument("--m-max", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_khinchin)

    p = sub.add_parser("constants", help="print rad, R_K and rad*R_K")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_usage(args)
        rep = _base_report(args)
        args.func(args, rep)
        _emit(rep, args.format, args.out)
    except (ParseError, OSError) as e:  # OSError: an --out path that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (CertificationError, AmbiguousNearestInteger) as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return EXIT_CERTIFY
    except HeisCFError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_VIOLATION if rep.get("violations") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
