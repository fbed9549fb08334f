"""Command-line interface.

One binary, seven subcommands, flags only; every randomized run records
its seed so reports are reproducible byte for byte.  Exit codes: 0 ok,
1 hard-bound violation, 2 parse/usage error, 3 certification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import __version__
from .cf import expand, reconstruct
from .domain import rk_constant
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

RAD = 2.0**-0.25
EXACT_DEPTH_MAX = 10  # longest digit string exact verify/measure draw


def _emit(report: dict, fmt: str, out: Optional[str], csv_rows=None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=False)
    elif fmt == "csv" and csv_rows is not None:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows)
    else:
        text = _render_text(report)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _render_text(report: dict, indent: str = "") -> str:
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
                    walk(v, pad + "  ")
                    lines.append(pad + "  -")
                else:
                    lines.append(f"{pad}- {v}")

    walk(report, indent)
    return "\n".join(lines)


def _base_report(command: str, args, seed=None) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "format", "out", "command") and v is not None
    }
    rep = {"command": command, "version": __version__, "params": params}
    if seed is not None:
        rep["seed"] = seed
    return rep


def _check_numbers(args) -> None:
    """Usage errors in numeric flags, reported before any work starts."""
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
    for flag in ("epsilon", "bigc"):
        value = getattr(args, flag, None)
        if value is not None and not value > 0:
            raise ParseError(f"--{flag} must be positive")


def _parse_point_arg(args):
    ctx = PrecisionContext(args.bits) if args.bits else None
    if args.point is not None:
        return parse_planar_point(args.point, ctx)
    if args.heis is not None:
        return from_heis(parse_heis_point(args.heis, ctx))
    raise ParseError("one of --point or --heis is required")


def cmd_expand(args) -> int:
    h = _parse_point_arg(args)
    e = expand(h, max_depth=args.depth)
    rep = _base_report("expand", args)
    rep["expansion"] = e.as_dict()
    rep["max_depth_hit"] = e.max_depth_hit
    _emit(rep, args.format, args.out)
    return EXIT_OK


def _sample_report(command: str, args) -> dict:
    """The report of verify/measure; it states a clamped depth."""
    rep = _base_report(command, args, seed=args.seed)
    if not args.bits and args.depth > EXACT_DEPTH_MAX:
        rep["depth_used"] = EXACT_DEPTH_MAX
    return rep


def _random_expansions(args, rng):
    """Seeded expansions for verify/measure: rational or certified big-float."""
    from .lab.random_points import random_bigfloat_point, random_digit_string

    for _ in range(args.samples):
        if args.bits:
            ctx = PrecisionContext(args.bits)
            h = random_bigfloat_point(rng, ctx)
            yield expand(h, max_depth=args.depth)
        else:
            g0, digits = random_digit_string(rng, min(args.depth, EXACT_DEPTH_MAX))
            yield expand(reconstruct(g0, digits))


def cmd_verify(args) -> int:
    from .lab.identities import (
        verify_distance_formula,
        verify_fracq,
        verify_prq,
        verify_tildeprq,
    )

    rng = random.Random(args.seed)
    checked = 0
    max_residual = 0.0
    failures = []
    for e in _random_expansions(args, rng):
        top = e.depth if e.terminated else e.depth - 1
        for n in range(top + 1):
            reports = [
                verify_prq(e, n),
                verify_tildeprq(e, n),
                verify_distance_formula(e, n),
            ]
            if n >= 1:
                reports.append(verify_fracq(e, n))
            for r in reports:
                checked += 1
                max_residual = max(max_residual, r.residual / max(r.scale, 1.0))
                if not r.passed:
                    failures.append(r.as_dict())
    rep = _sample_report("verify", args)
    rep["identities"] = {
        "checked": checked,
        "max_relative_residual": max_residual,
        "failures": failures,
    }
    rep["violations"] = failures
    _emit(rep, args.format, args.out)
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_measure(args) -> int:
    from .lab.approx import approx_quality

    rng = random.Random(args.seed)
    records = []
    violations = []
    for e in _random_expansions(args, rng):
        for n in range(e.depth):
            rec = approx_quality(e, n)
            records.append(rec)
            violations.extend(rec.violations)
    c_max = max((r.c_n for r in records), default=0.0)
    rel = [r.relsize_n for r in records]
    rep = _sample_report("measure", args)
    rep["measurements"] = {
        "indices_measured": len(records),
        "max_c_n": c_max,
        "reference_max_c_n": 1.26,
        "relsize_min": min(rel, default=0.0),
        "relsize_max": max(rel, default=0.0),
        "reference_relsize_range": [0.35, 3.38],
    }
    rep["violations"] = violations
    _emit(rep, args.format, args.out)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_bestapprox(args) -> int:
    from .lab.approx import best_approx_search, prop71_check
    from .lab.random_points import random_rational_point

    rep = _base_report("bestapprox", args, seed=args.seed)
    violations = []
    if args.point is not None or args.heis is not None:
        h = _parse_point_arg(args)
        B = float(args.m_max or 100) ** 0.5
        best, d = best_approx_search(h, B)
        rep["best"] = {"point": str(best), "distance": d, "q_abs_max": B}
    else:
        qmax2 = args.m_max or 200 * 200
        fixtures = []
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
    _emit(rep, args.format, args.out)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_count(args) -> int:
    from .lab.enumerate import (
        enumerate_rationals_naive,
        enumerate_rationals_qnorm,
        kprime_region,
    )

    region = kprime_region(0.0)
    rows = [("m", "structured", "naive", "all_terms")]
    mismatches = []
    counts = []
    for m in range(1, args.m_max + 1):
        s = enumerate_rationals_qnorm(m, region)
        n = enumerate_rationals_naive(m, region)
        allt = enumerate_rationals_qnorm(m, region, lowest_terms=False)
        counts.append(
            {"m": m, "structured": s.count, "naive": n.count, "all_terms": allt.count}
        )
        rows.append((m, s.count, n.count, allt.count))
        if s.points != n.points:
            mismatches.append(m)
    rep = _base_report("count", args)
    rep["counts"] = counts
    rep["violations"] = [f"structured != naive at m={m}" for m in mismatches]
    _emit(rep, args.format, args.out, csv_rows=rows)
    return EXIT_VIOLATION if mismatches else EXIT_OK


def cmd_khinchin(args) -> int:
    from .lab.khinchin import khinchin_partial_sum

    rep = _base_report("khinchin", args, seed=args.seed)
    ks = khinchin_partial_sum(args.bigc, args.epsilon, args.m_max or 10000)
    rep["sums"] = ks.as_dict()
    csv_rows = [("M", "partial_sum", "tail_bound"), (ks.M, ks.partial, ks.tail_bound)]
    if args.samples:
        from .lab.sampling import khinchin_experiment

        ex = khinchin_experiment(
            args.bigc, args.epsilon, (4, 8), args.samples, args.seed
        )
        rep["experiment"] = ex.as_dict()
        csv_rows = [("k", "m_lo", "m_hi", "points", "hits", "fraction")] + [
            (r["k"], r["m_lo"], r["m_hi"], r["points"], r["hits"], r["fraction"])
            for r in ex.ranges
        ]
    _emit(rep, args.format, args.out, csv_rows=csv_rows)
    return EXIT_OK


def cmd_constants(args) -> int:
    rk = rk_constant(RAD, 1e-9)
    rep = _base_report("constants", args)
    rep["constants"] = {
        "rad": RAD,
        "rad_exact": "2^(-1/4)",
        "rk": rk,
        "rad_times_rk": RAD * rk,
    }
    _emit(rep, args.format, args.out)
    return EXIT_OK


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
        _check_numbers(args)
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (CertificationError, AmbiguousNearestInteger) as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return EXIT_CERTIFY
    except HeisCFError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
