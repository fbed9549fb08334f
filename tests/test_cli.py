import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import heiscf
from heiscf.cli import _render_text, main
from heiscf.errors import ParseError
from heiscf.gaussian import parse_gauss_rat
from heiscf.lab.sampling import khinchin_experiment


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# run in a subprocess first, so that `import numpy` fails there
NO_NUMPY = "import sys; sys.modules['numpy'] = None; "
NO_NUMPY_CLI = NO_NUMPY + "from heiscf.cli import main; sys.exit(main())"


def run_python(argv, timeout=None):
    """`python argv` in a subprocess that imports heiscf from this tree."""
    # the src directory of the imported package, which pytest's
    # pythonpath setting does not pass on to a subprocess
    src = os.path.dirname(os.path.dirname(heiscf.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )


def run_module(args, timeout=None):
    """`python -m heiscf.cli args` in a subprocess."""
    return run_python(["-m", "heiscf.cli", *args], timeout)


def load_schema():
    with resources.files("heiscf").joinpath("schemas/report.schema.json").open() as f:
        return json.load(f)


SCHEMA = load_schema()


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 lacks."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def check_json(out):
    rep = strict_json(out)
    jsonschema.validate(rep, SCHEMA)
    return rep


class TestConstants:
    def test_values(self, capsys):
        code, out = run_cli(["constants", "--format", "json"], capsys)
        assert code == 0
        rep = check_json(out)
        c = rep["constants"]
        assert abs(c["rad"] - 2.0**-0.25) < 1e-15
        assert abs(c["rk"] - 6726.7) < 0.5
        assert abs(c["rad_times_rk"] - 5656.5) < 0.5


class TestExpand:
    def test_spec_example(self, capsys):
        code, out = run_cli(
            ["expand", "--point", "(1+i; 1+4/5i)", "--format", "json"], capsys
        )
        assert code == 0
        rep = check_json(out)
        assert rep["expansion"]["digits"] == ["(0; 5i)"]
        assert rep["expansion"]["terminated"] is True

    def test_origin(self, capsys):
        code, out = run_cli(["expand", "--point", "(0;0)", "--format", "json"], capsys)
        assert code == 0
        assert check_json(out)["expansion"]["digits"] == []

    def test_parse_error_exit_2(self, capsys):
        code, _ = run_cli(["expand", "--point", "garbage"], capsys)
        assert code == 2

    def test_missing_point_exit_2(self, capsys):
        code, _ = run_cli(["expand"], capsys)
        assert code == 2

    def test_certified(self, capsys):
        code, out = run_cli(
            [
                "expand",
                "--heis",
                "1/3+1/7i, 2/11",
                "--bits",
                "128",
                "--depth",
                "5",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        rep = check_json(out)
        assert rep["expansion"]["backend"] == "bigfloat"
        assert rep["expansion"]["bits"] == 128
        assert len(rep["expansion"]["digits"]) == 5

    def test_certification_failure_exit_3(self, capsys):
        # rational point expanded on the big-float backend: the orbit hits
        # the origin, which certification must refuse to invert
        code, _ = run_cli(
            ["expand", "--heis", "0.3+0.1i, 0.2", "--bits", "256", "--depth", "20"],
            capsys,
        )
        assert code == 3

    def test_near_origin_guard_exit_3_with_one_line(self, capsys):
        code = main(["expand", "--heis", "1/3+1/7i, 2/11", "--bits", "64", "--depth", "200"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "certification failure: orbit too close to the origin to certify inversion\n"
        )


def printed_parts(point: str) -> list[Fraction]:
    """Re u, Im u, Re v, Im v of a printed big-float point "(u; v)"."""
    parts = []
    for c in point.strip("()").split("; "):
        m = re.fullmatch(r"(-?[0-9.e+-]+?)([+-])([0-9.e+-]+)i", c)
        sign = -1 if m.group(2) == "-" else 1
        parts += [Fraction(m.group(1)), sign * Fraction(m.group(3))]
    return parts


class TestBigfloatExpand:
    def test_printed_digits_exact(self, capsys):
        # dyadic coordinates with more than 53 significant bits and at most
        # 126 fractional ones: at 512 bits every printed digit of both parts
        # must equal the exact value
        zr, zi = Fraction(2**60 + 1, 2**62), Fraction(-(2**61 + 3), 2**63)
        t = Fraction(2**70 + 5, 2**72)
        heis = f"{zr}{zi}i, {t}"
        code, out = run_cli(
            ["expand", "--heis", heis, "--bits", "512", "--depth", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        point = check_json(out)["expansion"]["point"]
        assert printed_parts(point) == [zr - zi, zr + zi, zr * zr + zi * zi, t]

    def test_printed_imaginary_part_full_precision(self, capsys):
        code, out = run_cli(
            ["expand", "--heis", "1/3+1/7i, 2/11", "--bits", "512", "--depth", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        ure, uim, vre, vim = printed_parts(check_json(out)["expansion"]["point"])
        exact = [Fraction(4, 21), Fraction(10, 21), Fraction(58, 441), Fraction(2, 11)]
        for got, want in zip((ure, uim, vre, vim), exact):
            assert abs(got - want) < Fraction(1, 2**500)

    def test_prints_only_digits_the_bits_carry(self, capsys):
        # 512 bits carry 153 significant digits: each printed part is the
        # exact value rounded to 153 digits, with no noise digits after it
        code, out = run_cli(
            ["expand", "--heis", "1/3+1/7i, 2/11", "--bits", "512", "--depth", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        point = check_json(out)["expansion"]["point"]
        printed = re.split(r"[+;]\s*", point.strip("()").replace("i", ""))
        with mp.workprec(2048):
            want = [
                mp.nstr(mpf(x.numerator) / x.denominator, 153)
                for x in (Fraction(4, 21), Fraction(10, 21), Fraction(58, 441), Fraction(2, 11))
            ]
        assert printed == want

    def test_huge_orbit_coordinates_match_exact(self, capsys):
        # after one inversion |Re u| and |Im u| exceed 2^53, past what a
        # window centred on float(Re u) could place
        heis = (
            "1/3458764513820540928+1/8070450532247928832i,"
            " 1/6646139978924579364519035301003722752"
        )
        args = ["expand", "--heis", heis, "--depth", "3", "--format", "json"]
        code, out = run_cli(args + ["--bits", "512"], capsys)
        assert code == 0
        big = check_json(out)["expansion"]["digits"]
        code, out = run_cli(args, capsys)
        assert code == 0
        assert big == check_json(out)["expansion"]["digits"]
        assert big[1:] == ["(0; -3i)", "(-2i; 2+i)"]

    def test_verify_1024_bits(self, capsys):
        code, out = run_cli(
            ["verify", "--bits", "1024", "--samples", "1", "--depth", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert check_json(out)["identities"]["failures"] == []


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--bits", "32", "--samples", "1", "--depth", "3"],
            ["expand", "--point", "(1+i; 1+4/5i)", "--depth", "-1"],
            ["expand", "--heis", "1/3+1/7i, 2/11", "--bits", "128"],
            ["verify", "--samples", "-3", "--format", "json"],
            ["measure", "--samples", "-1"],
            ["bestapprox", "--samples", "-2"],
            ["khinchin", "--m-max", "-5"],
            ["khinchin", "--m-max", "0"],
            ["khinchin", "--epsilon", "-1"],
            ["khinchin", "--bigc", "0"],
            # C^4 past the float range, infinite, or flushed to zero
            ["khinchin", "--bigc", "1e100", "--m-max", "10"],
            ["khinchin", "--bigc", "inf"],
            ["khinchin", "--bigc", "1e-320"],
            ["khinchin", "--epsilon", "inf"],
            ["count", "--m-max", "-5"],
            ["expand", "--point", "(1/0; 0)"],
            ["expand", "--heis", "1/0, 0"],
            ["expand", "--point", "(1/(0); 0)"],
            ["expand", "--point", "(1; 0/0i)"],
            ["bestapprox", "--point", "(1/0; 0)"],
            # beyond the float range: the search bound sqrt(m_max) has no float
            ["bestapprox", "--point", "(1+i; 1+4/5i)", "--m-max", "1" + "0" * 400],
            # |u|^2 + |v| >= 2^50: too large for the float candidate search,
            # and past the float range
            ["bestapprox", "--point", "(0; 10000000000000000000000000000000000i)"],
            ["bestapprox", "--heis", "1" + "0" * 400 + ", 0"],
            # a file used as a directory: the output path cannot be opened
            ["constants", "--out", os.path.join(__file__, "r.json")],
            ["expand", "--point", "(1+i; 1+4/5i)", "--heis", "1/3+1/7i, 2/11"],
            ["bestapprox", "--point", "(1+i; 1+4/5i)", "--heis", "1/3+1/7i, 2/11"],
            # sampled fixtures are exact: a precision would never run
            ["bestapprox", "--bits", "128", "--samples", "1"],
            # only count and khinchin build CSV rows
            ["expand", "--point", "(1+i; 1+4/5i)", "--format", "csv"],
            ["verify", "--samples", "1", "--format", "csv"],
            ["measure", "--samples", "1", "--format", "csv"],
            ["bestapprox", "--samples", "1", "--format", "csv"],
            ["constants", "--format", "csv"],
        ],
        ids=[
            "bits-below-64", "negative-depth", "bits-without-depth",
            "verify-negative-samples", "measure-negative-samples",
            "bestapprox-negative-samples", "khinchin-negative-m-max",
            "khinchin-zero-m-max", "khinchin-negative-epsilon",
            "khinchin-zero-bigc", "khinchin-huge-bigc", "khinchin-infinite-bigc",
            "khinchin-tiny-bigc", "khinchin-infinite-epsilon", "count-negative-m-max",
            "point-zero-denominator", "heis-zero-denominator",
            "point-zero-quotient-denominator", "point-zero-imag-denominator",
            "bestapprox-zero-denominator", "bestapprox-huge-m-max",
            "bestapprox-point-too-large", "bestapprox-point-past-floats", "out-not-writable",
            "expand-point-and-heis", "bestapprox-point-and-heis",
            "bestapprox-bits-without-point", "expand-csv", "verify-csv", "measure-csv",
            "bestapprox-csv", "constants-csv",
        ],
    )
    def test_exit_2_with_one_line(self, args, capsys):
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_exact_ok(self, capsys):
        code, out = run_cli(
            ["verify", "--samples", "3", "--depth", "6", "--seed", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        rep = check_json(out)
        assert rep["identities"]["failures"] == []
        assert rep["seed"] == 1


class TestDepthClamp:
    """Exact verify/measure draw digit strings of at most 10 digits."""

    @pytest.mark.parametrize("command", ["verify", "measure"])
    def test_report_states_the_depth_used(self, command, capsys):
        args = [command, "--samples", "2", "--depth", "15", "--seed", "4"]
        code, out = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        rep = check_json(out)
        assert rep["params"]["depth"] == 15 and rep["depth_used"] == 10
        code, out = run_cli(args + ["--format", "text"], capsys)
        assert "depth_used: 10" in out.splitlines()

    @pytest.mark.parametrize("extra", [["--depth", "10"], ["--depth", "15", "--bits", "64"]])
    def test_no_clamp_no_field(self, extra, capsys):
        code, out = run_cli(["verify", "--samples", "1", *extra, "--format", "json"], capsys)
        assert code == 0
        assert "depth_used" not in check_json(out)


class TestMeasure:
    def test_reports_stats(self, capsys):
        code, out = run_cli(
            ["measure", "--samples", "5", "--depth", "6", "--seed", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        m = check_json(out)["measurements"]
        assert m["max_c_n"] <= 1.3
        assert 0.25 <= m["relsize_min"] <= m["relsize_max"] <= 4.0

    @pytest.mark.parametrize("bits, depth", [(2048, 280), (4096, 300), (64, 800)])
    def test_any_height(self, bits, depth, capsys):
        # |q_n|^2 passes 2**1024 at depth 274 (2048 bits) and 290 (4096
        # bits), where |q_n| is no float; at 64 bits, depth 800 takes it
        # past 2**2500 and the digits past 2**64 are no longer certain
        args = ["measure", "--bits", str(bits), "--depth", str(depth), "--samples", "1"]
        code, out = run_cli(args + ["--format", "json"], capsys)
        rep = check_json(out)
        assert rep["measurements"]["indices_measured"] == depth
        assert code == 0 or (code == 1 and rep["violations"])


class TestCount:
    def test_small(self, capsys):
        code, out = run_cli(["count", "--m-max", "20", "--format", "json"], capsys)
        assert code == 0
        rep = check_json(out)
        assert len(rep["counts"]) == 20
        assert rep["violations"] == []

    def test_csv(self, capsys):
        code, out = run_cli(["count", "--m-max", "5", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,structured,naive,all_terms"
        assert len(lines) == 6


class TestKhinchin:
    def test_sums(self, capsys):
        code, out = run_cli(
            ["khinchin", "--m-max", "200", "--format", "json"], capsys
        )
        assert code == 0
        s = check_json(out)["sums"]
        assert s["partial_sum"] > 0 and s["tail_bound"] > 0

    @pytest.mark.parametrize("bigc", ["1.8e-77", "5.7e76"])
    def test_extreme_bigc_gives_finite_sums(self, bigc, capsys):
        # the ends of the accepted range: C^4 is a normal float, so the
        # first term is neither flushed to 0 nor past the float range
        args = ["khinchin", "--bigc", bigc, "--m-max", "10", "--format", "json"]
        code, out = run_cli(args, capsys)
        assert code == 0
        s = check_json(out)["sums"]
        assert 0 < s["partial_sum"] < math.inf and 0 < s["tail_bound"] < math.inf


class TestBestApprox:
    def test_point_mode(self, capsys):
        code, out = run_cli(
            ["bestapprox", "--point", "(1+i; 1+4/5i)", "--m-max", "9", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert check_json(out)["best"]["point"] == "[3 : 3+3i : 3+2i]"

    def test_sample_mode_below_digit_floor_exits_2(self):
        # the fixture loop once drew forever here: a subprocess with a
        # timeout fails on a regression instead of hanging the suite
        out = run_module(["bestapprox", "--samples", "1", "--m-max", "80"], timeout=60)
        assert out.returncode == 2
        assert "--m-max must be at least 81" in out.stderr
        assert out.stdout == ""


class TestStrictJson:
    def test_non_finite_prints_null(self, capsys):
        args = ["khinchin", "--m-max", "10", "--epsilon", "0.25"]
        code, out = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        assert check_json(out)["sums"]["tail_bound"] is None
        code, out = run_cli(args, capsys)  # text output keeps inf
        assert code == 0 and "tail_bound: inf" in out

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parent / "data" / "golden").glob("*.out")),
        ids=lambda p: p.name,
    )
    def test_json_goldens_are_standard(self, path):
        text = path.read_text()
        if text.lstrip().startswith("{"):  # the csv recordings are not JSON
            strict_json(text)


class TestRenderText:
    def test_list_items_get_their_marker_first(self):
        report = {"ranges": [{"k": 4, "hits": 1}, {"k": 5, "hits": 0}], "ks": [4, 5]}
        assert _render_text(report).splitlines() == [
            "ranges:",
            "    -",
            "    k: 4",
            "    hits: 1",
            "    -",
            "    k: 5",
            "    hits: 0",
            "ks:",
            "  - 4",
            "  - 5",
        ]


class TestReproducibility:
    def test_identical_bytes(self, capsys):
        args = ["verify", "--samples", "2", "--depth", "5", "--seed", "9", "--format", "json"]
        _, a = run_cli(args, capsys)
        _, b = run_cli(args, capsys)
        assert a == b


# ---------------------------------------------------------------------------
# `expand` on fuzzed exact literals (ROADMAP item 13)


def digits(draw, most: int) -> int:
    """A natural number of 1 to most decimal digits, each length as likely."""
    k = draw(st.integers(1, most))
    return draw(st.integers(10 ** (k - 1) - (k == 1), 10**k - 1))


@st.composite
def naturals(draw):
    """A numerator (small, or up to 10^200) and a common factor that scales
    it and its denominator: a small value times a factor of up to 10^188
    reaches a height of 10^200 while its reduced denominator stays small."""
    n = draw(st.integers(0, 12)) if draw(st.booleans()) else digits(draw, 200)
    return n, (digits(draw, 188) if n <= 12 and draw(st.booleans()) else 1)


@st.composite
def real_terms(draw, imag=False):
    """One term of the literal grammar: `a`, `a/b`, and with imag `ai`,
    `a/bi`, `ai/b` or `i`; denominators may be 0 or up to 10^12 (times a
    common factor), and a decimal point may appear."""
    (a, scale), sign = draw(naturals()), draw(st.sampled_from(["", "-", "+"]))
    b = draw(st.sampled_from([1, 2]) | st.integers(1, 10**12)) if draw(st.integers(0, 11)) else 0
    num, den = str(a * scale), str(b * scale)
    if draw(st.integers(0, 9)) == 0:
        num += ".5"
    i = "i" if imag else ""
    if imag and draw(st.booleans()):
        return sign + draw(st.sampled_from([f"{num}i/{den}", "i", f"{num}i"]))
    return sign + (num + i if b == 1 and scale == 1 else f"{num}/{den}{i}")


@st.composite
def gauss_rat_literals(draw):
    """A Gaussian rational: a sum of a real and an imaginary term in either
    order, or a quotient of parenthesized Gaussian integers."""
    if draw(st.integers(0, 4)) == 0:
        parts = [f"{draw(st.integers(-9, 9))}{draw(st.sampled_from(['+', '-']))}"
                 f"{draw(st.integers(0, 10**30))}i" for _ in range(2)]
        return f"({parts[0]})/({parts[1] if draw(st.integers(0, 3)) else 0})"
    terms = [draw(real_terms()), draw(real_terms(imag=True))]
    terms = draw(st.sampled_from([terms, terms[::-1], terms[:1], terms[1:]]))
    return terms[0] + "".join(t if t[0] in "+-" else "+" + t for t in terms[1:])


def on_surface(draw, u: str) -> str:
    """A v with |u|^2 = 2 Re v for a u that parses, else any literal."""
    try:
        x = parse_gauss_rat(u)
    except ParseError:
        return draw(gauss_rat_literals())
    t = Fraction(digits(draw, 200) * draw(st.sampled_from([1, -1])), draw(st.integers(1, 10**6)))
    return f"{Fraction(x.a * x.a + x.b * x.b, 2 * x.d * x.d)}{'-' if t < 0 else '+'}{abs(t)}i"


@st.composite
def spaced(draw, text: str) -> str:
    """text with blanks (and now and then a tab) put between characters."""
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=4)))
    blank = draw(st.sampled_from([" "] * 6 + ["  "] * 3 + ["\t"]))
    pieces = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
    return blank.join(pieces)


@st.composite
def expand_argv(draw):
    """`expand --point "(u; v)"` (v mostly on the surface) or `expand --heis
    "z, t"`, with JSON output."""
    if draw(st.booleans()):
        u = draw(gauss_rat_literals())
        v = on_surface(draw, u) if draw(st.integers(0, 3)) else draw(gauss_rat_literals())
        lit = f"({u}{draw(st.sampled_from(['; ', ';', ', ']))}{v})"
        flag = "--point"
    else:
        t = draw(real_terms()) if draw(st.integers(0, 5)) else draw(gauss_rat_literals())
        lit, flag = f"{draw(gauss_rat_literals())}, {t}", "--heis"
    return ["expand", flag, draw(spaced(lit)), "--format", "json"]


def run_in_process(argv) -> tuple[int, str, str]:
    """main(argv) with its output captured; argparse's exit 2 is an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2, f"SystemExit({e.code!r}) from {argv!r}"
            code = 2
    return code, out.getvalue(), err.getvalue()


def check_contract(argv) -> Optional[dict]:
    """The CLI contract on one argv, and the report it printed, if any.

    No exception leaves `main` but argparse's exit 2; the exit code is one of
    0-3; exit 0 or 1 prints JSON that validates against the schema, and exit
    1 comes exactly with a non-empty `violations`; exit 2 or 3 prints nothing
    to stdout and a line to stderr; the same argv gives the same bytes twice.
    """
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2, 3)
    rep = None
    if code in (0, 1):
        rep = check_json(out)
        assert (code == 1) == bool(rep.get("violations"))
    else:
        assert out == "" and err.count("\n") >= 1
    assert run_in_process(argv) == (code, out, err)
    return rep


class TestExpandFuzz:
    @given(expand_argv())
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    def test_contract(self, argv):
        rep = check_contract(argv)
        if rep is not None:
            assert rep["expansion"]["terminated"] and rep["expansion"]["backend"] == "exact"


@st.composite
def bestapprox_argv(draw):
    """`bestapprox` on an `expand_argv` literal with `--m-max` 1-30, exact or
    at 64 or 512 bits, or sampled: 1-2 samples, `--m-max` 81-2000 and any
    seed; JSON output."""
    if draw(st.booleans()):
        _, flag, lit, *_ = draw(expand_argv())
        bits = draw(st.sampled_from([[], ["--bits", "64"], ["--bits", "512"]]))
        args = [flag, lit, *bits, "--m-max", str(draw(st.integers(1, 30)))]
    else:
        args = ["--samples", str(draw(st.integers(1, 2))), "--m-max",
                str(draw(st.integers(81, 2000))), "--seed", str(draw(st.integers(0, 2**32)))]
    return ["bestapprox", *args, "--format", "json"]


class TestBestapproxFuzz:
    @given(bestapprox_argv())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_contract(self, argv):
        check_contract(argv)


@st.composite
def verify_measure_argv(draw):
    """`verify` or `measure` with `--bits` absent or one of the edges of its
    range, `--depth` -1 to 12 (to 24 with `--bits`), `--samples` -1 to 2 and a
    seed that may be negative or above 2^64; JSON output."""
    # each list starts with a value that runs: examples shrink towards it
    bits = draw(st.sampled_from([64, None, 65, 127, 512, 1024, 0, 63]))
    seed = draw(st.one_of(st.integers(0, 9), st.integers(-(2**70), -1), st.integers(2**64, 2**70)))
    argv = [draw(st.sampled_from(["verify", "measure"])), "--samples",
            str(draw(st.sampled_from([1, 2, 0, -1]))), "--depth",
            str(draw(st.integers(-1, 24 if bits else 12))), "--seed", str(seed)]
    return [*argv, *([] if bits is None else ["--bits", str(bits)]), "--format", "json"]


class TestVerifyMeasureFuzz:
    @given(verify_measure_argv())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_contract(self, argv):
        check_contract(argv)


class TestCountFuzz:
    @given(st.integers(-1, 60))
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    def test_contract(self, m_max):
        check_contract(["count", "--m-max", str(m_max), "--format", "json"])


# the flag edges: the float extremes, the smallest subnormal, the infinities,
# nan, and --bigc's open range (2^-255, 2^255) on both sides of each end
FLOAT_EDGES = [1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan, 2.0**-255, 2.0**255,
               math.nextafter(2.0**-255, 1), math.nextafter(2.0**255, 0)]


@st.composite
def khinchin_argv(draw):
    """`khinchin` with `--m-max` -1 to 300 and a seed that may be negative or
    above 2^64; at the default (C, eps), `--samples` absent or -1 to 2, else
    `--epsilon` and `--bigc` absent or at the flag edges; JSON output.

    A sampled run at any other (C, eps) builds its tables cold, 1.1-3.5 s
    each (ROADMAP item 9), so only the default's tables, built once and
    cached, are sampled here.
    """
    seed = draw(st.one_of(st.integers(0, 9), st.integers(-(2**70), -1), st.integers(2**64, 2**70)))
    argv = ["khinchin", "--m-max", str(draw(st.integers(-1, 300))), "--seed", str(seed)]
    if draw(st.booleans()):
        samples = draw(st.sampled_from([None, 1, 2, 0, -1]))
        argv += [] if samples is None else ["--samples", str(samples)]
    else:
        # --flag=value: argparse reads a bare -1e308 as an option
        for flag in ("--epsilon", "--bigc"):
            value = draw(st.none() | st.sampled_from(FLOAT_EDGES))
            argv += [] if value is None else [f"{flag}={value!r}"]
    return [*argv, "--format", "json"]


class TestKhinchinFuzz:
    @given(khinchin_argv())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_contract(self, argv):
        check_contract(argv)


class TestEntryPoint:
    def test_console_script(self):
        assert run_module(["--version"]).returncode == 0


class TestWithoutNumpy:
    """The package and every subcommand run on mpmath and the standard library."""

    def test_import_leaves_numpy_out(self):
        proc = run_python(["-c", "import sys, heiscf, heiscf.cli, heiscf.lab; "
                                 "print('numpy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_khinchin_experiment(self):
        proc = run_python(["-c", NO_NUMPY + "from heiscf.lab.sampling import "
                           "khinchin_experiment as ex; print(ex(1.0, 1.0, (3, 5), 50, 0).as_dict())"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{khinchin_experiment(1.0, 1.0, (3, 5), 50, 0).as_dict()}\n"

    def test_count_matches_golden(self):
        """count, the one subcommand that runs the naive oracle."""
        proc = run_python(["-c", NO_NUMPY_CLI, "count", "--m-max", "20", "--format", "csv"])
        assert proc.returncode == 0, proc.stderr
        golden = Path(__file__).parent / "data" / "golden" / "count.out"
        assert proc.stdout == golden.read_text()

    @pytest.mark.parametrize(
        "args",
        [
            ["expand", "--heis", "1/3+1/7i, 2/11", "--bits", "128", "--depth", "3"],
            ["verify", "--samples", "2", "--depth", "5"],
            ["measure", "--bits", "64", "--samples", "2", "--depth", "5"],
            ["bestapprox", "--point", "(1+i; 1+4/5i)", "--m-max", "9"],
            ["khinchin", "--m-max", "300"],
            ["constants"],
        ],
        ids=lambda args: args[0],
    )
    def test_subcommand_output_unchanged(self, args, capsys):
        proc = run_python(["-c", NO_NUMPY_CLI, *args], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(args, capsys)[1]
