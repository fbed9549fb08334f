import json
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from mpmath import mp, mpf

from heiscf.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def load_schema():
    with resources.files("heiscf").joinpath("schemas/report.schema.json").open() as f:
        return json.load(f)


SCHEMA = load_schema()


def check_json(out):
    rep = json.loads(out)
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
            ["count", "--m-max", "-5"],
        ],
        ids=[
            "bits-below-64", "negative-depth", "bits-without-depth",
            "verify-negative-samples", "measure-negative-samples",
            "bestapprox-negative-samples", "khinchin-negative-m-max",
            "khinchin-zero-m-max", "khinchin-negative-epsilon",
            "khinchin-zero-bigc", "count-negative-m-max",
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


class TestBestApprox:
    def test_point_mode(self, capsys):
        code, out = run_cli(
            ["bestapprox", "--point", "(1+i; 1+4/5i)", "--m-max", "9", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert check_json(out)["best"]["point"] == "[3 : 3+3i : 3+2i]"


class TestReproducibility:
    def test_identical_bytes(self, capsys):
        args = ["verify", "--samples", "2", "--depth", "5", "--seed", "9", "--format", "json"]
        _, a = run_cli(args, capsys)
        _, b = run_cli(args, capsys)
        assert a == b


class TestEntryPoint:
    def test_console_script(self):
        out = subprocess.run(
            [sys.executable, "-m", "heiscf.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
