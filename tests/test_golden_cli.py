"""Byte-for-byte CLI output against reports recorded under tests/data/golden.

The recorded files are the stdout of ``python -m heiscf.cli <args>``, one
for each case of ``cases.tsv``, the table that CI replays without numpy.  A
refactor that keeps every digit and every report field leaves them as they
are; a change that means to alter one of these reports re-records it and
says why.
"""

from pathlib import Path

import pytest

from heiscf.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def load_cases() -> dict[str, list[str]]:
    """name -> argv from cases.tsv: tab-separated fields, `#` lines are comments."""
    lines = (GOLDEN / "cases.tsv").read_text().splitlines()
    return {f[0]: f[1:] for f in (ln.split("\t") for ln in lines if ln and ln[0] != "#")}


CASES = load_cases()


def test_every_recording_has_a_case():
    assert sorted(CASES) == sorted(p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()
