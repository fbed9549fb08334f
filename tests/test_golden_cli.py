"""Byte-for-byte CLI output against reports recorded under tests/data/golden.

The recorded files are the stdout of ``python -m heiscf.cli <args>``.  A
refactor that keeps every digit and every report field leaves them as they
are; a change that means to alter one of these reports re-records it and
says why.
"""

from pathlib import Path

import pytest

from heiscf.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "expand_point": ["expand", "--point", "(1+i; 1+4/5i)", "--format", "json"],
    "verify_exact": ["verify", "--samples", "5", "--depth", "6", "--format", "json"],
    "verify_bits128": [
        "verify", "--bits", "128", "--samples", "3", "--depth", "8", "--format", "json",
    ],
    "measure_exact": ["measure", "--samples", "5", "--depth", "6", "--format", "json"],
    "measure_bits128": [
        "measure", "--bits", "128", "--samples", "2", "--depth", "8", "--format", "json",
    ],
    # criterion 3's 512 bits at depth 20: the residual, c_n and relsize floats
    # hang on every bit of the big-float orbit
    "verify_bits512": [
        "verify", "--bits", "512", "--samples", "3", "--depth", "20", "--format", "json",
    ],
    "measure_bits512": [
        "measure", "--bits", "512", "--samples", "2", "--depth", "20", "--format", "json",
    ],
    "bestapprox_samples": ["bestapprox", "--samples", "1", "--format", "json"],
    "bestapprox_point": [
        "bestapprox", "--point", "(1+i; 1+4/5i)", "--m-max", "9", "--format", "json",
    ],
    # the candidate search on a big-float point
    "bestapprox_heis_bits512": [
        "bestapprox", "--heis", "1/3+1/7i, 2/11", "--bits", "512", "--m-max", "9",
        "--format", "json",
    ],
    # prop71_check with candidates to check: 1, 0, 0, 1, 0, 0, 0, 1, 2, 0 of them
    "bestapprox_seed4": ["bestapprox", "--samples", "10", "--seed", "4", "--format", "json"],
    "count": ["count", "--m-max", "20", "--format", "csv"],
    "khinchin": ["khinchin", "--m-max", "300", "--format", "json"],
    # the sampled experiment: its ranges as JSON, CSV rows and the text list of dicts
    "khinchin_samples": ["khinchin", "--m-max", "300", "--samples", "400", "--format", "json"],
    "khinchin_samples_csv": [
        "khinchin", "--m-max", "300", "--samples", "400", "--format", "csv",
    ],
    "khinchin_samples_text": [
        "khinchin", "--m-max", "300", "--samples", "400", "--format", "text",
    ],
    "constants": ["constants", "--format", "json"],
    "expand_heis_bits512": [
        "expand", "--heis", "1/3+1/7i, 2/11", "--bits", "512", "--depth", "3",
        "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()
