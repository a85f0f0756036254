"""Golden envelopes: seeded and deterministic commands print exactly these bytes.

Each case runs the CLI in-process from tests/golden (so file arguments and
the echoed inputs are the bare fixture names) and compares stdout with the
recorded file byte for byte, together with the exit code. The ``csv_*``
cases pin ``--format csv``, whose rows end in ``\r\n``, so every file is
read as bytes. After a change that is meant to alter an output, re-record
with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

and say in the change log which envelopes moved and why.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from weakch.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
LOWER = "0,-1.5707963267948966,0.7853981633974483,-0.7853981633974483"

# name -> (argv, exit code)
CASES = {
    "predict_angles": (["predict", "--angles", LOWER], 0),
    "bounds": (["bounds", "--epsilon", "1e-4"], 0),
    "bounds_uneven": (["bounds", "--epsilon", "1e-4", "--pa", "0.4", "--pb", "0.6", "--pab", "0.2"], 0),
    "thresholds": (["thresholds"], 0),
    "check_inside": (["check", "--value", "-0.5", "--epsilon", "1e-4"], 0),
    "check_violated": (["check", "--value", "-1.2071067811865475", "--epsilon", "0"], 3),
    "oracle_file": (["oracle", "--file", "atoms.json"], 0),
    "check_model_eprb": (["check-model", "--file", "eprb_model.json"], 0),
    "check_model_pairwise": (["check-model", "--file", "pairwise_model.json"], 0),
    "check_model_eprb_precondition_failed": (["check-model", "--file", "eprb_precondition_failed.json"], 2),
    "search": (["search", "--seed", "6", "--restarts", "1"], 0),
    "optimize_angles": (["optimize-angles"], 0),
    "optimize_angles_max": (["optimize-angles", "--mode", "max"], 0),
    "simulate": (["simulate", "--seed", "1", "--n", "100000", "--angles", LOWER], 3),
    "simulate_setting_probs": (
        ["simulate", "--seed", "1", "--n", "100000", "--angles", LOWER,
         "--setting-probs", "0.4,0.1,0.1,0.4", "--epsilon", "1e-4"],
        0,
    ),
    "csv_simulate": (["--format", "csv", "simulate", "--seed", "1", "--n", "100"], 0),
    "csv_thresholds": (["--format", "csv", "thresholds"], 0),
    "csv_simulate_error": (["--format", "csv", "simulate", "--seed", "1", "--n", "3", "--angles", "0,1,2,3"], 2),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_envelope(name, capsys, monkeypatch):
    argv, expected_code = CASES[name]
    monkeypatch.chdir(GOLDEN)
    code = main(list(argv))
    assert code == expected_code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_bytes().decode()


def _record(names):
    os.chdir(GOLDEN)
    for name in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(CASES[name][0]))
        (GOLDEN / f"{name}.out").write_text(buf.getvalue())
        print(f"{name}: exit {code}, {len(buf.getvalue())} bytes")


if __name__ == "__main__":
    _record(sys.argv[1:] or sorted(CASES))
