"""Byte-for-byte CLI outputs, pinned against a recorded golden file.

``test_outputs_are_deterministic`` compares two runs of the same code;
these cases compare the current code with outputs recorded earlier, so
a refactor that changes any printed digit or exit code shows up here.
Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from specpair.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
# spec files under tests/data are named as "{data}/<file>" in the golden
# argv, so the recorded file does not depend on where the checkout lives
DATA = "{data}"
N3 = f"{DATA}/n3.json"
SHEARED = f"{DATA}/scale4x2_sheared.json"
SHEAR3 = f"{DATA}/shear3.json"
TRI2 = f"{DATA}/tri2.json"

CASES = {
    "validate-scale4": ["validate", "--spec", "scale4"],
    "validate-scale4x2": ["validate", "--spec", "scale4x2"],
    "validate-middlethird": ["validate", "--spec", "middlethird"],
    "pair-scale4": ["pair", "--spec", "scale4", "--box", "8"],
    "pair-scale4x2": ["pair", "--spec", "scale4x2", "--box", "6"],
    "measure-scale4": ["measure", "--spec", "scale4", "--quadrature-depth", "6"],
    "transform-rational": ["transform", "--spec", "scale4", "--s", "1/3"],
    "transform-2d": ["transform", "--spec", "scale4x2", "--s", "1/2,3/4"],
    "transform-grid-both": ["transform", "--spec", "scale4", "--grid=-8:8:65",
                            "--backend", "both"],
    "transform-grid-quadrature": ["transform", "--spec", "scale4", "--grid=-4:4:17",
                                  "--backend", "quadrature", "--quadrature-depth", "8"],
    "transform-2d-grid-both": ["transform", "--spec", "scale4x2", "--grid=-2:2:5",
                               "--backend", "both"],
    "spectrum-table": ["spectrum", "--spec", "scale4", "--s", "2",
                       "--enum-depth", "10"],
    "spectrum-frequencies": ["spectrum", "--spec", "scale4", "--frequencies",
                             "--format", "json"],
    "spectrum-table-depth12": ["spectrum", "--spec", "scale4", "--s", "2",
                               "--enum-depth", "8", "--product-depth", "12"],
    "cuntz-scale4": ["cuntz", "--spec", "scale4"],
    "cuntz-scale4x2": ["cuntz", "--spec", "scale4x2", "--box", "8"],
    "cuntz-middlethird": ["cuntz", "--spec", "middlethird"],
    "cuntz-scale4-depth12": ["cuntz", "--spec", "scale4", "--box", "8",
                             "--product-depth", "12"],
    "transform-2d-third-fifth": ["transform", "--spec", "scale4x2", "--s", "1/3,2/5"],
    "transform-2d-zero-conductor-202": ["transform", "--spec", "scale4x2",
                                        "--s", "1,1/101"],
    "transform-n3-cyclotomic-zero": ["transform", "--spec", N3, "--s", "1"],
    "transform-n3-past-conductor": ["transform", "--spec", N3, "--s", "1/5"],
    "spectrum-n3": ["spectrum", "--spec", N3, "--s", "1/2", "--enum-depth", "5"],
    "cuntz-n3": ["cuntz", "--spec", N3, "--box", "6"],
    "pair-scale4x2-sheared": ["pair", "--spec", SHEARED, "--box", "4", "--seed", "3"],
    "validate-shear3": ["validate", "--spec", SHEAR3],
    "cuntz-shear3": ["cuntz", "--spec", SHEAR3, "--box", "2"],
    "transform-shear3": ["transform", "--spec", SHEAR3, "--s", "1/3,1/5,1/7"],
    "measure-shear3": ["measure", "--spec", SHEAR3, "--quadrature-depth", "3"],
    "validate-tri2": ["validate", "--spec", TRI2],
    "cuntz-tri2": ["cuntz", "--spec", TRI2, "--box", "4"],
    "transform-tri2": ["transform", "--spec", TRI2, "--s", "1/2,1/5"],
    "measure-tri2": ["measure", "--spec", TRI2, "--quadrature-depth", "3"],
}


def run(argv) -> dict:
    data = str(Path(__file__).with_name("data"))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([arg.replace(DATA, data) for arg in argv])
    return {"exit": code, "stdout": buffer.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(golden, name):
    expected = golden[name]
    assert expected["argv"] == CASES[name]
    assert run(CASES[name]) == {"exit": expected["exit"],
                                "stdout": expected["stdout"]}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: {"argv": argv, **run(argv)} for name, argv in sorted(CASES.items())},
        indent=1, sort_keys=True,
    ) + "\n", encoding="utf-8")
