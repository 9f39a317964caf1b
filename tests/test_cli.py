import argparse
import csv
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import specpair.cli
import specpair.exact
import specpair.measure
import specpair.operators
import specpair.pair
from specpair import dumps_spec, parse_spec
from specpair.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_scale4(capsys):
    code, out, _ = run(capsys, "validate", "--spec", "scale4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["degenerate"] is False


def test_validate_middlethird_fails(capsys):
    code, out, _ = run(capsys, "validate", "--spec", "middlethird")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    names = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert "hadamard_unitarity" in names


def test_pair_scale4(capsys):
    code, out, _ = run(capsys, "pair", "--spec", "scale4", "--box", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["orthogonal"] is True
    assert payload["tiling"]["ok"] is True
    assert payload["tiling"]["method"] == "exact"
    assert payload["max_off_diagonal"] == 0.0


def test_measure_export(capsys):
    code, out, _ = run(capsys, "measure", "--spec", "scale4",
                       "--quadrature-depth", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert {r["weight"] for r in rows} == {"0.125"}
    assert "0.65625" in {r["x0"] for r in rows}  # 1/2 + 1/8 + 1/32


def test_transform_single_point(capsys):
    code, out, _ = run(capsys, "transform", "--spec", "scale4", "--s", "1")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["re"]) == 0.0 and float(row["im"]) == 0.0
    assert row["backend"] == "product"


def test_transform_grid_both_backends(capsys):
    code, out, _ = run(capsys, "transform", "--spec", "scale4",
                       "--grid=-2:2:9", "--backend", "both")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert all(float(r["discrepancy"]) < 1e-4 for r in rows)


def test_transform_requires_target(capsys):
    code, _, err = run(capsys, "transform", "--spec", "scale4")
    assert code == 2
    assert "transform needs" in err


@pytest.mark.parametrize("command", ["transform", "spectrum"])
@pytest.mark.parametrize("vector", ["1/2,x", "1/0,1", "1/2", "1,2,3"])
def test_bad_vectors_are_parse_errors(capsys, command, vector):
    code, out, err = run(capsys, command, "--spec", "scale4x2", "--s", vector)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid vector {vector!r}: ") and err.count("\n") == 1


def test_spectrum_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--spec", "scale4", "--s", "2",
                       "--enum-depth", "8", "--product-depth", "30")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["depth"] for r in rows] == [str(d) for d in range(9)]
    final = float(rows[-1]["sigma"])
    assert 0.999 < final <= 1 + 1e-9
    assert all(float(r["increment"]) >= 0 for r in rows)


def test_spectrum_frequency_list(capsys):
    code, out, _ = run(capsys, "spectrum", "--spec", "scale4",
                       "--enum-depth", "2", "--frequencies")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["xi0"] for r in rows} == {"0", "1", "4", "5"}
    assert {r["word"] for r in rows} == {"00", "01", "10", "11"}


def test_cuntz_scale4(capsys):
    code, out, _ = run(capsys, "cuntz", "--spec", "scale4", "--box", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert payload["relations"]["range_orthogonality"] == 0.0


def test_cuntz_middlethird_fails(capsys):
    code, out, _ = run(capsys, "cuntz", "--spec", "middlethird")
    assert code == 1
    payload = json.loads(out)
    assert any("completeness" in f for f in payload["failures"])
    assert any("validation" in f for f in payload["failures"])


def test_unknown_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "--spec", "nonexistent")
    assert code == 2
    assert "error" in err


def test_pair_on_sheared_k_basis_is_usage_error(tmp_path, capsys):
    loaded = parse_spec("scale4x2")
    document = json.loads(dumps_spec(loaded.system, loaded.omega, loaded.d_prime))
    document["K_basis"] = [["1", "1"], ["0", "1"]]  # the same lattice Z^2
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "pair", "--spec", str(path), "--box", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value, argv", [
    ("digits_L", [["1"], ["2"]], ["pair", "--box", "4"]),
    ("digits_B", [["1/4"], ["1/2"]], ["measure", "--quadrature-depth", "2"]),
    ("digits_B", [["1/4"], ["1/2"]], ["transform", "--s", "1", "--backend", "quadrature"]),
    ("digits_B", [["1/4"], ["1/2"]], ["transform", "--s", "1", "--backend", "both"]),
], ids=["pair", "measure", "transform-quadrature", "transform-both"])
def test_data_missing_zero_is_one_error_line(tmp_path, capsys, key, value, argv):
    # scale4 with no 0 among its frequency digits or its digits
    loaded = parse_spec("scale4")
    document = json.loads(dumps_spec(loaded.system, loaded.omega, loaded.d_prime))
    document[key] = value
    path = tmp_path / "no_zero.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--spec", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: UnknownDigit: ") and err.endswith("must contain 0\n")
    assert err.count("\n") == 1


def test_seed_belongs_to_pair_alone(capsys):
    assert run(capsys, "pair", "--spec", "scale4", "--box", "2", "--seed", "3")[0] == 0
    with pytest.raises(SystemExit):
        main(["validate", "--spec", "scale4", "--seed", "3"])


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main(["transform", "--spec", "scale4", "--grid=-4:4:17",
                     "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_written_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "sigma.csv"
    code = main(["spectrum", "--spec", "scale4", "--s", "2",
                 "--enum-depth", "4", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    code2, out, _ = run(capsys, "spectrum", "--spec", "scale4", "--s", "2",
                        "--enum-depth", "4")
    assert code2 == 0
    assert out_path.read_bytes().decode("utf-8") == out


@pytest.mark.parametrize("argv", [
    ("validate", "--spec", "scale4"),
    ("measure", "--spec", "scale4", "--quadrature-depth", "2"),
    ("accept",),
    ("pair", "--spec", "scale4", "--box", "1430"),
], ids=["json", "table", "accept", "pair"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    def unreachable(args):
        raise AssertionError(f"{argv[0]} ran before its --out path was checked")

    # the path is refused before the subcommand does any work
    monkeypatch.setattr(specpair.cli, f"cmd_{argv[0]}", unreachable)
    # a path in a missing directory, and a path that is a directory
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


def test_vector_flag_parses_rationals(capsys):
    code, out, _ = run(capsys, "transform", "--spec", "scale4x2",
                       "--s", "1/2,3/4")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["t0"]) == 0.5 and float(row["t1"]) == 0.75


README = Path(__file__).parents[1] / "README.md"


def _registered_options():
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_each_subcommand_registers_only_the_options_it_reads():
    assert _registered_options() == {
        "validate": {"--spec", "--out"},
        "pair": {"--spec", "--out", "--box", "--seed"},
        "measure": {"--spec", "--format", "--out", "--quadrature-depth"},
        "transform": {"--spec", "--format", "--out", "--product-depth",
                      "--quadrature-depth", "--grid", "--s", "--backend"},
        "spectrum": {"--spec", "--format", "--out", "--product-depth", "--s",
                     "--enum-depth", "--frequencies"},
        "cuntz": {"--spec", "--out", "--product-depth", "--box"},
        "accept": {"--out"},
    }


@pytest.mark.parametrize("argv", [
    # options that subcommand no longer registers
    ["validate", "--spec", "scale4", "--format", "csv"],
    ["pair", "--spec", "scale4", "--product-depth", "30"],
    ["measure", "--spec", "scale4", "--product-depth", "30"],
    ["spectrum", "--spec", "scale4", "--s", "2", "--quadrature-depth", "12"],
    ["cuntz", "--spec", "scale4", "--format", "csv"],
    ["accept", "--format", "json"],
    # bad values
    ["transform", "--spec", "scale4", "--s", "1", "--quadrature-depth", "-1"],
    ["measure", "--spec", "scale4", "--quadrature-depth", "-1"],
    ["spectrum", "--spec", "scale4", "--s", "2", "--enum-depth", "-1"],
    ["pair", "--spec", "scale4", "--box", "-1"],
    ["cuntz", "--spec", "scale4", "--box", "-1"],
    ["transform", "--spec", "scale4", "--s", "1,2"],
    ["spectrum", "--spec", "scale4x2", "--s", "2"],
    ["transform", "--spec", "scale4", "--grid=nan:inf:3"],
    ["transform", "--spec", "scale4", "--grid=0:inf:3"],
    # options that exclude each other, where one would be dropped unread
    ["transform", "--spec", "scale4", "--s", "1/3", "--grid=0:1:3"],
    ["spectrum", "--spec", "scale4", "--s", "2", "--frequencies"],
])
def test_bad_flags_are_usage_errors(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_transform_grid_is_budgeted_before_allocation(capsys, monkeypatch):
    def no_linspace(*args, **kwargs):
        raise AssertionError("grid allocated before the budget check")

    monkeypatch.setattr(np, "linspace", no_linspace)
    code, out, err = run(capsys, "transform", "--spec", "scale4x2",
                         "--grid=-8:8:100000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: BudgetExceeded") and err.count("\n") == 1


def test_quadrature_grid_is_charged_before_any_quadrature(capsys, monkeypatch):
    # 1024^2 rows, the most the evaluation budget admits, times 4^12 atoms
    # ("both" would otherwise throw away a finished product column)
    monkeypatch.setattr(specpair.measure, "_exponential_means",
                        lambda *args: pytest.fail("a quadrature ran before the charge"))
    monkeypatch.setattr(specpair.transform, "_float_product",
                        lambda *args: pytest.fail("a product ran before the charge"))
    for backend in ("quadrature", "both"):
        code, out, err = run(capsys, "transform", "--spec", "scale4x2", "--grid=-2:2:1024",
                             "--backend", backend)
        assert code == 1
        assert out == ""
        assert err.startswith("error: BudgetExceeded") and err.count("\n") == 1


def test_measure_rows_are_budgeted_before_refining(capsys, monkeypatch):
    class Refined(Exception):
        pass

    def no_refine(ifs, depth):
        raise Refined

    monkeypatch.setattr(specpair.cli, "refine_measure", no_refine)
    # the default depth 12 on scale4x2 would be 4^12 rows
    for argv in (("--spec", "scale4x2"), ("--spec", "scale4", "--quadrature-depth", "21")):
        code, out, err = run(capsys, "measure", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: BudgetExceeded") and err.count("\n") == 1
    assert specpair.cli.EVALUATION_BUDGET == 2**20
    with pytest.raises(Refined):
        main(["measure", "--spec", "scale4", "--quadrature-depth", "20"])


def test_spectrum_enumeration_is_budgeted_before_building(capsys, monkeypatch):
    def no_push(system, s):
        raise AssertionError("frequencies built before the budget check")

    monkeypatch.setattr(specpair.SimpleFactor, "push", no_push)
    code, out, err = run(capsys, "spectrum", "--spec", "scale4", "--enum-depth", "19",
                         "--frequencies")
    assert code == 1
    assert out == ""
    assert err.startswith("error: BudgetExceeded") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["transform", "--spec", "scale4", "--s", "1", "--product-depth", "0"],
    ["spectrum", "--spec", "scale4", "--s", "2", "--product-depth", "0"],
    ["spectrum", "--spec", "scale4", "--frequencies", "--product-depth", "0"],
    ["cuntz", "--spec", "scale4", "--box", "2", "--product-depth", "500"],
])
def test_out_of_range_product_depth_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: BudgetExceeded") and err.count("\n") == 1


class Enumerated(Exception):
    """Raised in place of the box enumeration: the budget let the request through."""


@pytest.fixture
def no_box_enumeration(monkeypatch):
    def enumerated(*args, **kwargs):
        raise Enumerated

    monkeypatch.setattr(specpair.pair, "lattice_rows_in_box", enumerated)
    monkeypatch.setattr(specpair.operators, "lattice_rows_in_box", enumerated)


# pair: (|L| * (2b+1)^d)^2 / 2 Gram cells, plus |{l' - l}| * (2c+1)^d distinct
# differences of |omega| * 2^d terms each; scale4x2 has b = floor((box+1)/4) + 1,
# c = floor((2*box+2)/4) + 1, 9 digit differences and 4 * 2^2 = 16 terms.
# cuntz: (2b+1)^d * (2 + |L|(|L|-1)) transform values; scale4x2 has b = box + 1.
@pytest.mark.parametrize("command, largest", [("pair", 30), ("cuntz", 135)])
def test_box_requests_are_budgeted_before_enumerating(capsys, no_box_enumeration,
                                                      command, largest):
    with pytest.raises(Enumerated):
        main([command, "--spec", "scale4x2", "--box", str(largest)])
    for box in (largest + 1, 200):
        code, out, err = run(capsys, command, "--spec", "scale4x2", "--box", str(box))
        assert code == 1
        assert out == ""
        assert err.startswith("error: BudgetExceeded") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["pair", "--spec", "scale4"],
    ["pair", "--spec", "scale4x2"],
    ["cuntz", "--spec", "scale4"],
    ["cuntz", "--spec", "scale4x2"],
    ["cuntz", "--spec", "middlethird"],
])
def test_default_boxes_fit_the_budget(no_box_enumeration, argv):
    with pytest.raises(Enumerated):
        main(argv)


def test_readme_lists_each_subcommands_options():
    text = README.read_text(encoding="utf-8")
    listed = {
        name: set(re.findall(r"--[a-z-]+", usage))
        for name, usage in re.findall(r"^- `([a-z]+)\b(.*)`$", text, re.M)
    }
    assert listed == _registered_options()


def test_readme_float_verdicts_name_their_constants():
    text = README.read_text(encoding="utf-8")
    verdicts = text.split("These verdicts are still float comparisons")[1]
    named = re.findall(r"`([a-z]+)\.([A-Z_]+)` \(([^)]+)\)", verdicts)
    assert {f"{module}.{name}" for module, name, _ in named} >= {
        "operators.RELATION_TOLERANCE", "spectrum.WITNESS_THRESHOLD",
        "measure.SEPARATION_TOLERANCE",
        "spectrum.BESSEL_SLACK"}
    for module, name, value in named:
        held = getattr(importlib.import_module(f"specpair.{module}"), name)
        assert held == float(value), f"{module}.{name} is {held}, README says {value}"


def test_readme_states_each_budget():
    text = README.read_text(encoding="utf-8")
    # each power of two is bound to the first constant named after it
    stated = re.findall(r"2\^(\d+)\b[^`]*?\(`([a-z]+)\.([A-Z_]+_BUDGET)`\)", text)
    assert {f"{module}.{name}" for _, module, name in stated} == {
        "cli.EVALUATION_BUDGET", "spectrum.SPECTRUM_BUDGET", "measure.ATOM_BUDGET",
        "pair.MEMBERSHIP_COSET_BUDGET", "measure.QUADRATURE_BUDGET",
        "lattice.BOX_BUDGET"}
    assert len(stated) == len(re.findall(r"`[a-z]+\.[A-Z_]+_BUDGET`", text))
    for power, module, name in stated:
        held = getattr(importlib.import_module(f"specpair.{module}"), name)
        assert held == 2 ** int(power), f"{module}.{name} is {held}, README says 2^{power}"


def test_readme_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.splitlines()
                if line.startswith("specpair ")]
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
