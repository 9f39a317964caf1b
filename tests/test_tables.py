import json
from fractions import Fraction as F

import pytest

from specpair.tables import emit_table, render_table


def test_complex_values_split_into_two_columns():
    text = render_table([{"t": 1.0, "value": 0.5 - 0.25j}], "csv")
    lines = text.splitlines()
    assert lines[0] == "t,value_re,value_im"
    assert lines[1] == "1.0,0.5,-0.25"


def test_fractions_serialize_exactly():
    text = render_table([{"x": F(1, 3)}], "csv")
    assert "1/3" in text


def test_float_repr_round_trips():
    value = 0.1 + 0.2
    text = render_table([{"v": value}], "csv")
    assert float(text.splitlines()[1]) == value


def test_json_format_sorted_and_deterministic():
    rows = [{"b": 1, "a": F(1, 2)}, {"b": 2, "a": F(3, 4)}]
    one = render_table(rows, "json")
    two = render_table(rows, "json")
    assert one == two
    decoded = json.loads(one)
    assert decoded == [{"a": "1/2", "b": 1}, {"a": "3/4", "b": 2}]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_table([], "yaml")


def test_emit_writes_bytes_identically(tmp_path):
    rows = [{"depth": 1, "sigma": 0.5}, {"depth": 2, "sigma": 0.75}]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_table(rows, "csv", first)
    emit_table(rows, "csv", second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().count(b"\r\n") == 3
