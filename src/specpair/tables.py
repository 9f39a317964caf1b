"""Deterministic CSV/JSON table emission for the command line.

CSV follows RFC-4180 conventions (CRLF rows, minimal quoting, UTF-8,
'.' decimal point).  Complex values expand to two columns, <name>_re and
<name>_im; rationals serialize as exact strings; floats use repr, the
shortest round-tripping form.  Identical rows yield identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .exact import format_rational

FORMATS = ("csv", "json")


def _expand_row(row: Mapping[str, object]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in row.items():
        if isinstance(value, complex):
            out[f"{key}_re"] = repr(value.real)
            out[f"{key}_im"] = repr(value.imag)
        elif isinstance(value, Fraction):
            out[key] = format_rational(value)
        elif isinstance(value, float):
            out[key] = repr(value)
        elif isinstance(value, bool) or value is None:
            out[key] = json.dumps(value)
        else:
            out[key] = value
    return out


def render_table(rows: Sequence[Mapping[str, object]], fmt: str = "csv") -> str:
    """Serialize homogeneous rows; the CSV columns are the keys in order of
    first appearance."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
    expanded = [_expand_row(r) for r in rows]
    if fmt == "json":
        return json.dumps(expanded, indent=2, sort_keys=True) + "\n"
    fieldnames = list(dict.fromkeys(key for row in expanded for key in row))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(expanded)
    return buffer.getvalue()


def emit_table(
    rows: Sequence[Mapping[str, object]],
    fmt: str = "csv",
    path: str | Path | None = None,
) -> str:
    """Render rows and, when a path is given, write them as UTF-8."""
    text = render_table(rows, fmt)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="")
    return text
