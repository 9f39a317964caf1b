"""Every layer the benchmark reports on still exists under its traced name.

The benchmark's tracer skips a target it cannot find, so renaming or
removing one of these functions would otherwise drop its per-layer
metric without notice.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
LAYERS = sorted({
    tuple(metric["name"].split(".")[:2])
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    if not metric["name"].startswith("trace.")
})


@pytest.mark.parametrize("module,function", LAYERS,
                         ids=[f"{m}.{f}" for m, f in LAYERS])
def test_traced_layer_resolves(module, function):
    home = importlib.import_module(f"specpair.{module}")
    if module == "acceptance":
        names = [criterion.__name__ for criterion in home.CRITERIA]
        assert any(name.startswith(function + "_") for name in names)
    else:
        assert callable(getattr(home, function, None))
