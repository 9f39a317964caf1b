"""The mutation list stays applicable: tests/run_mutants.py applies each
mutant by exact text, so a refactor that moves the text must move the
mutant with it."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads(Path(__file__).with_name("mutants.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    assert mutant["file"].startswith("src/specpair/")
    assert mutant["new"] != mutant["old"]
    assert (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1
    assert mutant["kill"]
    for node in mutant["kill"]:
        path, _, name = node.partition("::")
        name = name.partition("[")[0]  # a parametrized case names its test
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), node
