"""Run the committed mutation check: each mutant in mutants.json against
the tests that must catch it.

    python tests/run_mutants.py [name | file ...]

With no argument every mutant runs.  An argument selects the mutant of
that name, or every mutant of that file, named as in mutants.json
(``src/specpair/transform.py``); an argument that selects nothing is an
error (exit status 2).
A mutant names a file of the repository, an exact old text that occurs
there once, its replacement, and the pytest node ids that must fail.
For each mutant, ``src`` and ``tests`` are copied to a temporary
directory, the mutant is applied to the copy, and each node id runs
there in its own pytest process, so the checkout is never written.  The
mutant is killed when every node id fails, and survives when any passes.
A survivor is reported with the node ids it passed; it stays in the
list, with its reason recorded, until a test kills it.  The exit status
is 1 when any mutant survives, no longer applies or cannot be run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).with_name("mutants.json")


def load_mutants() -> list[dict]:
    return json.loads(MUTANTS.read_text(encoding="utf-8"))


def outcomes(mutant: dict) -> dict[str, int] | None:
    """The pytest exit code of each node id on a copy with the mutant
    applied, or None when its old text does not occur once in its file."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = Path(tmp, mutant["file"])
        text = target.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return None
        target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src"))}
        return {
            node: subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 node],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            for node in mutant["kill"]
        }


def select(mutants: list[dict], args: list[str]) -> tuple[list[dict], list[str]]:
    """The mutants that ``args`` name, by name or by file (all of them when
    ``args`` is empty), in list order, and the arguments that name none."""
    if not args:
        return mutants, []
    chosen = [m for m in mutants if m["name"] in args or m["file"] in args]
    unknown = [a for a in args if not any(a in (m["name"], m["file"]) for m in mutants)]
    return chosen, unknown


def main(args: list[str]) -> int:
    mutants, unknown = select(load_mutants(), args)
    if unknown:
        print(f"no mutant is named or lives in: {', '.join(unknown)}")
        return 2
    bad = 0
    for mutant in mutants:
        codes = outcomes(mutant)
        if codes is None:
            bad += 1
            print(f"NOT RUN  {mutant['name']}: its old text does not occur once "
                  f"in {mutant['file']}")
            continue
        # pytest exits 1 when a test failed; 0 is a pass, and anything else
        # (a node id that is not found, an interrupted run) decides nothing
        passed = [node for node, code in codes.items() if code == 0]
        broken = [node for node, code in codes.items() if code not in (0, 1)]
        if passed or broken:
            bad += 1
            verdict = "SURVIVED" if passed else "NOT RUN"
        else:
            verdict = "killed"
        print(f"{verdict:8} {mutant['name']}: {mutant['about']}")
        for node in passed:
            print(f"         passed: {node}")
        for node in broken:
            print(f"         exit {codes[node]}: {node}")
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
