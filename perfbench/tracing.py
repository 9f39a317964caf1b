"""The traced run: spans around the package's public functions.

``Tracer.install`` wraps each target function once and puts the wrapper
in place of the original under every name that refers to it in the
package's modules -- the defining module and every consumer that
imported it (``spectrum.mu_hat_value``, ``operators.mask``,
``pair.exp_sum_is_zero``, the package namespace, ...) -- plus the
acceptance gate's criterion list.  ``uninstall`` puts the originals back;
the untraced passes run with nothing wrapped.

Each span records its name, start, end, parent span and job; spans stay
in flat arrays in memory and are written once, at the end.  Outcome
hooks count what each call returned (literal zeros, undecided cyclotomic
tests, witnesses found, sampled tilings, ...).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter


def _is_exact(t) -> bool:
    values = t if isinstance(t, (tuple, list)) else (t,)
    return all(isinstance(v, (int, Fraction, str)) and not isinstance(v, bool)
               for v in values)


# outcome hooks: (counter, args, result) -> None
def _mu_hat_outcome(count, args, result):
    count["exact"] += _is_exact(args[1])
    count["zero"] += result == 0j


def _cyclotomic_outcome(count, args, result):
    count["undecided"] += result is None


def _elements_outcome(count, args, result):
    count["elements"] += len(result)


def _separation_outcome(count, args, result):
    count["witness"] += type(result).__name__ != "NoWitness"


def _atoms_outcome(count, args, result):
    count["atoms"] += result.count


def _tiling_outcome(count, args, result):
    count["sampled"] += result.method != "exact"


def _rows_outcome(count, args, result):
    count["rows"] += len(args[0])


# (defining module, function name, outcome hook)
TARGETS = (
    ("specfile", "parse_document", None),
    ("lattice", "validate_simple_factor", None),
    ("spectrum", "enumerate_spectrum", _elements_outcome),
    ("spectrum", "completeness_table", None),
    ("spectrum", "maximality_probe", None),
    ("transform", "mask", None),
    ("transform", "mu_hat_value", _mu_hat_outcome),
    ("transform", "functional_equation_residual", None),
    ("cyclotomic", "exp_sum_is_zero", _cyclotomic_outcome),
    ("measure", "separation_witness", _separation_outcome),
    ("measure", "refine_measure", _atoms_outcome),
    ("measure", "integrate_exponential", None),
    ("operators", "relation_residuals", None),
    ("operators", "classify_measure", None),
    ("operators", "state_eval", None),
    ("pair", "tiling_check", _tiling_outcome),
    ("pair", "translation_membership", None),
    ("pair", "truncate_spectrum", None),
    ("pair", "orthogonality_matrix", None),
    ("pair", "indicator_transform", None),
    ("pair", "reduce_mod_lattice", None),
    ("tables", "emit_table", _rows_outcome),
    ("cli", "main", None),
) + tuple(("acceptance", f"criterion_{n}", None) for n in range(1, 11))


class Tracer:
    """Flat in-memory span store plus per-name outcome counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.current_job = -1
        self._stack = [-1]
        self.counts: dict[str, Counter] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts[name] = Counter()
        return self._ids[name]

    def wrap(self, name: str, fn, outcome=None):
        nid = self._name_id(name)
        count = self.counts[name]
        names, start, end = self.name, self.start, self.end
        parent, job, stack = self.parent, self.job, self._stack

        def traced(*args, **kwargs):
            index = len(start)
            names.append(nid)
            parent.append(stack[-1])
            job.append(self.current_job)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if outcome is not None:
                outcome(count, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "specpair" or key.startswith("specpair."))]
        for module_name, fn_name, outcome in TARGETS:
            home = sys.modules[f"specpair.{module_name}"]
            if module_name == "acceptance":
                original = next((c for c in home.CRITERIA
                                 if c.__name__.startswith(fn_name + "_")), None)
            else:
                original = getattr(home, fn_name, None)
            if original is None:
                continue
            label = f"{module_name}.{fn_name}"
            wrapper = self.wrap(label, original, outcome)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
                    elif attr == "CRITERIA" and original in value:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, tuple(
                            wrapper if c is original else c for c in value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- reduction ------------------------------------------------------------

    def totals(self) -> dict:
        """Per name: calls, busy (inclusive) and self seconds over all spans."""
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            duration = self.end[i] - self.start[i]
            calls[self.name[i]] += 1
            busy[self.name[i]] += duration
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration
        self_s = [0.0] * len(self.names)
        for i in range(len(self.start)):
            self_s[self.name[i]] += self.end[i] - self.start[i] - child[i]
        return {
            name: {"calls": calls[k], "busy_s": busy[k], "self_s": self_s[k]}
            for k, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), job=np.asarray(self.job))
