"""Job runners: each calls the package's public functions and checks the answer.

A runner takes the workload context and one generated job and returns a
``Result``: the problems its checks found, a small digest of its answers
(compared with the recorded reference for the default seed) and the
number of transform values it asked for.  Package functions are looked
up on the package at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks


@dataclass
class Result:
    problems: list = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    freqs: int = 0


def _vec(values) -> tuple:
    return tuple(Fraction(v) for v in values)


def _sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _c(z: complex) -> list:
    return [z.real, z.imag]


def _s(vec) -> list:
    return [str(v) for v in vec]


class Context:
    """The loaded package, the parsed datums and derived constants."""

    def __init__(self, sp, loaded: dict, workdir: Path):
        self.sp = sp
        self.loaded = loaded
        self.workdir = workdir
        self.documents: dict[str, dict] = {}
        self.spec_paths: dict[str, str] = {}
        self.gate_lines: list[str] = []
        self._tail: dict[str, tuple[float, float]] = {}

    def system(self, name):
        return self.loaded[name].system

    def spec_path(self, name: str) -> str:
        """Write a generated document where the CLI can read it."""
        if name not in self.spec_paths:
            path = self.workdir / "specs" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.documents[name], indent=2), encoding="utf-8")
            self.spec_paths[name] = str(path)
        return self.spec_paths[name]

    def tail(self, name: str) -> tuple[float, float]:
        """(2 pi max|b|, rho): |1 - mask(x)| <= 2 pi max|b| |x|, and rho is
        the spectral norm of (E^T)^{-1}, so a truncated product of depth n
        misses at most 2 pi max|b| |t| rho^n / (1 - rho)."""
        if name not in self._tail:
            system = self.system(name)
            pull = np.array([[float(v) for v in row]
                             for row in system.E_transpose_inverse])
            rho = float(np.linalg.norm(pull, 2))
            maxb = max(math.sqrt(sum(float(c) ** 2 for c in b)) for b in system.digits)
            self._tail[name] = (2 * math.pi * maxb, rho)
        return self._tail[name]

    def both_bound(self, name: str, t, depth: int) -> float:
        scale, rho = self.tail(name)
        return scale * math.hypot(*t) * rho ** depth / (1 - rho)

    def functional_bound(self, name: str, t, depth: int) -> float:
        # residual = |m(E^T t)| |P_{n-1}(t)| |1 - m((E^T)^{-(n-1)} t)|
        scale, rho = self.tail(name)
        return scale * math.hypot(*t) * rho ** (depth - 1)


# -- gate ---------------------------------------------------------------------

def gate_job(ctx: Context, job: dict) -> Result:
    """One acceptance criterion, called from the gate's own list, in order."""
    criterion = ctx.sp.acceptance.CRITERIA[job["number"] - 1]
    result = criterion()
    line = result.line()
    ctx.gate_lines.append(line)
    return Result(
        problems=checks.expected(f"criterion {job['number']}", result.passed, True),
        digest={"passed": result.passed, "title": result.title},
    )


# -- exact-verify -------------------------------------------------------------

def exact_job(ctx: Context, job: dict) -> Result:
    if job.get("kind") == "negatives":
        return negatives_job(ctx, job)
    sp = ctx.sp
    system = ctx.system(job["doc"])
    n = system.N
    out = Result()

    rows = sp.completeness_table(system, _vec(job["probe"]), range(job["depth"] + 1))
    out.problems += checks.completeness_rows(
        [(r.depth, r.sigma, r.increment) for r in rows])
    out.freqs += n ** job["depth"]

    probe = sp.maximality_probe(system, _vec(job["max_probe"]), job["max_depth"])
    out.problems += checks.expected("maximality probe", type(probe).__name__, "Witness")

    report = sp.relation_residuals(system, job["radius"])
    out.problems += checks.relations(
        report.isometry, report.range_orthogonality, report.completeness)
    out.freqs += report.sample_count * (2 + n * (n - 1))

    letters = system.freq_digits
    states = []
    for alpha, beta in job["words"]:
        value = sp.state_eval(system, tuple(letters[i] for i in alpha),
                              tuple(letters[i] for i in beta))
        states.append((tuple(alpha), tuple(beta), value))
    out.problems += checks.state_values(states)
    out.freqs += len(states)

    enum = sp.enumerate_spectrum(system, job["gram_depth"])
    gram = [
        sp.mu_hat_value(system, _sub(xj, xi))
        for i, xi in enumerate(enum.elements)
        for j, xj in enumerate(enum.elements) if i != j
    ]
    out.problems += checks.literal_zeros(gram)
    out.freqs += len(gram)

    out.digest = {
        "sigma": [r.sigma for r in rows],
        "witness": _s(probe.xi) if type(probe).__name__ == "Witness" else None,
        "witness_value": _c(probe.value) if type(probe).__name__ == "Witness" else None,
        "relations": [report.isometry, report.range_orthogonality, report.completeness],
        "states": [_c(v) for _, _, v in states],
        "gram_pairs": len(gram),
    }
    return out


def negatives_job(ctx: Context, job: dict) -> Result:
    """Non-Hadamard datums must fail validation at the pairing checks."""
    out = Result()
    failed = {}
    for name in job["docs"]:
        report = ctx.sp.validate_simple_factor(ctx.system(name))
        failed[name] = sorted(c.name for c in report.failures())
        out.problems += checks.expected(f"{name} validates", report.ok, False)
    out.digest = {"failed_checks": [failed[k] for k in sorted(failed)]}
    return out


# -- float-eval ---------------------------------------------------------------

def _cli(ctx: Context, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = ctx.sp.cli.main(argv)
    return code, buffer.getvalue()


def float_job(ctx: Context, job: dict) -> Result:
    return FLOAT_KINDS[job["kind"]](ctx, job)


def _grid(ctx: Context, job: dict) -> Result:
    name, (lo, hi, count) = job["doc"], job["grid"]
    path = ctx.spec_path(name)
    code, text = _cli(ctx, [
        "transform", "--spec", path, f"--grid={lo!r}:{hi!r}:{count}",
        "--backend", job["backend"], "--quadrature-depth", str(job["quadrature_depth"]),
    ])
    rows = list(csv.DictReader(io.StringIO(text)))
    dim = ctx.system(name).dim
    out = Result(freqs=len(rows) * (2 if job["backend"] == "both" else 1))
    out.problems += checks.expected("transform exit code", code, 0)
    out.problems += checks.expected("grid rows", len(rows), count ** dim)
    values = [complex(float(r["re"]), float(r["im"])) for r in rows]
    out.problems += checks.modulus_bound(values)
    if job["backend"] == "both":
        points = [[float(r[f"t{i}"]) for i in range(dim)] for r in rows]
        out.problems += checks.within_bound(
            "product/quadrature discrepancy",
            [float(r["discrepancy"]) for r in rows],
            [ctx.both_bound(name, t, job["quadrature_depth"]) for t in points],
        )
    out.digest = {"rows": len(rows), "abs_sum": math.fsum(abs(v) for v in values)}
    return out


def _functional(ctx: Context, job: dict) -> Result:
    sp, name = ctx.sp, job["doc"]
    depth = job["quadrature_depth"]
    settings = sp.TransformSettings(backend="quadrature", quadrature_depth=depth)
    system = ctx.system(name)
    residuals = [sp.functional_equation_residual(system, tuple(t), settings)
                 for t in job["points"]]
    out = Result(freqs=2 * len(residuals))
    out.problems += checks.within_bound(
        "functional-equation residual", residuals,
        [ctx.functional_bound(name, t, depth) for t in job["points"]],
    )
    out.digest = {"max_residual": max(residuals)}
    return out


def _completeness(ctx: Context, job: dict) -> Result:
    system = ctx.system(job["doc"])
    rows = ctx.sp.completeness_table(system, tuple(job["probe"]), range(job["depth"] + 1))
    out = Result(freqs=system.N ** job["depth"])
    out.problems += checks.completeness_rows(
        [(r.depth, r.sigma, r.increment) for r in rows])
    out.digest = {"sigma": [r.sigma for r in rows]}
    return out


def _separation(ctx: Context, job: dict) -> Result:
    sp = ctx.sp
    system = ctx.system(job["doc"])
    points = sp.refine_measure(sp.build_ifs(system), job["atom_depth"]).points
    witnesses = [
        sp.separation_witness(system, tuple(points[i]), tuple(points[j]))
        for i, j in job["pairs"]
    ]
    missing = sum(isinstance(w, sp.NoWitness) for w in witnesses)
    out = Result()
    out.problems += checks.expected("pairs without a separation witness", missing, 0)
    out.digest = {"witnesses": sorted({" ".join(_s(w)) for w in witnesses
                                       if not isinstance(w, sp.NoWitness)})}
    return out


def _classify(ctx: Context, job: dict) -> Result:
    system = ctx.system(job["doc"])
    report = ctx.sp.classify_measure(system, system.K, system.Gamma, system.freq_digits)
    n = system.N
    out = Result(freqs=9 ** system.dim * (2 + n * (n - 1)))
    out.problems += checks.expected("consistent", report.consistent,
                                    job["expect_consistent"])
    out.digest = {"consistent": report.consistent,
                  "residuals": [report.isometry, report.range_orthogonality]}
    return out


def _export(ctx: Context, job: dict) -> Result:
    sp, name = ctx.sp, job["doc"]
    depth = job["quadrature_depth"]
    target = ctx.workdir / "export.csv"
    code, _ = _cli(ctx, ["measure", "--spec", ctx.spec_path(name),
                         "--quadrature-depth", str(depth), "--out", str(target)])
    with open(target, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    system = ctx.system(name)
    atoms = sp.refine_measure(sp.build_ifs(system), depth).points
    out = Result()
    out.problems += checks.expected("measure exit code", code, 0)
    out.problems += checks.expected("atom rows", len(rows), system.N ** depth)
    exported = np.array([[float(r[f"x{i}"]) for i in range(system.dim)] for r in rows])
    out.problems += checks.expected("atoms round-trip", bool(
        exported.shape == atoms.shape and (exported == atoms).all()), True)
    total = math.fsum(float(r["weight"]) for r in rows)
    out.problems += checks.within_bound("|total weight - 1|", [abs(total - 1)], [0.0])
    out.digest = {"rows": len(rows), "centroid": exported.mean(axis=0).tolist()}
    return out


FLOAT_KINDS = {
    "grid": _grid, "functional": _functional, "completeness": _completeness,
    "separation": _separation, "classify": _classify, "export": _export,
}


# -- geometry -----------------------------------------------------------------

def _union(sp, boxes):
    return sp.BoxUnion(tuple(sp.Box(_vec(lo), _vec(hi)) for lo, hi in boxes))


def geometry_job(ctx: Context, job: dict) -> Result:
    return GEOMETRY_KINDS[job["kind"]](ctx, job)


def _tiling_twin(ctx: Context, rect, sheared, twin: dict) -> Result:
    sp = ctx.sp
    d_prime = rect.d_prime if twin["d_prime"] is None else _union(sp, twin["d_prime"])
    kwargs = {}
    translates = ()
    if twin["translates"]:
        translates = rect.system.digits
        kwargs["omega_prime"] = sp.reduce_mod_lattice(rect.omega, rect.system.K)
    exact = sp.tiling_check(d_prime, rect.system.Gamma, translates, **kwargs)
    sampled = None
    if twin["sheared_runs"]:
        sampled = sp.tiling_check(d_prime, sheared.system.Gamma, translates, **kwargs)
    out = Result()
    out.problems += checks.twins(exact.ok, None if sampled is None else sampled.ok,
                                 twin["expect"])
    out.problems += checks.expected("rectangular method", exact.method, "exact")
    if sampled is not None:
        out.problems += checks.expected("sheared method", sampled.method, "monte_carlo")
    out.digest = {"ok": exact.ok, "sheared_ok": None if sampled is None else sampled.ok}
    return out


def _membership_twin(ctx: Context, rect, sheared, twin: dict) -> Result:
    sp = ctx.sp
    union, shift = _union(sp, twin["union"]), _vec(twin["shift"])
    exact = sp.translation_membership(union, rect.system.Gamma, shift)
    sampled = None
    if twin["sheared_runs"]:
        sampled = sp.translation_membership(union, sheared.system.Gamma, shift)
    return Result(problems=checks.twins(exact, sampled, twin["expect"]),
                  digest={"member": exact, "sheared_member": sampled})


def _tiling(ctx: Context, job: dict) -> Result:
    return _tiling_twin(ctx, ctx.loaded[job["rect"]], ctx.loaded[job["sheared"]],
                        job["twin"])


def _case(ctx: Context, job: dict) -> Result:
    """Every tiling shape and membership kind once on one lattice pair."""
    rect, sheared = ctx.loaded[job["rect"]], ctx.loaded[job["sheared"]]
    parts = [_tiling_twin(ctx, rect, sheared, twin) for twin in job["tilings"]]
    parts += [_membership_twin(ctx, rect, sheared, twin) for twin in job["memberships"]]
    return Result(problems=[p for part in parts for p in part.problems],
                  digest={"twins": [list(part.digest.values()) for part in parts]})


def _orthogonality(ctx: Context, job: dict) -> Result:
    sp = ctx.sp
    spec = ctx.loaded[job["doc"]]
    spectrum = sp.truncate_spectrum(spec.system, job["radius"])
    gram = sp.orthogonality_matrix(spec.omega, spectrum)
    n = len(spectrum)
    off = gram[~np.eye(n, dtype=bool)]
    out = Result(freqs=n * (n - 1) // 2)
    out.problems += checks.literal_zeros([complex(v) for v in off])
    out.problems += checks.expected("Gram diagonal", bool((np.diag(gram) == 1).all()), True)
    out.digest = {"points": n}
    return out


GEOMETRY_KINDS = {"tiling": _tiling, "case": _case, "orthogonality": _orthogonality}

RUNNERS = {
    "gate": gate_job,
    "exact-verify": exact_job,
    "float-eval": float_job,
    "geometry": geometry_job,
}
