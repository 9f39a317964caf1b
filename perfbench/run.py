#!/usr/bin/env python3
"""Benchmark for specpair: one client, closed loop, one process.

    python3 perfbench/run.py --workload exact-verify --seed 3 --seconds 20 --trace 0

Workloads: gate, exact-verify, float-eval, geometry (``--workload all``
runs each in its own process and prints one table).  A run builds its
inputs from ``--seed``, loads the package from ``src/`` of the checkout it
sits in, runs the workload's fixed job list in passes until ``--seconds``
is used up, checks every answer, and prints a table followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced pass (see tracing.py).  Results and spans go
to ``.bench_out/`` in the checkout.  Without ``src/specpair`` it exits
with status 2 and prints no result.
"""

from __future__ import annotations

import os

# one thread per process, BLAS included; set before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

import calibrate  # noqa: E402
import checks  # noqa: E402
import generate  # noqa: E402
import jobs  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("gate", "exact-verify", "float-eval", "geometry")
SETUP_REPEATS = 7
# the gate's single pass is one long verdict; two give a median of two.
# exact-verify's six 2-D jobs are its slowest; with three passes the
# 90th-percentile latency (ten samples beyond it) falls inside them
MIN_PASSES = {"gate": 2, "exact-verify": 3}
TAIL = 10  # samples required beyond a reported percentile

SCHEMA_VERSION = 2
# times are scaled to the reference speed (calibrate.py)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))
# printed in the table only (see NOTES.md): freqs_per_s applies to two
# workloads, fail_ratio is zero by design (the JSON line carries it as
# failed/attempted), and the raw wall and the VM's speed explain the scaling
TABLE_ONLY = (("freqs_per_s", "1/s"), ("fail_ratio", "ratio"), ("raw_wall_s", "s"),
              ("slowdown", "ratio"))
FREQ_WORKLOADS = ("exact-verify", "float-eval")

# (name, unit, better) for the traced run
PER_LAYER = (
    ("transform.mu_hat_value.calls", "count", "lower"),
    ("transform.mu_hat_value.busy_s", "s", "lower"),
    ("transform.mu_hat_value.us_per_call", "us", "lower"),
    ("transform.mu_hat_value.exact_ratio", "ratio", "higher"),
    ("transform.mu_hat_value.zero_ratio", "ratio", "higher"),
    ("transform.mask.calls", "count", "lower"),
    ("transform.mask.busy_s", "s", "lower"),
    ("cyclotomic.exp_sum_is_zero.calls", "count", "lower"),
    ("cyclotomic.exp_sum_is_zero.busy_s", "s", "lower"),
    ("cyclotomic.exp_sum_is_zero.undecided_ratio", "ratio", "lower"),
    ("spectrum.enumerate_spectrum.busy_s", "s", "lower"),
    ("spectrum.enumerate_spectrum.elements", "count", "lower"),
    ("spectrum.completeness_table.self_s", "s", "lower"),
    ("spectrum.maximality_probe.self_s", "s", "lower"),
    ("measure.separation_witness.calls", "count", "lower"),
    ("measure.separation_witness.busy_s", "s", "lower"),
    ("measure.separation_witness.witness_ratio", "ratio", "higher"),
    ("measure.refine_measure.busy_s", "s", "lower"),
    ("measure.refine_measure.atoms", "count", "lower"),
    ("measure.integrate_exponential.calls", "count", "lower"),
    ("measure.integrate_exponential.busy_s", "s", "lower"),
    ("operators.relation_residuals.self_s", "s", "lower"),
    ("operators.classify_measure.self_s", "s", "lower"),
    ("operators.state_eval.busy_s", "s", "lower"),
    ("pair.tiling_check.busy_s", "s", "lower"),
    ("pair.tiling_check.sampled_ratio", "ratio", "lower"),
    ("pair.translation_membership.busy_s", "s", "lower"),
    ("pair.orthogonality_matrix.self_s", "s", "lower"),
    ("pair.indicator_transform.calls", "count", "lower"),
    ("lattice.validate_simple_factor.busy_s", "s", "lower"),
    ("specfile.parse_document.busy_s", "s", "lower"),
    ("tables.emit_table.busy_s", "s", "lower"),
    ("tables.emit_table.rows", "count", "higher"),
    ("cli.main.busy_s", "s", "lower"),
) + tuple(
    (f"acceptance.criterion_{n}.busy_s", "s", "lower") for n in range(1, 11)
) + (("trace.overhead_ratio", "ratio", "lower"),)

# metric suffix -> the outcome counter it reads (ratios divide by calls)
_OUTCOMES = {
    "exact_ratio": "exact", "zero_ratio": "zero", "undecided_ratio": "undecided",
    "witness_ratio": "witness", "sampled_ratio": "sampled",
    "elements": "elements", "atoms": "atoms", "rows": "rows",
}


def import_package():
    """Import specpair from src/ of this checkout, and nowhere else."""
    if not (SRC / "specpair" / "__init__.py").is_file():
        print(f"error: {SRC / 'specpair'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import specpair
    import specpair.acceptance  # noqa: F401
    import specpair.cli  # noqa: F401
    if SRC not in Path(specpair.__file__).resolve().parents:
        print(f"error: specpair imported from {specpair.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return specpair


def package_caches() -> list:
    """The package's lru caches, cleared before each pass so that every
    pass pays what a fresh ``specpair`` command pays."""
    found = {}
    for key, module in sys.modules.items():
        if module is not None and (key == "specpair" or key.startswith("specpair.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def environment(args) -> dict:
    import numpy
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def setup(workload: str, seed: int, sp, tracer=None):
    """Generate the inputs and parse and validate every datum."""
    inputs = generate.make_inputs(workload, seed)
    if tracer is not None:
        tracer.install()
    try:
        loaded = generate.load_documents(sp, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ctx = jobs.Context(sp, loaded, OUT / workload)
    ctx.documents = {doc["name"]: doc for doc in inputs["documents"]}
    if workload == "float-eval":
        for name in ctx.documents:
            ctx.spec_path(name)
    return inputs, ctx


def setup_child(args) -> float:
    """In a fresh interpreter: seconds from importing the package to ready
    to run (inputs generated, every datum parsed and validated), scaled to
    the reference speed.  Interpreter start-up and the numpy import come
    before and are not counted."""
    with calibrate.Clock() as clock:
        clock.begin()
        setup(args.workload, args.seed, import_package())
        clock.end()
    return clock.scaled[0]


def measure_setup(args) -> list[float]:
    """Set-up seconds of several fresh interpreters (see setup_child)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def percentile_with_tail(values, p: float):
    """(value, label): the p-th percentile (nearest rank) if TAIL samples
    lie beyond it, else the highest percentile that has TAIL beyond it,
    else the median."""
    xs = sorted(values)
    n = len(xs)
    index = min(n - 1, max(0, math.ceil(p / 100 * n) - 1))
    if n - 1 - index < TAIL:
        index = n - 1 - TAIL
    if index < 0:
        return statistics.median(xs), f"median: n={n} leaves no percentile with {TAIL} beyond"
    used = 100 * (index + 1) / n
    return xs[index], f"p{used:.0f}, n={n}, {n - 1 - index} beyond"


class Run:
    """The passes of one workload run and what they measured.

    Pass walls and job latencies are kept scaled to the reference speed
    (calibrate.py); ``raw_walls`` keeps the unscaled pass walls."""

    def __init__(self, workload, inputs, ctx, tracer=None, reference=None):
        self.workload = workload
        self.jobs = inputs["jobs"]
        self.ctx = ctx
        self.runner = jobs.RUNNERS[workload]
        self.tracer = tracer
        self.reference = reference
        self.caches = package_caches()
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.slices: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.freqs_per_pass = 0
        self.digests: dict = {}

    def one_pass(self, traced: bool = False) -> None:
        """Every job once, timed on a calibrated clock; the traced pass
        takes no calibration slices and keeps its raw wall only."""
        ctx = self.ctx
        ctx.gate_lines = []
        freqs = 0
        for cache in self.caches:
            cache.cache_clear()
        clock = calibrate.Clock()
        if traced:
            self.tracer.install()
            timing = contextlib.nullcontext()
            started = time.perf_counter()
        else:
            timing = clock
        try:
            with timing:
                for k, job in enumerate(self.jobs):
                    if traced:
                        self.tracer.current_job = k
                    clock.begin()
                    try:
                        result = self.runner(ctx, job)
                    except Exception as exc:  # a failed job is counted, not fatal
                        result = None
                        problems = [f"{type(exc).__name__}: {exc}"]
                    clock.end()
                    if result is not None:
                        problems = list(result.problems)
                        freqs += result.freqs
                        self.digests[job["id"]] = result.digest
                        if self.reference is not None:
                            problems += checks.compare_reference(
                                result.digest, self.reference.get(job["id"]))
                    self.attempted += 1
                    if problems:
                        self.failed += 1
                        self.problems += [f"{job['id']}: {p}" for p in problems]
        finally:
            if traced:
                self.tracer.uninstall()
        if self.workload == "gate":
            self.problems += checks.gate_lines(ctx.gate_lines)
        self.freqs_per_pass = freqs
        if traced:
            self.traced_walls.append(time.perf_counter() - started)
            return
        if self.workload == "gate":
            # the criteria are one batch, as `accept` runs them: a
            # verdict's latency runs from the start of the batch
            self.latencies += list(itertools.accumulate(clock.scaled))
        else:
            self.latencies += clock.scaled
        self.slices += clock.slices
        self.walls.append(sum(clock.scaled))
        self.raw_walls.append(sum(clock.raw))

    def run(self, seconds: float, trace: bool) -> None:
        """Untraced passes until the budget is used; with ``trace``, the
        first untraced pass is followed by exactly one traced pass."""
        started = time.perf_counter()
        self.one_pass()
        if trace:
            self.one_pass(traced=True)
        minimum = 1 if trace else MIN_PASSES.get(self.workload, 1)
        while (len(self.walls) < minimum or time.perf_counter() - started
               + statistics.median(self.raw_walls) <= seconds):
            self.one_pass()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def end_to_end_metrics(run: Run, setup_times) -> dict:
    wall = statistics.median(run.walls)
    p90, p90_label = percentile_with_tail([x * 1e3 for x in run.latencies], 90)
    values = {
        "setup_s": (statistics.median(setup_times),
                    f"median of {len(setup_times)} fresh interpreters"),
        "wall_s": (wall, f"median of {len(run.walls)} passes of "
                         f"{len(run.jobs)} jobs"),
        "job_p50_ms": (statistics.median(run.latencies) * 1e3,
                       f"median, n={len(run.latencies)}"),
        "job_p90_ms": (p90, p90_label),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "this process, not scaled"),
    }
    if run.workload in FREQ_WORKLOADS:
        values["freqs_per_s"] = (run.freqs_per_pass / wall,
                                 f"{run.freqs_per_pass} transform values per pass")
    else:
        values["freqs_per_s"] = (None, "n/a: no transform values submitted")
    values["fail_ratio"] = (run.failed / run.attempted,
                            f"{run.failed}/{run.attempted} jobs")
    values["raw_wall_s"] = (statistics.median(run.raw_walls), "wall_s before scaling")
    values["slowdown"] = (statistics.median(run.slices) / calibrate.NOMINAL_S,
                          f"median of {len(run.slices)} calibration slices / nominal")
    return values


def per_layer_metrics(run: Run) -> dict:
    tracer = run.tracer
    totals = tracer.totals()
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = statistics.median(run.traced_walls) / statistics.median(run.raw_walls)
            out[name] = (value, "traced / untraced pass wall, both raw")
            continue
        span, metric = name.rsplit(".", 1)
        entry = totals.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        count = tracer.counts.get(span, {})
        if metric in entry:
            value = entry[metric]
        elif metric == "us_per_call":
            value = entry["busy_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0
        elif metric.endswith("_ratio"):
            hits = count.get(_OUTCOMES[metric], 0)
            value = hits / entry["calls"] if entry["calls"] else 0.0
        else:
            value = count.get(_OUTCOMES[metric], 0)
        out[name] = (value, "")
    return out


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, (value, note) in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:46s} {shown:>12s} {units[name]:6s} {note}")


def run_workload(args) -> int:
    env = environment(args)
    sp = import_package()
    setup_times = [] if args.trace or args.record_reference else measure_setup(args)
    tracer = Tracer() if args.trace else None
    inputs, ctx = setup(args.workload, args.seed, sp, tracer)
    reference = None
    if args.seed == generate.DEFAULT_SEED and not args.record_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    run = Run(args.workload, inputs, ctx, tracer, reference)
    if args.record_reference:
        run.one_pass()
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        recorded[args.workload] = run.digests
        REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(run.digests)} digests for {args.workload}; "
              f"problems: {run.problems}")
        return 0 if run.correct else 1
    run.run(args.seconds, bool(args.trace))

    if args.trace:
        values = per_layer_metrics(run)
        units = {name: unit for name, unit, _ in PER_LAYER}
        reported = [name for name, _, _ in PER_LAYER]
        tracer.write(OUT / f"trace-{args.workload}.npz")
    else:
        values = end_to_end_metrics(run, setup_times)
        units = dict(END_TO_END + TABLE_ONLY)
        reported = [name for name, _ in END_TO_END]
    print_table(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
                f"passes {len(run.walls) + len(run.traced_walls)}, one client, "
                "closed loop", values, units)
    for problem in run.problems[:20]:
        print(f"  PROBLEM {problem}")
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in reported},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "table": values, "pass_walls": run.walls,
                    "traced_walls": run.traced_walls, "problems": run.problems},
                   indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if run.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        try:  # a wrong answer exits 1 after its result line; a crash leaves none
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=generate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up in this fresh interpreter, print the set-up time and exit")
    parser.add_argument("--record-reference", action="store_true",
                        help="run one pass at the default seed and record its answers")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != generate.DEFAULT_SEED:
        parser.error(f"references are recorded at the default seed {generate.DEFAULT_SEED}")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_child(args)}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
