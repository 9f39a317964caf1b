"""Tests of the benchmark itself (not of the package).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import checks
import generate
import jobs
import run
import specpair

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEEDED = ("exact-verify", "float-eval", "geometry")


def _bench(*argv, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert generate.make_inputs(workload, 7) == generate.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", SEEDED)
def test_seed_changes_inputs_not_the_slate(workload):
    a, b = generate.make_inputs(workload, 7), generate.make_inputs(workload, 8)
    assert a != b
    kinds = lambda inputs: [job.get("kind") for job in inputs["jobs"]]  # noqa: E731
    assert kinds(a) == kinds(b)


@pytest.mark.parametrize("workload", SEEDED)
def test_generated_datums_validate_and_negatives_fail(workload):
    inputs = generate.make_inputs(workload, 3)
    loaded = generate.load_documents(specpair, inputs)
    assert all(loaded[d["name"]].report.ok for d in inputs["documents"])
    assert not any(loaded[d["name"]].report.ok for d in inputs["negatives"])


def test_load_documents_rejects_a_bad_datum():
    inputs = generate.make_inputs("exact-verify", 3)
    inputs["documents"] = inputs["negatives"][:1]
    with pytest.raises(AssertionError):
        generate.load_documents(specpair, inputs)


# -- checkers flag wrong answers -----------------------------------------------

def test_completeness_checker():
    good = [(0, 0.5, 0.5), (1, 0.9, 0.4)]
    assert checks.completeness_rows(good) == []
    assert checks.completeness_rows([(0, 0.5, 0.5), (1, 0.4, -0.1)])
    assert checks.completeness_rows([(0, 1.1, 1.1)])


def test_literal_zero_checker():
    assert checks.literal_zeros([0j, 0j]) == []
    assert checks.literal_zeros([0j, 1e-17 + 0j])


def test_modulus_and_bound_checkers():
    assert checks.modulus_bound([0.5 + 0.5j]) == []
    assert checks.modulus_bound([1.01 + 0j])
    assert checks.within_bound("x", [1e-8], [1e-7]) == []
    assert checks.within_bound("x", [1e-6], [1e-7])


def test_relation_checker():
    assert checks.relations(1e-12, 0.0, 1e-15) == []
    assert checks.relations(1e-12, 1e-30, 1e-15)
    assert checks.relations(1e-3, 0.0, 1e-15)


def test_state_checker():
    assert checks.state_values([((0,), (0,), 0.5 + 0j)]) == []
    assert checks.state_values([((0,), (0,), 0.5 + 0.1j)])
    assert checks.state_values([((0,), (1,), 1.5 + 0j)])


def test_twin_and_gate_checkers():
    assert checks.twins(True, True, True) == []
    assert checks.twins(True, False, True)
    assert checks.twins(False, None, True)
    assert checks.gate_lines([f"[{n:2d}] PASS c: d" for n in range(1, 11)]) == []
    assert checks.gate_lines([f"[{n:2d}] PASS c: d" for n in range(1, 10)])
    assert checks.gate_lines(["[ 1] FAIL c: d"] * 10)


def test_reference_checker():
    digest = {"sigma": [0.5, 0.75], "ok": True}
    assert checks.compare_reference(digest, {"sigma": [0.5, 0.75], "ok": True}) == []
    assert checks.compare_reference(digest, {"sigma": [0.5, 0.76], "ok": True})
    assert checks.compare_reference(digest, {"sigma": [0.5, 0.75], "ok": False})
    assert checks.compare_reference(digest, None)


def test_clock_scales_job_times_by_the_slices_around_them(monkeypatch):
    slices = iter([1.0, 3.0, 4.0, 2.0])
    monkeypatch.setattr(calibrate, "slice_seconds", lambda: next(slices) * calibrate.NOMINAL_S)
    monkeypatch.setattr(calibrate, "SLICE_EVERY_S", 1000.0)  # slices by hand only
    with calibrate.Clock() as clock:  # slice 1
        clock.begin()
        clock.end()
        clock._take()  # slice 3, between jobs
        clock.begin()
        clock._take()  # slice 4, inside the second job
        clock.end()
    # exit: slice 2
    assert clock.slices == [calibrate.NOMINAL_S * k for k in (1, 3, 4, 2)]
    first, second = clock.raw
    assert second < 1e-3  # the slice inside the job is not job time
    assert clock.scaled == pytest.approx([first / 2, second / 3])


@pytest.fixture(scope="module")
def exact_context():
    inputs = generate.make_inputs("exact-verify", 5)
    loaded = generate.load_documents(specpair, inputs)
    ctx = jobs.Context(specpair, loaded, Path("unused"))
    return inputs, ctx


def test_exact_job_passes_then_flags_a_lost_zero(exact_context, monkeypatch):
    inputs, ctx = exact_context
    job = next(j for j in inputs["jobs"] if j["doc"].startswith("n2"))
    assert jobs.exact_job(ctx, job).problems == []
    original = specpair.mu_hat_value

    def lossy(system, t, *args, **kwargs):
        value = original(system, t, *args, **kwargs)
        return 1e-18 + 0j if value == 0 else value

    monkeypatch.setattr(specpair, "mu_hat_value", lossy)
    problems = jobs.exact_job(ctx, job).problems
    assert any("literal 0j" in p for p in problems)


def test_geometry_job_flags_a_disagreeing_twin(monkeypatch):
    inputs = generate.make_inputs("geometry", 5)
    ctx = jobs.Context(specpair, generate.load_documents(specpair, inputs), Path("unused"))
    job = next(j for j in inputs["jobs"] if j["kind"] == "case")
    assert jobs.geometry_job(ctx, job).problems == []
    original = specpair.translation_membership

    def sheared_says_yes(omega, lat, a, *args, **kwargs):
        if specpair.pair.rectangular_cell(lat) is None:
            return True
        return original(omega, lat, a, *args, **kwargs)

    monkeypatch.setattr(specpair, "translation_membership", sheared_says_yes)
    assert any("sheared twin" in p for p in jobs.geometry_job(ctx, job).problems)


# -- the command line ----------------------------------------------------------

def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    declared = _declared()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def traced_pair():
    return [_result(_bench("--workload", "float-eval", "--seed", "4", "--seconds", "0",
                           "--trace", "1")) for _ in range(2)]


def test_printed_metric_names_match_benchmark_json(traced_pair):
    declared = _declared()
    untraced = _result(_bench("--workload", "float-eval", "--seed", "4",
                              "--seconds", "0", "--trace", "0"))
    assert untraced["correct"] and untraced["failed"] == 0
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {n: m["unit"] for n, m in traced_pair[0]["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared["per_layer"]}


def test_per_layer_counts_repeat_exactly(traced_pair):
    first, second = (r["metrics"] for r in traced_pair)
    counted = [name for name, unit, _ in run.PER_LAYER if unit in ("count", "ratio")
               and name != "trace.overhead_ratio"]
    assert {n: first[n]["value"] for n in counted} == \
        {n: second[n]["value"] for n in counted}
    assert first["transform.mu_hat_value.calls"]["value"] > 0


def test_a_wrong_answer_prints_its_result_and_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(jobs.RUNNERS, "exact-verify",
                        lambda ctx, job: jobs.Result(problems=["injected"]))
    code = run.main(["--workload", "exact-verify", "--seed", "5", "--seconds", "0",
                     "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "gate", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
