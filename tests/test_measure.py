import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import specpair as sp
from specpair import exact
from specpair.measure import _dual_candidates


def _degenerate_expansive():
    # K = A (flagged degenerate) but the expansion is still scale 4
    return sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([[1]]), Gamma=sp.Lattice([["1/4"]]),
        digits=[(0,)], freq_digits=[(0,)],
    )


def _exact_atom(system, word):
    """Exact re-evaluation of the atom for a digit-index word."""
    point = exact.zero_vector(system.dim)
    for index in reversed(word):
        point = exact.vec_add(exact.mat_vec(system.E_inverse, point),
                              system.digits[index])
    return point


def _contraction_norm(system):
    """Operator 2-norm of E^{-1}, < 1 for expansive systems."""
    return float(np.linalg.norm(np.array(exact.matrix_to_floats(system.E_inverse)), 2))


def _attractor_radius(system):
    """A ball radius containing every atom: max |b| / (1 - norm)."""
    biggest = max(float(np.linalg.norm(exact.to_floats(b))) for b in system.digits)
    return biggest / (1.0 - _contraction_norm(system))


def test_build_ifs_scale4(scale4):
    ifs = sp.build_ifs(scale4.system)
    assert ifs is scale4.system
    assert ifs.E_inverse == ((F(1, 4),),)
    assert ifs.digits == ((F(0),), (F(1, 2),))
    assert ifs.N == 2


def test_build_ifs_degenerate_single_map():
    ifs = sp.build_ifs(_degenerate_expansive())
    assert ifs.N == 1
    assert ifs.E_inverse == ((F(1, 4),),)
    assert _exact_atom(ifs, (0, 0, 0)) == (F(0),)  # fixed point at the origin


def test_build_ifs_2d(scale4x2):
    ifs = sp.build_ifs(scale4x2.system)
    assert ifs.N == 4
    assert set(ifs.digits) == {
        (F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 2), F(1, 2)),
    }


def test_build_ifs_rejects_non_expansive():
    flat = sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([[1]]), Gamma=sp.Lattice([[1]]),
        digits=[(0,)], freq_digits=[(0,)],
    )
    with pytest.raises(sp.NotExpansive):
        sp.build_ifs(flat)


def test_build_ifs_rejects_digits_without_zero():
    shifted = sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([["1/2"]]), Gamma=sp.Lattice([["1/4"]]),
        digits=[("1/2",), (1,)], freq_digits=[(0,), (1,)],
    )
    with pytest.raises(ValueError, match="contain 0"):
        sp.build_ifs(shifted)


def test_refine_measure_atoms(scale4):
    ifs = sp.build_ifs(scale4.system)
    zero = sp.refine_measure(ifs, 0)
    assert zero.count == 1 and zero.points[0, 0] == 0.0 and zero.weight == 1.0
    one = sp.refine_measure(ifs, 1)
    assert sorted(one.points[:, 0]) == [0.0, 0.5]
    two = sp.refine_measure(ifs, 2)
    assert sorted(two.points[:, 0]) == [0.0, 0.125, 0.5, 0.625]
    assert two.weight == 0.25


@pytest.mark.parametrize("name", sp.builtin_names())
def test_weight_is_one_over_the_atom_count(name):
    system = sp.parse_spec(name, require_valid=False).system
    ifs = sp.build_ifs(system)
    for depth in range(13):
        weight = sp.refine_measure(ifs, depth).weight
        assert weight.hex() == (1.0 / system.N**depth).hex()


def test_refine_measure_budget(scale4, monkeypatch):
    ifs = sp.build_ifs(scale4.system)
    monkeypatch.setattr(sp.measure, "ATOM_BUDGET", 16)
    with pytest.raises(sp.DepthTooLarge):
        sp.refine_measure(ifs, 5)
    sp.refine_measure(ifs, 4)  # exactly at budget is fine


def test_atom_nesting_is_exact(scale4):
    ifs = sp.build_ifs(scale4.system)
    coarse = sp.refine_measure(ifs, 5)
    fine = sp.refine_measure(ifs, 6)
    assert np.array_equal(fine.points[:: ifs.N], coarse.points)


def test_word_decoding_matches_exact_atom(scale4x2):
    ifs = sp.build_ifs(scale4x2.system)
    measure = sp.refine_measure(ifs, 3)
    for index in (0, 1, 17, 63):
        word = measure.word(index)
        assert len(word) == 3
        exact_point = _exact_atom(ifs, word)
        assert np.allclose(measure.points[index], exact.to_floats(exact_point))


def test_atoms_within_attractor_radius(scale4, scale4x2):
    for loaded in (scale4, scale4x2):
        ifs = sp.build_ifs(loaded.system)
        measure = sp.refine_measure(ifs, 6)
        radii = np.linalg.norm(measure.points, axis=1)
        assert radii.max() <= _attractor_radius(ifs) + 1e-12


def test_integrate_exponential_values(scale4):
    ifs = sp.build_ifs(scale4.system)
    assert sp.integrate_exponential(sp.refine_measure(ifs, 7), 0) == 1.0
    two = sp.refine_measure(ifs, 2)
    assert abs(sp.integrate_exponential(two, 1)) < 1e-15
    one = sp.refine_measure(ifs, 1)
    assert abs(sp.integrate_exponential(one, 2) - 1.0) < 1e-15


def test_integrate_exponential_memory_is_one_block(scale4):
    # 2^20 atoms; the whole-array kernel allocated 24 bytes per atom, 25 MB
    measure = sp.refine_measure(sp.build_ifs(scale4.system), 20)
    assert measure.count == 1 << 20
    tracemalloc.start()
    try:
        sp.integrate_exponential(measure, 0.3)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # the buffers go with the call, not with a later garbage collection
    assert left < 1e5


def test_quadrature_batch_memory_is_one_block_per_chunk(scale4, monkeypatch):
    # 2^20 atoms in three chunks: each holds its own two buffers of one block
    ifs = sp.build_ifs(scale4.system)
    measure = sp.refine_measure(ifs, 20)
    cpus = 3
    monkeypatch.setattr(sp.measure, "_cpu_count", lambda: cpus)
    # a warm-up that imports concurrent.futures before tracing starts;
    # the module stays, but is no buffer
    sp.integrate_exponentials(sp.refine_measure(ifs, 1), [[0.0], [1.0]])
    tracemalloc.start()
    try:
        values = sp.integrate_exponentials(measure, np.linspace(-3, 3, 8)[:, None])
        del values
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cpus * 4e6
    assert left < 1e5


def test_quadrature_batch_checks_every_row_before_any_work(scale4, monkeypatch):
    measure = sp.refine_measure(sp.build_ifs(scale4.system), 4)
    calls = []
    monkeypatch.setattr(sp.measure, "_cpu_count", lambda: 2)
    monkeypatch.setattr(sp.measure, "_exponential_means",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda *args, **kwargs: pytest.fail("a worker was asked for"))
    with pytest.raises(sp.NonFinitePoint):
        sp.integrate_exponentials(measure, [[0.5], [1.0], [float("nan")]])
    assert calls == []


def _batch_in_child(measure, rows, connection):
    connection.send_bytes(sp.integrate_exponentials(measure, rows).tobytes())


def test_quadrature_batch_runs_in_a_forked_child(scale4, monkeypatch):
    """A child forked after the parent ran a threaded batch runs its own;
    the parent's threads do not exist in the child."""
    measure = sp.refine_measure(sp.build_ifs(scale4.system), 10)
    rows = np.linspace(-3, 3, 8)[:, None]
    monkeypatch.setattr(sp.measure, "_cpu_count", lambda: 2)
    want = sp.integrate_exponentials(measure, rows).tobytes()
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_batch_in_child, args=(measure, rows, writer))
    child.start()
    try:
        assert reader.poll(60), "the child's batch did not return"
        assert reader.recv_bytes() == want
        child.join(60)
        assert not child.is_alive()
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_quadrature_batch_leaves_no_thread_behind(scale4, monkeypatch):
    measure = sp.refine_measure(sp.build_ifs(scale4.system), 8)
    monkeypatch.setattr(sp.measure, "_cpu_count", lambda: 3)
    values = sp.integrate_exponentials(measure, np.linspace(-3, 3, 7)[:, None])
    assert len(values) == 7
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("specpair-quadrature")]


def test_importing_the_package_imports_no_thread_pool():
    code = "import sys, specpair; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "False\n"


def test_quadrature_batch_is_charged_atoms_times_rows(scale4, monkeypatch):
    measure = sp.refine_measure(sp.build_ifs(scale4.system), 6)
    rows = np.linspace(-3, 3, 5)[:, None]
    monkeypatch.setattr(sp.measure, "QUADRATURE_BUDGET", 64 * 5)
    assert len(sp.integrate_exponentials(measure, rows)) == 5
    monkeypatch.setattr(sp.measure, "QUADRATURE_BUDGET", 64 * 5 - 1)
    monkeypatch.setattr(sp.measure, "_exponential_means",
                        lambda *args: pytest.fail("work started before the charge"))
    with pytest.raises(sp.BudgetExceeded, match="64 atoms times 5"):
        sp.integrate_exponentials(measure, rows)


def test_quadrature_batch_of_no_rows_makes_no_leaf(scale4x2, monkeypatch):
    # 2^24 atoms: walking their leaves for no row took a quarter second
    measure = sp.refine_measure(sp.build_ifs(scale4x2.system), 12)
    monkeypatch.setattr(sp.measure, "_exponential_means",
                        lambda *args: pytest.fail("a leaf was made for no row"))
    values = sp.integrate_exponentials(measure, np.empty((0, 2)))
    assert values.dtype == complex and values.shape == (0,)
    quad = sp.TransformSettings(backend="quadrature")
    assert sp.mu_hat_values(scale4x2.system, np.empty((0, 2)), quad).shape == (0,)


def test_refinement_holds_the_parent_and_its_images(scale4x2):
    # 4^10 atoms (16 MiB) built from the core: the parent (4 MiB) and its
    # images are all a step holds; a third array of contracted atoms made
    # it 24 MiB
    measure = sp.refine_measure(sp.build_ifs(scale4x2.system), 10)
    tracemalloc.start()
    try:
        points = measure.points
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert measure.count == len(points) == 1 << 20
    assert peak < 1.3 * points.nbytes


def test_quadrature_makes_its_leaves_from_the_core(scale4x2, monkeypatch):
    # 4^11 atoms (64 MiB of points) held as a core of 4^8 and three maps;
    # each chunk of rows makes one leaf at a time in its own buffers
    ifs = sp.build_ifs(scale4x2.system)
    measure = sp.refine_measure(ifs, 11)
    assert measure.count == 1 << 22 and len(measure.core) == 1 << 16
    # the pool, made once in a process, is no buffer
    sp.integrate_exponentials(sp.refine_measure(ifs, 1), np.zeros((2, 2)))
    monkeypatch.setattr(sp.measure, "_refined",
                        lambda *args: pytest.fail("the points were built"))
    rows = np.linspace(-3, 3, 8).reshape(4, 2)
    tracemalloc.start()
    try:
        sp.integrate_exponentials(measure, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sp.measure._cpu_count() * 4e6


def test_self_similarity_identity_small(scale4):
    system = scale4.system
    ifs = sp.build_ifs(system)
    previous = sp.refine_measure(ifs, 3)
    current = sp.refine_measure(ifs, 4)
    for t in (0.3, 1.7, -2.2):
        lhs = sp.integrate_exponential(current, t)
        rhs = sp.mask(system, t) * sp.integrate_exponential(previous, t / 4.0)
        assert abs(lhs - rhs) < 1e-14


def test_quadrature_convergence_bound(scale4):
    system = scale4.system
    ifs = sp.build_ifs(system)
    diameter = 2.0 / 3.0
    rho = _contraction_norm(ifs)
    for t in (1.3, 3.7, 7.1):
        for depth in (2, 4, 6):
            a = sp.integrate_exponential(sp.refine_measure(ifs, depth), t)
            b = sp.integrate_exponential(sp.refine_measure(ifs, depth + 1), t)
            assert abs(a - b) <= 2 * math.pi * abs(t) * diameter * rho**depth


def test_separation_witness_examples(scale4):
    system = scale4.system
    assert sp.separation_witness(system, 0.0, 0.5) == (F(1),)
    with pytest.raises(sp.IdenticalPoints):
        sp.separation_witness(system, 0.25, 0.25)


@pytest.mark.parametrize("x, y", [
    (1, 0.5), (0.0, 0.25), (F(1, 3), 2), (3, 0.625), (2, 0.0),
])
def test_separation_witness_takes_numpy_scalars(scale4, x, y):
    system = scale4.system
    expected = sp.separation_witness(system, x, y)
    as_numpy = {int: np.int64, float: np.float32, F: np.float64}
    np_x, np_y = (as_numpy[type(v)](v) for v in (x, y))
    assert sp.separation_witness(system, np_x, np_y) == expected
    assert sp.separation_witness(system, np_x, y) == expected


ZERO_D = [(0.1, np.array(0.1)), (1, np.array(1)), (F(1, 3), np.array(F(1, 3), dtype=object)),
          (0.25, np.array(0.25, dtype=np.float32))]


@pytest.mark.parametrize("x, x_array", ZERO_D)
def test_separation_witness_reads_zero_dimensional_arrays(scale4, x, x_array):
    system = scale4.system
    for y in (0.3, 2):
        expected = sp.separation_witness(system, x, y)
        assert sp.separation_witness(system, x_array, np.array(y)) == expected
        assert sp.separation_witness(system, x_array, y) == expected
    with pytest.raises(sp.IdenticalPoints):
        sp.separation_witness(system, x_array, x_array)


@pytest.mark.parametrize("t, t_array", ZERO_D)
def test_integrate_exponential_reads_zero_dimensional_arrays(scale4, t, t_array):
    measure = sp.refine_measure(scale4.system, 3)
    assert (repr(sp.integrate_exponential(measure, t_array))
            == repr(sp.integrate_exponential(measure, t)))


@pytest.mark.parametrize("name, x, y", [
    ("scale4", (0.1, 0.2), (0.3,)),
    ("scale4", (0.1,), (0.3, 0.2)),
    ("scale4x2", (0.1, 0.2, 0.5), (0.3, 0.2)),
], ids=["scale4-long-x", "scale4-long-y", "scale4x2-long-x"])
def test_separation_witness_rejects_malformed_points(name, x, y):
    system = sp.parse_spec(name).system
    with pytest.raises(ValueError, match=f"length {system.dim}"):
        sp.separation_witness(system, x, y)


def test_separation_witness_exhaustion():
    # integer lattice dual = integers; points differing by an integer are
    # never separated, so the search must report exhaustion
    system = sp.parse_spec("scale4").system
    result = sp.separation_witness(system, 0.0, 1.0, search_radius=3)
    assert isinstance(result, sp.NoWitness)
    assert result.search_radius == 3


def test_dual_candidates_order(scale4):
    candidates = [s for s, _ in _dual_candidates(scale4.system, 3)]
    assert candidates[0] == (F(0),)
    assert candidates[1] == (F(1),)  # positive side probed before negative
    assert candidates[2] == (F(-1),)


def test_depth10_atom_gap(scale4):
    # smallest gap between depth-10 atoms stays far above the witness
    # tolerance, so the acceptance sweep is numerically meaningful
    measure = sp.refine_measure(sp.build_ifs(scale4.system), 10)
    atoms = np.sort(measure.points[:, 0])
    gap = np.diff(atoms).min()
    assert gap > 1e-6
