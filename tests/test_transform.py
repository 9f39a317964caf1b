import itertools
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import specpair as sp
from specpair import cyclotomic, exact, transform
from specpair.cyclotomic import residue_sum_is_zero
from specpair.measure import build_ifs, integrate_exponential, refine_measure
from specpair.transform import TransformSettings

DATA = Path(__file__).with_name("data")
ROOT = Path(__file__).resolve().parents[1]


def test_mask_values(scale4):
    system = scale4.system
    assert sp.mask(system, 0) == 1.0
    assert sp.mask(system, 1) == 0  # exact zero, not merely small
    for u in (1, -2, 5):
        assert sp.mask(system, 4 * u) == 1.0
    value = sp.mask(system, F(1, 2))
    assert abs(value - (1 + 1j) / 2) < 1e-15


def test_mask_2d(scale4x2):
    system = scale4x2.system
    assert sp.mask(system, (0, 0)) == 1.0
    assert sp.mask(system, (1, 0)) == 0
    assert sp.mask(system, (4, 4)) == 1.0


def test_mask_takes_numpy_integers_exactly(scale4):
    assert sp.mask(scale4.system, np.int64(1)) == 0j


def test_mu_hat_takes_numpy_integers_exactly(scale4):
    assert sp.mu_hat_value(scale4.system, (np.int64(1),)) == 0j


def test_mask_float_frequency(scale4):
    system = scale4.system
    value = sp.mask(system, 0.5)
    assert abs(value - (1 + 1j) / 2) < 1e-15


def test_mu_hat_product_values(scale4):
    system = scale4.system
    settings = TransformSettings(product_depth=30)
    assert sp.mu_hat_value(system, 0, settings) == 1.0
    assert sp.mu_hat_value(system, 1, settings) == 0   # first factor vanishes
    assert sp.mu_hat_value(system, 4, settings) == 0   # unrolls to the same zero
    value = sp.mu_hat_value(system, 2, settings)
    assert abs(abs(value) ** 2 - 0.479734810707) < 1e-9


def test_mu_hat_quadrature_close_to_product(scale4):
    system = scale4.system
    prod = TransformSettings(product_depth=30)
    quad = TransformSettings(backend="quadrature", quadrature_depth=12)
    for t in np.linspace(-8, 8, 33):
        gap = sp.mu_hat_value(system, t, prod) - sp.mu_hat_value(system, t, quad)
        assert abs(gap) < 1e-4


def test_functional_equation_residual(scale4):
    system = scale4.system
    assert sp.functional_equation_residual(system, 0) == 0.0
    quad = TransformSettings(backend="quadrature", quadrature_depth=12)
    assert sp.functional_equation_residual(system, 0.3, quad) < 1e-5
    prod = TransformSettings(product_depth=30)
    for t in (0.3, 1.9, -5.2):
        assert sp.functional_equation_residual(system, t, prod) < 1e-13


def test_scalar_residual_is_two_transforms_and_a_mask(scale4, monkeypatch):
    # the scalar keeps its per-call entry points, which tracing counts
    calls = []
    for name in ("mu_hat_value", "mask"):
        fn = getattr(transform, name)
        monkeypatch.setattr(transform, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    quad = TransformSettings(backend="quadrature", quadrature_depth=6)
    sp.functional_equation_residual(scale4.system, 0.3, quad)
    assert sorted(calls) == ["mask"] + ["mu_hat_value"] * 3  # one inside mask


@pytest.mark.parametrize("name", ["shear3", "scale4x2_sheared"])
def test_functional_equation_on_sheared_data(name):
    # E^T differs from E only off the diagonal, where a shear puts entries
    system = sp.parse_spec(DATA / f"{name}.json").system
    prod = TransformSettings(product_depth=30)
    for t in ((0.3, -1.1, 2.6), (F(1, 3), F(-2, 5), F(7, 2)), (0.0, 1.7, -0.4)):
        assert sp.functional_equation_residual(system, t[:system.dim], prod) < 1e-13


def test_hermitian_symmetry_and_bound(scale4):
    system = scale4.system
    for settings in (TransformSettings(),
                     TransformSettings(backend="quadrature", quadrature_depth=10)):
        for t in (0.1, 1.5, 3.25, 7.9):
            value = sp.mu_hat_value(system, t, settings)
            assert abs(sp.mu_hat_value(system, -t, settings) - value.conjugate()) < 1e-14
            assert abs(value) <= 1 + 1e-12


def test_dual_invariance(scale4):
    system = scale4.system
    settings = TransformSettings(product_depth=30)
    for u in range(-32, 33):
        gap = abs(sp.mu_hat_value(system, 4 * u, settings)
                  - sp.mu_hat_value(system, u, settings))
        assert gap < 1e-9


def test_settings_validation():
    for backend in ("magic", "both"):
        with pytest.raises(ValueError):
            TransformSettings(backend=backend)
    with pytest.raises(sp.BudgetExceeded):
        TransformSettings(product_depth=0)
    with pytest.raises(sp.BudgetExceeded):
        TransformSettings(product_depth=10_000)
    with pytest.raises(ValueError):
        TransformSettings(quadrature_depth=-1)


def test_exact_zero_survives_deep_products(scale4):
    # the zero factor appears at level 5 for 4^5 and is still literal
    settings = TransformSettings(product_depth=40)
    assert sp.mu_hat_value(scale4.system, 4**5, settings) == 0


def test_mask_zero_past_small_conductors(scale4x2):
    # the first coordinate gives (1 + e^{i pi}) / 2; the second turns the
    # phases by 1/202, so the sum's conductor is 202
    t = (1, F(1, 101))
    assert sp.mask(scale4x2.system, t) == 0j
    assert sp.mu_hat_value(scale4x2.system, t) == 0j


def test_mask_is_mean_of_characters(scale4x2):
    system = scale4x2.system
    t = (0.37, -1.42)
    expected = np.mean([
        np.exp(2j * np.pi * (float(b[0]) * t[0] + float(b[1]) * t[1]))
        for b in system.digits
    ])
    assert abs(sp.mask(system, t) - expected) < 1e-15


@pytest.mark.parametrize("call", [
    lambda system, depth: sp.completeness_table(system, 2, [4], depth),
    lambda system, depth: sp.relation_residuals(system, 4, depth),
    lambda system, depth: sp.state_eval(system, (0,), (), depth),
], ids=["completeness_table", "relation_residuals", "state_eval"])
@pytest.mark.parametrize("depth", [0, 201])
def test_consumers_refuse_out_of_range_product_depths(scale4, monkeypatch, call, depth):
    def no_transform(*args, **kwargs):
        raise AssertionError("transform evaluated before the depth check")

    for module, name in ((sp.spectrum, "_exact_row"), (sp.spectrum, "_exact_block"),
                         (sp.operators, "mu_hat_value"), (sp.operators, "_exact_block")):
        monkeypatch.setattr(module, name, no_transform)
    with pytest.raises(sp.BudgetExceeded, match="product depth"):
        call(scale4.system, depth)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_mu_hat_values_reject_non_finite_rows(scale4x2, bad):
    with pytest.raises(sp.NonFinitePoint):
        sp.mu_hat_values(scale4x2.system, [(0.5, 0.25), (0.0, bad)])


@pytest.mark.parametrize("points", [
    [0.5, 0.25],                    # one point, not a batch
    [(0.5,), (0.25,)],              # wrong width
    np.zeros((2, 2, 1)),
])
def test_mu_hat_values_reject_bad_shapes(scale4x2, points):
    with pytest.raises(ValueError):
        sp.mu_hat_values(scale4x2.system, points)


@pytest.mark.parametrize("backend", ["product", "quadrature"])
def test_mu_hat_values_of_no_points(scale4x2, backend):
    settings = TransformSettings(quadrature_depth=2, backend=backend)
    values = sp.mu_hat_values(scale4x2.system, np.empty((0, 2)), settings)
    assert values.shape == (0,) and values.dtype == complex


def test_mu_hat_values_quadrature_is_the_scalar_backend(scale4x2):
    settings = TransformSettings(quadrature_depth=3, backend="quadrature")
    points = [(0.5, -1.25), (3.0, 0.0)]
    values = sp.mu_hat_values(scale4x2.system, points, settings).tolist()
    assert values == [sp.mu_hat_value(scale4x2.system, t, settings) for t in points]
    # the exact copies give the same bits, and so does one pass over the atoms
    exact_points = [("1/2", "-5/4"), (3, 0)]
    assert values == [sp.mu_hat_value(scale4x2.system, t, settings) for t in exact_points]
    measure = refine_measure(build_ifs(scale4x2.system), 3)
    assert values == [integrate_exponential(measure, t) for t in points]


def test_mu_hat_values_quadrature_is_charged_atoms_times_rows(scale4x2, monkeypatch):
    settings = TransformSettings(quadrature_depth=3, backend="quadrature")
    points = [(0.5, -1.25), (3.0, 0.0), (1.0, 2.0)]
    monkeypatch.setattr(sp.measure, "QUADRATURE_BUDGET", 64 * 3)
    assert len(sp.mu_hat_values(scale4x2.system, points, settings)) == 3
    monkeypatch.setattr(sp.measure, "QUADRATURE_BUDGET", 64 * 3 - 1)
    with pytest.raises(sp.BudgetExceeded, match="64 atoms times 3"):
        sp.mu_hat_values(scale4x2.system, points, settings)


def test_half_plane_exit_decides_every_nonzero_two_digit_factor(scale4, monkeypatch):
    # with N = 2 the half-plane test is complete, so the cyclotomic
    # recursion sees only the factors that vanish, and the memo sends it
    # each of their patterns once; the point memo is cleared before each
    # call, since the sweep repeats points (F(2, 2) is F(1, 1))
    cyclotomic.roots_sum_is_zero.cache_clear()
    lookups, verdicts = [], []

    def memo_spy(residues, den):
        lookups.append(((residues, den), cyclotomic.roots_sum_is_zero(residues, den)))
        return lookups[-1][1]

    def spy(weights, den):
        verdicts.append(residue_sum_is_zero(weights, den))
        return verdicts[-1]

    def fresh_value(t):
        transform._row_product.cache_clear()
        return sp.mu_hat_value(scale4.system, t)

    monkeypatch.setattr(transform, "roots_sum_is_zero", memo_spy)
    monkeypatch.setattr(cyclotomic, "residue_sum_is_zero", spy)
    points = [F(num, den) for num in range(-64, 65) for den in (1, 2, 3, 8, 12, 3**25)]
    values = [fresh_value(t) for t in points]
    assert verdicts and all(verdicts)
    zero_keys = {key for key, zero in lookups if zero}
    assert len(verdicts) == len(zero_keys)
    assert values.count(0) == sum(zero for _, zero in lookups) > len(zero_keys)
    # once a sweep has filled the point memo, a second one looks no roots up
    assert [sp.mu_hat_value(scale4.system, t) for t in points] == values
    del lookups[:]
    assert [repr(sp.mu_hat_value(scale4.system, t)) for t in points] == list(map(repr, values))
    assert lookups == []


def test_point_memo_is_bounded_and_cleared_before_each_bench_pass():
    memo = transform._row_product
    assert memo.cache_info().maxsize == 4096 and callable(memo.cache_clear)
    # the benchmark clears every lru cache it finds on the package's modules
    # before each pass, so that each pass pays what a fresh command pays
    code = ("import run, specpair.transform as t; "
            "assert t._row_product in run.package_caches()")
    path = os.pathsep.join(str(ROOT / part) for part in ("perfbench", "src"))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("name", ["scale4", "scale4x2", "tri2", "shear3"])
def test_scalar_loop_finds_the_batch_decisions(name):
    # over integer rows the batch and the scalar loop share every level's q,
    # so after the batch each of the scalar loop's zero decisions is a hit
    system = sp.parse_spec(name if name.startswith("scale") else DATA / f"{name}.json").system
    radius = {1: 16, 2: 6, 3: 3}[system.dim]
    rows = [exact.as_point(row, system.dim)[0]
            for row in itertools.product(range(-radius, radius + 1), repeat=system.dim)]
    memo = cyclotomic.roots_sum_is_zero
    memo.cache_clear()
    batch = transform._exact_block(system, *exact.over_common_denominator(rows), 30)
    decided = memo.cache_info().misses
    scalar = [transform._exact_row(system, *exact.as_point_row(row), 30) for row in rows]
    assert [repr(v) for v in scalar] == [repr(v) for v in batch]
    info = memo.cache_info()
    assert 0 < decided == info.misses < info.hits
