"""Seeded inputs for the benchmark workloads.

Everything here is plain data built with ``random.Random(seed)`` and
``fractions.Fraction``: factor-system documents in the package's JSON
schema (every rational a string), probe frequencies, digit words, box
unions and shift vectors.  The same seed always gives the same inputs.
Nothing in this module imports the package; ``load_documents`` is the one
place where the generated documents are handed to it, and it asserts
that every datum validates and every negative control fails.

Families (all Hadamard, so every datum is a spectral pair datum):

* ``n2``: 1-D, N = 2.  K = Z, A = Z/2, Gamma = Z/(2k), so E = 2k;
  B = {0, 1/2}, L = {0, l} with l odd.
* ``n3``: 1-D, N = 3.  K = Z, A = Z/3, Gamma = Z/(3m);
  B = {0, 1/3, 2/3}, L = {0, 1, 2}.
* ``prod``: the 2-D product of two ``n2`` factors.

Each carries ``D_prime`` = the cell [0, 1/E) of Gamma (a box per axis)
and ``omega`` = D' + B.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

DEFAULT_SEED = 1


def q(x) -> str:
    """A rational as the package's exact string form."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _vec(values) -> list[str]:
    return [q(v) for v in values]


def _boxes(boxes) -> list:
    return [[_vec(lo), _vec(hi)] for lo, hi in boxes]


def _diag(values) -> list[list[str]]:
    d = len(values)
    return [[q(values[i]) if i == j else "0" for j in range(d)] for i in range(d)]


def factor_document(name, axes, shear: int = 0) -> dict:
    """A product of 1-D factors; each axis is (N, E, l_digits).

    Axis j has A = Z/N, Gamma = Z/E, B = {0, 1/N, ..., (N-1)/N}.  With
    ``shear`` != 0 (2-D only), the Gamma basis gets the unimodular shear
    (g1, 0), (shear * g1, g2): the same lattice, a non-diagonal basis.
    """
    dim = len(axes)
    cells = [Fraction(1, e) for _, e, _ in axes]
    gamma = _diag(cells)
    if shear:
        if dim != 2:
            raise ValueError("shear needs dimension 2")
        gamma = [[q(cells[0]), q(shear * cells[0])], ["0", q(cells[1])]]
    digit_sets = [[Fraction(j, n) for j in range(n)] for n, _, _ in axes]
    freq_sets = [list(ls) for _, _, ls in axes]
    digits = list(itertools.product(*digit_sets))
    d_prime = [((0,) * dim, tuple(cells))]
    omega = [(b, tuple(bj + cj for bj, cj in zip(b, cells))) for b in digits]
    return {
        "name": name,
        "dimension": dim,
        "K_basis": _diag([1] * dim),
        "A_basis": _diag([Fraction(1, n) for n, _, _ in axes]),
        "Gamma_basis": gamma,
        "digits_B": [_vec(b) for b in digits],
        "digits_L": [_vec(l) for l in itertools.product(*freq_sets)],
        "omega": _boxes(omega),
        "D_prime": _boxes(d_prime),
    }


def n2_axis(k: int, l: int):
    return (2, 2 * k, (0, l))


def n3_axis(m: int):
    return (3, 3 * m, (0, 1, 2))


def n2_document(rng: random.Random, tag: str, k: int) -> dict:
    l = rng.choice((1, 3, 5, 7))
    return factor_document(f"n2-{tag}-k{k}-l{l}", [n2_axis(k, l)])


def n3_document(tag: str, m: int) -> dict:
    return factor_document(f"n3-{tag}-m{m}", [n3_axis(m)])


def prod_document(rng: random.Random, tag: str, ks, shear: int = 0) -> dict:
    (k1, k2), (l1, l2) = ks, rng.choices((1, 3), k=2)
    return factor_document(
        f"prod-{tag}-k{k1}{k2}-l{l1}{l2}", [n2_axis(k1, l1), n2_axis(k2, l2)], shear
    )


def builtin(name: str) -> dict:
    """The built-in systems, restated as generated documents."""
    if name == "scale4":
        return factor_document("scale4", [n2_axis(2, 1)])
    if name == "scale4x2":
        return factor_document("scale4x2", [n2_axis(2, 1), n2_axis(2, 1)])
    raise KeyError(name)


def negative_documents() -> list[dict]:
    """Datums that must fail validation: the pairing is not Hadamard."""
    middlethird = {
        "name": "neg-middlethird", "dimension": 1,
        "K_basis": [["1"]], "A_basis": [["1/3"]], "Gamma_basis": [["1/3"]],
        "digits_B": [["0"], ["2/3"]], "digits_L": [["0"], ["1"]],
    }
    even = factor_document("neg-n2-even-l", [n2_axis(2, 2)])
    n3_bad = factor_document("neg-n3-l3", [(3, 6, (0, 1, 3))])
    return [middlethird, even, n3_bad]


# -- probes and words -------------------------------------------------------

NON_DYADIC_DENOMINATORS = (3, 5, 7, 9, 11, 13)


def probe(rng: random.Random, kind: str, dim: int) -> list[str]:
    """An exact probe: 'integer', 'dyadic' (p/2^j) or 'nondyadic' (p/q, q odd)."""
    out = []
    for _ in range(dim):
        if kind == "integer":
            v = Fraction(rng.randint(-6, 6))
        elif kind == "dyadic":
            den = 2 ** rng.randint(1, 3)
            v = Fraction(rng.randrange(1, 8 * den, 2), den)
        elif kind == "nondyadic":
            den = rng.choice(NON_DYADIC_DENOMINATORS)
            num = rng.randint(1, 4 * den)
            while math.gcd(num, den) != 1:
                num += 1
            v = Fraction(num, den)
        else:
            raise ValueError(kind)
        out.append(q(v))
    return out


def word_pairs(rng: random.Random, n_letters: int, count: int) -> list:
    """(alpha, beta) pairs of digit-index words; every third has alpha == beta."""
    pairs = []
    for i in range(count):
        alpha = [rng.randrange(n_letters) for _ in range(rng.randint(1, 3))]
        beta = list(alpha) if i % 3 == 0 else [
            rng.randrange(n_letters) for _ in range(rng.randint(0, 3))
        ]
        pairs.append((alpha, beta))
    return pairs


# -- workloads --------------------------------------------------------------

def exact_verify_inputs(seed: int) -> dict:
    """Exact-frequency verification jobs over the Hadamard families.

    A fixed slate of jobs per seed: every family parameter appears in
    every seed, and the seed picks only frequency digits, probes and
    words, so every seed costs about the same.
    """
    rng = random.Random(seed)
    docs = [n2_document(rng, "a", k) for k in (2, 3, 4)]
    docs += [n3_document("a", m) for m in (1, 2, 3)]
    docs += [prod_document(rng, "a", ks) for ks in ((2, 3), (3, 2))]
    docs += [builtin("scale4"), builtin("scale4x2")]
    jobs = []
    for doc in docs:
        dim = doc["dimension"]
        n = len(doc["digits_B"])
        if dim == 2:
            depth, gram_depth, radius = 3, 2, 2
            kinds = ("dyadic", "nondyadic")
        elif n == 3:
            depth, gram_depth, radius = 4, 3, 6
            kinds = ("integer", "nondyadic")
        else:
            depth, gram_depth, radius = 6, 4, 6
            kinds = ("integer", "dyadic", "nondyadic")
        for kind in kinds:
            jobs.append({
                "id": f"{doc['name']}/{kind}/{len(jobs)}",
                "doc": doc["name"],
                "probe": probe(rng, kind, dim),
                "depth": depth,
                "max_probe": probe(rng, "nondyadic", dim),
                "max_depth": depth,
                "radius": radius,
                "words": word_pairs(rng, n, 3),
                "gram_depth": gram_depth,
            })
    negatives = negative_documents()
    jobs.append({"id": "negatives", "kind": "negatives",
                 "docs": [doc["name"] for doc in negatives]})
    return {"documents": docs, "negatives": negatives, "jobs": jobs}


def distinct_pairs(rng: random.Random, size: int, count: int) -> list:
    pairs = []
    while len(pairs) < count:
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            pairs.append((i, j))
    return pairs


def _float_points(rng: random.Random, count: int, dim: int, reach: float = 8.0):
    return [[rng.uniform(-reach, reach) for _ in range(dim)] for _ in range(count)]


def float_eval_inputs(seed: int) -> dict:
    """Float-frequency jobs: CLI grids, residuals, tables, classification."""
    rng = random.Random(seed)
    docs = [n2_document(rng, "a", k) for k in (3, 4)]
    docs += [n3_document("a", m) for m in (2, 3)]
    docs += [prod_document(rng, "a", (2, 3)), builtin("scale4"), builtin("scale4x2")]
    negatives = negative_documents()
    jobs = []

    def add(kind, doc, **fields):
        jobs.append({"id": f"{doc}/{kind}/{len(jobs)}", "kind": kind, "doc": doc,
                     **fields})

    for doc in docs:
        name, dim = doc["name"], doc["dimension"]
        n = len(doc["digits_B"])
        # quadrature depth keeps N^depth atoms near 4096-6561
        qdepth = 6 if dim == 2 else (8 if n == 3 else 12)
        count = 13 if dim == 2 else 129
        for backend in ("product", "quadrature", "both"):
            if dim == 2 and backend == "quadrature":
                continue
            lo, hi = -rng.uniform(4.0, 8.0), rng.uniform(4.0, 8.0)
            add("grid", name, backend=backend, grid=[lo, hi, count],
                quadrature_depth=qdepth)
        add("functional", name, points=_float_points(rng, 50, dim),
            quadrature_depth=qdepth)
        depth = 4 if dim == 2 else (5 if n == 3 else 8)
        add("completeness", name, probe=_float_points(rng, 1, dim, 4.0)[0],
            depth=depth)
        atom_depth = 4 if dim == 2 else 8
        add("separation", name, atom_depth=atom_depth,
            pairs=distinct_pairs(rng, n ** atom_depth, 2000))
        if dim == 1 and n == 2:
            add("classify", name, expect_consistent=True)
        add("export", name, quadrature_depth=4 if dim == 2 else (6 if n == 3 else 8))
    add("classify", negatives[0]["name"], expect_consistent=False)
    return {"documents": docs, "negatives": negatives, "jobs": jobs}


def _cell_box(origin, cells, scale=(1, 1)):
    return tuple(origin), tuple(o + c * s for o, c, s in zip(origin, cells, scale))


def geometry_inputs(seed: int) -> dict:
    """Tiling and membership twins on 2-D lattices, plus orthogonality jobs.

    Every 2-D datum comes twice: with a diagonal Gamma basis (exact box
    path) and with a unimodular shear of it (sampled path).  Expected
    verdicts are known by construction.  Only one twin per pass samples in
    full (10^5 points), which is the cost the pass is sized around.
    """
    rng = random.Random(seed)
    shears = [rng.choice((-2, -1, 1, 2)) for _ in range(3)]
    rects, sheared = [], []
    for i, (s, ks) in enumerate(zip(shears, ((2, 2), (2, 3), (3, 2)))):
        state = rng.getstate()
        rect = prod_document(rng, f"g{i}", ks)
        rng.setstate(state)
        twin = prod_document(rng, f"g{i}", ks, shear=s)
        twin["name"] = rect["name"] + f"-shear{s}"
        rects.append(rect)
        sheared.append(twin)
    line = [n2_document(rng, "a", k) for k in (3, 4)] + [builtin("scale4")]
    docs = rects + sheared + line

    def cells_of(doc):
        return [Fraction(row[i]) for i, row in enumerate(doc["Gamma_basis"])]

    def offset(cells):
        return tuple(Fraction(rng.randrange(0, 4), 4) * c for c in cells)

    tilings, cases, grams = [], [], []

    # the single fully sampled twin: positive or negative by seed
    pair = rng.randrange(len(rects))
    cells = cells_of(rects[pair])
    if seed % 2 == 0:
        box, expect = _cell_box(offset(cells), cells), True
    else:
        box, expect = _cell_box(offset(cells), cells, (Fraction(3, 4), Fraction(4, 3))), False
    tilings.append(dict(
        kind="tiling", rect=rects[pair]["name"], sheared=sheared[pair]["name"],
        twin={"d_prime": _boxes([box]), "expect": expect, "sheared_runs": True,
              "translates": False}))

    # every case holds each tiling shape and membership kind once, so every
    # seed has the same mix.  The counts put a pass's median job in the
    # middle of the cases and its 90th percentile in the middle of the 1-D
    # Gram matrices, not on the edge between two kinds of job
    for index in range(150):
        i = index % len(rects)
        cells = cells_of(rects[i])
        cases.append(dict(
            kind="case", rect=rects[i]["name"], sheared=sheared[i]["name"],
            tilings=[_tiling_twin(rng, cells, offset(cells), shape) for shape in range(4)],
            memberships=[_membership_twin(rng, cells, offset(cells), shears[i], kind)
                         for kind in range(3)]))

    # the radius holds the spectrum near a fixed size whatever the periods
    for doc in line * 20:
        grams.append(dict(kind="orthogonality", doc=doc["name"],
                          radius=_radius_for(cells_of(doc), 24)))
    for doc in rects:
        grams.append(dict(kind="orthogonality", doc=doc["name"],
                          radius=_radius_for(cells_of(doc), 30)))

    # spread each kind evenly over the pass, the sampled twin in the middle,
    # so that no latency quantile rests on one short stretch of the run
    keyed = sorted(
        ((k + 0.5) / len(group), g, k)
        for g, group in enumerate((tilings, cases, grams)) for k in range(len(group))
    )
    jobs: list[dict] = []
    for _, g, k in keyed:
        fields = (tilings, cases, grams)[g][k]
        jobs.append({"id": f"{fields['kind']}/{len(jobs)}", **fields})
    return {"documents": docs, "negatives": negative_documents(), "jobs": jobs}


def _tiling_twin(rng, cells, origin, shape: int) -> dict:
    if shape == 0:    # own D' with translates B and omega': positive
        boxes, expect, translates = None, True, True
    elif shape == 1:  # a cell split in two, one half moved by a period
        half = Fraction(1, 2) * cells[0]
        jump = rng.randint(-2, 2) * cells[0]
        boxes = [
            (origin, (origin[0] + half, origin[1] + cells[1])),
            ((origin[0] + half + jump, origin[1] + cells[1]),
             (origin[0] + cells[0] + jump, origin[1] + 2 * cells[1])),
        ]
        expect, translates = True, False
    elif shape == 2:  # right measure, wrong shape: negative
        scale = rng.choice(((Fraction(3, 4), Fraction(4, 3)),
                            (Fraction(1, 2), Fraction(2)),
                            (Fraction(2), Fraction(1, 2))))
        boxes, expect, translates = [_cell_box(origin, cells, scale)], False, False
    else:             # half the measure: negative
        boxes = [_cell_box(origin, cells, (1, Fraction(1, 2)))]
        expect, translates = False, False
    # a sheared twin that would sample in full is not run
    return {"d_prime": None if boxes is None else _boxes(boxes), "expect": expect,
            "sheared_runs": shape == 3, "translates": translates}


def _membership_twin(rng, cells, origin, shear: int, kind: int) -> dict:
    half = [(origin, (origin[0] + cells[0] / 2, origin[1] + cells[1]))]
    if kind == 0:    # a period of the lattice: positive on both twins
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        shift = (a * cells[0] + b * shear * cells[0], b * cells[1])
        expect, sheared_runs = True, True
    elif kind == 1:  # onto the other half: negative, the sampler exits at
        # its first point whatever the seed
        shift = (cells[0] * Fraction(2 * rng.randint(-2, 2) + 1, 2), Fraction(0))
        expect, sheared_runs = False, True
    else:            # the half-cell spans a full period in y: positive,
        # decided exactly; its sampled twin (~10^5 points) is not run
        shift = (Fraction(0), cells[1] * Fraction(rng.randint(1, 7), 8))
        expect, sheared_runs = True, False
    return {"union": _boxes(half), "shift": _vec(shift), "expect": expect,
            "sheared_runs": sheared_runs}


def _radius_for(cells, points: int) -> str:
    """A sup-norm radius R giving about ``points`` spectrum points.

    With Gamma = diag(1/(2k_i)) and two frequency digits per axis, the
    spectrum has about 2R/k_i points per axis.
    """
    ks = [1 / (2 * c) for c in cells]
    radius = (points * math.prod(ks)) ** (1 / len(ks)) / 2
    return q(Fraction(round(4 * radius), 4))


def gate_inputs(seed: int) -> dict:
    """The gate's inputs are pinned by its own SEED; ``seed`` is unused."""
    return {"documents": [], "negatives": [], "jobs": [
        {"id": f"criterion_{n}", "number": n} for n in range(1, 11)
    ]}


INPUTS = {
    "gate": gate_inputs,
    "exact-verify": exact_verify_inputs,
    "float-eval": float_eval_inputs,
    "geometry": geometry_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    return INPUTS[workload](seed)


def load_documents(sp, inputs: dict) -> dict:
    """Parse every generated document through the package.

    Asserts that each datum validates and each negative control does
    not; returns the LoadedSpec objects by name.
    """
    loaded = {}
    for doc in inputs["documents"]:
        spec = sp.parse_document(doc)
        if not spec.report.ok:
            failures = [c.name for c in spec.report.failures()]
            raise AssertionError(f"generated datum {doc['name']} fails {failures}")
        loaded[doc["name"]] = spec
    for doc in inputs["negatives"]:
        spec = sp.parse_document(doc)
        if spec.report.ok:
            raise AssertionError(f"negative control {doc['name']} validates")
        loaded[doc["name"]] = spec
    return loaded
