import math
import random

import pytest

from glsw.algebra import gls_presentation, unfold, unfold_class
from glsw.quivers import catalog_affine
from glsw.suites import CATALOG_REPRESENTATIVES, split_seed
from glsw import decomposition as D, families as F, reps as R


def test_split_of_null_multiples():
    q = catalog_affine("BC1")
    rep = D.folded_decomposition(q, [2, 4])
    assert rep["m"] == 2
    assert rep["w"] == [0, 0]
    assert rep["summands"] == []


def test_split_of_rigid_vector():
    q = catalog_affine("BC1")
    rep = D.folded_decomposition(q, [3, 5])
    assert rep["m"] == 0
    assert rep["w"] == [3, 5]
    total = [0, 0]
    for s in rep["summands"]:
        assert q.is_positive_real_root(s["class"])
        total = [a + s["multiplicity"] * b for a, b in zip(total, s["class"])]
    assert total == [3, 5]


def test_split_mixed_vectors():
    q = catalog_affine("BC1")
    cases = {
        (2, 2): (0, [(1, 1)], [((1, 1), 2)]),
        (2, 6): (0, [(1, 3)], [((1, 3), 2)]),
        (1, 2): (1, [], []),
    }
    for v, (m, _, classes) in cases.items():
        rep = D.folded_decomposition(q, list(v))
        assert rep["m"] == m, (v, rep)
        got = sorted((tuple(s["class"]), s["multiplicity"]) for s in rep["summands"])
        assert got == sorted(classes), (v, got)


def test_split_consistency_with_roots():
    q = catalog_affine("C", 2)
    eta = q.null_root()
    rng = random.Random("root-consistency")
    for _ in range(6):
        v = [rng.randrange(0, 4) for _ in range(q.n)]
        if not any(v):
            continue
        rep = D.folded_decomposition(q, v)
        assert rep["w"] == [a - rep["m"] * e for a, e in zip(v, eta)]
        if rep["m"] > 0:
            assert q.defect(rep["w"]) == 0


def test_rejects_negative_vectors():
    q = catalog_affine("BC1")
    with pytest.raises(ValueError):
        D.folded_decomposition(q, [1, -1])


def test_rigid_sample_known_modules():
    q = catalog_affine("BC1")
    A = F.bc1_algebra()
    W = D.rigid_of_rank(q, [1, 1], seed=0)
    assert R.is_isomorphic(W, R.projective(A, 1))[0]
    W2 = D.rigid_of_rank(q, [2, 6], seed=0)
    pieces = D.rigid_of_rank(q, [1, 3], seed=0)
    assert R.is_isomorphic(W2, R.direct_sum(pieces, pieces))[0]
    assert R.is_isomorphic(pieces, F.bc1_preinjective(2, 1))[0]


def test_rigid_sample_has_no_self_extensions():
    q = catalog_affine("C", 2)
    W = D.rigid_of_rank(q, [1, 1, 1], seed=0)
    assert R.ext1_dim(W, W) == 0


def test_generic_module_report():
    q = catalog_affine("BC1")
    rep = D.generic_decomposition_report(q, [3, 6], seed=0)
    assert rep["m"] == 3
    assert rep["w"] == [0, 0]
    ev = rep["module_evidence"]
    assert ev["eta_bricks"] == 3
    for part in ev["summands"]:
        assert part["ext_self"] == 0 or part["rank"] is not None


def test_generic_module_report_mixed():
    q = catalog_affine("C", 2)
    rep = D.generic_decomposition_report(q, [1, 3, 1], seed=0)
    assert rep["m"] == 1
    assert rep["w"] == [0, 1, 0]
    assert rep["module_evidence"]["eta_bricks"] == 1


@pytest.mark.parametrize(
    "summands",
    [
        [([1, 0, 0, 0, 1], 1)],
        [
            ([1, 0, 0, 0, 1], 1),
            ([0, 1, 0, 0, 1], 1),
            ([0, 0, 1, 0, 1], 1),
            ([0, 0, 0, 1, 1], 2),
        ],
    ],
    ids=["missing orbit members", "uneven multiplicities"],
)
def test_rotation_variant_summands_are_refused(monkeypatch, summands):
    """The BC1 cover is D4~ with the rotation (1 2 3 0 4); a summand
    multiset it moves does not fold."""
    unfolded = {"summands": summands}
    monkeypatch.setattr(D, "kac_decomposition_unfolded", lambda *a, **k: unfolded)
    with pytest.raises(D.CertificationError, match="not rotation invariant"):
        D.folded_decomposition(catalog_affine("BC1"), [1, 2])


def test_is_multiple_helper():
    assert D._is_multiple([2, 4], [1, 2]) == 2
    assert D._is_multiple([0, 0], [1, 2]) == 0
    assert D._is_multiple([2, 3], [1, 2]) == 0
    assert D._is_multiple([3, 0], [1, 0]) == 3


def _sampled_summands(cover, d, seed=0):
    """Reference: the summands of a random representation of dimension d
    over F_101, split by Krull-Schmidt, with a summand of dimension
    k*eta_bar counted as k copies of eta_bar (over a finite field the
    homogeneous part splits by closed points of the parameter line)."""
    eta_bar = cover.null_root()
    V = R.random_locally_free(gls_presentation(cover), list(d), seed=seed, p=101)
    counts = {}
    for part in R.krull_schmidt(V, seed=seed):
        k = D._is_multiple(part.dims, eta_bar)
        key, n = (tuple(eta_bar), k) if k else (tuple(part.dims), 1)
        counts[key] = counts.get(key, 0) + n
    return [(list(dv), mult) for dv, mult in sorted(counts.items())]


def _suite_vectors(seed):
    """The random C2 rank vectors of the decomposition suite."""
    rng = random.Random(split_seed(seed, "decomposition:random"))
    return [[rng.randrange(0, 9) for _ in range(3)] for _ in range(30)]


@pytest.mark.parametrize(
    "family, rank, vectors",
    [
        ("BC1", None, [[2, 4], [3, 5], [2, 2], [2, 6], [3, 6]]),
        ("C", 2, [[1, 3, 1]]),
        ("C", 2, _suite_vectors(0)),
        ("C", 2, _suite_vectors(7)),
    ],
    ids=["BC1 oracles", "C2", "C2 suite seed 0", "C2 suite seed 7"],
)
def test_exact_summands_match_the_sampler(family, rank, vectors):
    q = catalog_affine(family, rank)
    cover, vertex_list = unfold(q)
    for v in vectors:
        d = unfold_class(q, v, vertex_list)
        exact = D.kac_decomposition_unfolded(cover, d)["summands"]
        assert exact == _sampled_summands(cover, d), v


def _path_counts(quiver, x):
    """dim P_x: the number of paths from x to each vertex, arrows counted
    with their multiplicity."""
    dims = quiver.simple_root(x)
    for y in reversed(quiver.topological_order()):
        for s, t, m, _ in quiver.edges:
            if s == y:
                dims[t] += m * dims[y]
    return dims


@pytest.mark.parametrize("family, rank", [("BC1", None), ("C", 2), ("E8", None), ("BC", 4)])
def test_indecomposable_classes_decompose_as_themselves(family, rank):
    """Phi^-k P_x, Phi^k I_x for k <= 2h, every quasi-simple, and j*eta_bar."""
    cover, _ = unfold(catalog_affine(family, rank))
    tubes = cover.tubes()["tubes"]
    h = math.lcm(*(tube["rank"] for tube in tubes))
    order = cover.topological_order()
    phi = cover.coxeter_transformation()
    classes = [list(q) for tube in tubes for q in tube["quasi_simples"]]
    for x in range(cover.n):
        p, i = _path_counts(cover, x), _path_counts(cover.opposite(), x)
        for _ in range(2 * h + 1):
            classes += [p, i]
            for y in reversed(order):
                p = cover.reflect(y, p)
            i = cover.coxeter_apply(i, phi)
    for dims in classes:
        assert D.kac_decomposition_unfolded(cover, dims) == {"summands": [(dims, 1)]}
    eta_bar = cover.null_root()
    for j in range(1, 4):
        assert D.kac_decomposition_unfolded(cover, [j * e for e in eta_bar]) == {
            "summands": [(eta_bar, j)]
        }


@pytest.mark.parametrize(
    "family, rank", CATALOG_REPRESENTATIVES, ids=[f"{f}{r or ''}" for f, r in CATALOG_REPRESENTATIVES]
)
def test_exact_summands_are_a_canonical_decomposition(family, rank):
    """The summands add up to d, each is eta_bar or a positive real root,
    distinct summands have no generic extension (nonnegative Euler form),
    and the split folds back."""
    q = catalog_affine(family, rank)
    cover, _ = unfold(q)
    eta_bar = cover.null_root()
    rng = random.Random(f"canonical:{family}:{rank}")
    for _ in range(4):
        d = [rng.randrange(0, 6) for _ in range(cover.n)]
        summands = D.kac_decomposition_unfolded(cover, d)["summands"]
        total = [sum(m * b[k] for b, m in summands) for k in range(cover.n)]
        assert total == d
        for b, _ in summands:
            assert b == eta_bar or cover.is_positive_real_root(b), (d, b)
        for a, _ in summands:
            for b, _ in summands:
                assert a == b or cover.ringel_form(a, b) >= 0, (d, a, b)
        D.folded_decomposition(q, [rng.randrange(0, 6) for _ in range(q.n)])


def test_coxeter_power_moves_along_the_null_root():
    """The peel's round count rests on Phi^h - id = c * defect * eta_bar with
    one nonzero integer c on every catalog cover, h the lcm of the tube
    ranks."""
    for family, rank in CATALOG_REPRESENTATIVES:
        cover, _ = unfold(catalog_affine(family, rank))
        eta_bar = cover.null_root()
        h = math.lcm(*(tube["rank"] for tube in cover.tubes()["tubes"]))
        phi = cover.coxeter_transformation()
        steps = []
        for x in range(cover.n):
            e = cover.simple_root(x)
            v = e
            for _ in range(h):
                v = cover.coxeter_apply(v, phi)
            steps.append(([a - b for a, b in zip(v, e)], cover.defect(e)))
        step, defect = next((s, dx) for s, dx in steps if dx)
        c = step[0] // (defect * eta_bar[0])
        assert c != 0, (family, rank)
        for step, defect in steps:
            assert step == [c * defect * e for e in eta_bar], (family, rank)
