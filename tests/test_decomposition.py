import random

import pytest

from glsw.quivers import catalog_affine
from glsw import decomposition as D, families as F, reps as R


def test_split_of_null_multiples():
    q = catalog_affine("BC1")
    rep = D.folded_decomposition(q, [2, 4], seed=0)
    assert rep["m"] == 2
    assert rep["w"] == [0, 0]
    assert rep["summands"] == []


def test_split_of_rigid_vector():
    q = catalog_affine("BC1")
    rep = D.folded_decomposition(q, [3, 5], seed=0)
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
        rep = D.folded_decomposition(q, list(v), seed=0)
        assert rep["m"] == m, (v, rep)
        got = sorted((tuple(s["class"]), s["multiplicity"]) for s in rep["summands"])
        assert got == sorted(classes), (v, got)


def test_split_is_seed_independent():
    q = catalog_affine("C", 2)
    rng = random.Random("seed-independence")
    for _ in range(6):
        v = [rng.randrange(0, 4) for _ in range(q.n)]
        if not any(v):
            continue
        first = D.folded_decomposition(q, v, seed=11)
        second = D.folded_decomposition(q, v, seed=222)
        assert first["m"] == second["m"]
        assert first["w"] == second["w"]
        key = lambda rep: sorted(
            (tuple(s["class"]), s["multiplicity"]) for s in rep["summands"]
        )
        assert key(first) == key(second)


def test_split_consistency_with_roots():
    q = catalog_affine("C", 2)
    eta = q.null_root()
    rng = random.Random("root-consistency")
    for _ in range(6):
        v = [rng.randrange(0, 4) for _ in range(q.n)]
        if not any(v):
            continue
        rep = D.folded_decomposition(q, v, seed=7)
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
    unfolded = {"summands": summands, "seeds": [0, 1], "prime": D.GENERIC_PRIME}
    monkeypatch.setattr(D, "kac_decomposition_unfolded", lambda *a, **k: unfolded)
    with pytest.raises(D.CertificationError, match="not rotation invariant"):
        D.folded_decomposition(catalog_affine("BC1"), [1, 2])


def test_is_multiple_helper():
    assert D._is_multiple([2, 4], [1, 2]) == 2
    assert D._is_multiple([0, 0], [1, 2]) == 0
    assert D._is_multiple([2, 3], [1, 2]) == 0
    assert D._is_multiple([3, 0], [1, 0]) == 3
