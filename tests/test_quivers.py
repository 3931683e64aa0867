import math
import random

import pytest

from glsw.algebra import unfold
from glsw.families import bc1_root
from glsw.quivers import CATALOG_FAMILIES, ValuedQuiver, catalog_affine
from glsw.suites import CATALOG_REPRESENTATIVES

REPRESENTATIVE = [
    ("A1", None),
    ("A", 3),
    ("B", 2),
    ("B", 4),
    ("C", 2),
    ("C", 5),
    ("D", 4),
    ("D", 6),
    ("BC1", None),
    ("BC", 2),
    ("BC", 4),
    ("BD", 3),
    ("BD", 5),
    ("CD", 3),
    ("CD", 5),
    ("E6", None),
    ("E7", None),
    ("E8", None),
    ("F41", None),
    ("F42", None),
    ("G21", None),
    ("G23", None),
]


def all_catalog():
    return [catalog_affine(f, r) for f, r in REPRESENTATIVE]


def test_symmetrizer_law_enforced():
    with pytest.raises(ValueError):
        ValuedQuiver(2, [(0, 1, 2, 1)], (1, 1))
    ValuedQuiver(2, [(0, 1, 2, 1)], (1, 2))  # fine


def test_no_loops_or_cycles():
    with pytest.raises(ValueError):
        ValuedQuiver(1, [(0, 0, 1, 1)], (1,))
    with pytest.raises(ValueError):
        ValuedQuiver(3, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, 1)], (1, 1, 1))


def test_catalog_null_roots_match_stored():
    for q in all_catalog():
        assert tuple(q.null_root()) == q.catalog_null_root


def test_null_root_examples():
    assert catalog_affine("BC1").null_root() == [1, 2]
    assert catalog_affine("C", 2).null_root() == [1, 2, 1]
    assert max(catalog_affine("E8").null_root()) == 6


def test_null_root_is_radical_isotropic_homogeneous():
    for q in all_catalog():
        eta = q.null_root()
        assert q.tits_form(eta) == 0
        for i in range(q.n):
            assert q.symmetrized_form(eta, q.simple_root(i)) == 0
        assert q.coxeter_apply(eta) == eta


def test_ringel_form_bc1():
    q = catalog_affine("BC1")
    v = [1, 2]
    assert q.ringel_form(v, v) == 0
    # the closed form 4*v0*w0 + v1*w1 - 4*v1*w0
    rng = random.Random(0)
    for _ in range(30):
        v = [rng.randrange(-5, 6) for _ in range(2)]
        w = [rng.randrange(-5, 6) for _ in range(2)]
        assert q.ringel_form(v, w) == 4 * v[0] * w[0] + v[1] * w[1] - 4 * v[1] * w[0]
    assert q.tits_form([3, 5]) == 1


def test_diagonal_of_form_is_symmetrizer():
    for q in all_catalog():
        for i in range(q.n):
            a = q.simple_root(i)
            assert q.ringel_form(a, a) == q.c[i]


def test_coxeter_bc1():
    assert catalog_affine("BC1").coxeter_transformation() == [[-1, 1], [-4, 3]]


def test_coxeter_order_independent():
    for q in all_catalog():
        orders = q.admissible_orderings(limit=3)
        mats = [q.coxeter_transformation(o) for o in orders]
        assert all(m == mats[0] for m in mats)


def test_coxeter_a1_translation():
    q = catalog_affine("A1")
    phi = q.coxeter_transformation()
    eta = q.null_root()
    rng = random.Random(1)
    for _ in range(10):
        v = [rng.randrange(-4, 5) for _ in range(2)]
        w = q.coxeter_apply(q.coxeter_apply(v, phi), phi)
        diff = [a - b for a, b in zip(w, v)]
        assert diff[0] * eta[1] == diff[1] * eta[0]
        assert diff[0] % eta[0] == 0


def test_reflection_preserves_form():
    rng = random.Random(2)
    for q in all_catalog():
        for _ in range(20):
            v = [rng.randrange(-5, 6) for _ in range(q.n)]
            for i in range(q.n):
                assert q.tits_form(q.reflect(i, v)) == q.tits_form(v)


def test_symmetrized_form_symmetric():
    rng = random.Random(3)
    for q in all_catalog():
        for _ in range(20):
            v = [rng.randrange(-5, 6) for _ in range(q.n)]
            w = [rng.randrange(-5, 6) for _ in range(q.n)]
            assert q.symmetrized_form(v, w) == q.symmetrized_form(w, v)


def test_defect_bc1():
    q = catalog_affine("BC1")
    assert q.defect([1, 0]) == -4
    assert q.defect(q.null_root()) == 0
    # on dimension vectors d = D*v the defect functional is (-1, 2)
    rng = random.Random(4)
    for _ in range(20):
        v = [rng.randrange(6) for _ in range(2)]
        d = [q.c[i] * v[i] for i in range(2)]
        assert q.defect(v) == -d[0] + 2 * d[1]


def test_positive_real_roots_bc1():
    q = catalog_affine("BC1")
    assert q.is_positive_real_root([2, 3])
    assert not q.is_positive_real_root([2, 2])
    for i in range(2):
        assert q.is_positive_real_root(q.simple_root(i))
    assert not q.is_positive_real_root([1, 2])  # the null root
    assert not q.is_positive_real_root([0, 0])


def test_real_roots_far_up_the_series_are_recognized():
    """tau^{-6000} P_1 of BC1 has rank [12001, 24000]: about 12,000
    reflections bring it down to a simple root."""
    q = catalog_affine("BC1")
    assert q.is_positive_real_root(bc1_root("p", 1, 6000))
    assert q.is_positive_real_root(bc1_root("q", 2, 6000))
    assert not q.is_positive_real_root([6000, 12000])  # 6000 * eta


def test_simples_are_roots_everywhere():
    for q in all_catalog():
        for i in range(q.n):
            assert q.is_positive_real_root(q.simple_root(i))


def test_tubes_tiers():
    assert catalog_affine("C", 2).tubes()["tier"] == 1
    assert catalog_affine("G23").tubes()["tier"] == 3
    b2 = catalog_affine("B", 2).tubes()
    assert b2["tier"] == 2
    eta = b2["null_root"]
    for tube in b2["tubes"]:
        total = [sum(col) for col in zip(*tube["quasi_simples"])]
        assert total == [tube["tier"] * e for e in eta]


def test_tube_quasi_simples_are_regular_roots():
    for fam, rank in [("C", 2), ("B", 2), ("G23", None), ("G21", None), ("D", 4)]:
        q = catalog_affine(fam, rank)
        data = q.tubes()
        phi = q.coxeter_transformation()
        for tube in data["tubes"]:
            orbit = tube["quasi_simples"]
            for v in orbit:
                assert q.is_positive_real_root(list(v))
                assert q.defect(list(v)) == 0
            # the Coxeter transformation cycles the orbit with full period
            v = orbit[0]
            seen = [v]
            w = tuple(q.coxeter_apply(list(v), phi))
            while w != v:
                seen.append(w)
                w = tuple(q.coxeter_apply(list(w), phi))
            assert len(seen) == tube["rank"]
            assert set(seen) == set(orbit)


def _reference_quasi_simples(q):
    """The minimal regular roots of the 3*eta box under a <=_Phi b, meaning
    Phi^k a <= Phi^k b for every k up to the lcm of the orbit lengths, with
    each Phi^k computed by applying the Coxeter matrix again."""
    eta = q.null_root()
    cap = 3 * sum(ci * ei for ci, ei in zip(q.c, eta))
    regular = [
        v
        for v in q.positive_real_roots_bounded(cap)
        if q.ringel_form(eta, list(v)) == 0 and all(a <= 3 * e for a, e in zip(v, eta))
    ]
    phi = q.coxeter_transformation()
    period = 1
    for v in regular:
        length, w = 1, tuple(q.coxeter_apply(list(v), phi))
        while w != v:
            length, w = length + 1, tuple(q.coxeter_apply(list(w), phi))
        period = math.lcm(period, length)

    def leq_phi(a, b):
        x, y = list(a), list(b)
        for _ in range(period):
            if any(p > q for p, q in zip(x, y)):
                return False
            x = q.coxeter_apply(x, phi)
            y = q.coxeter_apply(y, phi)
        return True

    return {v for v in regular if not any(w != v and leq_phi(w, v) for w in regular)}


@pytest.mark.parametrize("fam, rank", CATALOG_REPRESENTATIVES)
def test_tubes_match_the_coxeter_order_recomputed(fam, rank):
    """``tubes`` compares the traced orbits; the reference reapplies Phi."""
    q = catalog_affine(fam, rank)
    for quiver in (q, unfold(q)[0]):
        found = {v for tube in quiver.tubes()["tubes"] for v in tube["quasi_simples"]}
        assert found == _reference_quasi_simples(quiver)


def test_tubes_bc1_empty_but_flagged():
    data = catalog_affine("BC1").tubes()
    assert data["tubes"] == []
    assert data["tier"] is None
    assert data["catalog_tier"] == 2
    assert data["tier_agrees"] is False


def test_at_most_three_tubes():
    for q in all_catalog():
        assert len(q.tubes()["tubes"]) <= 3


def test_extending_data_bc1():
    d = catalog_affine("BC1").extending_data()
    assert d["c"] == (4, 1)
    assert d["valuation"] == (1, 4)
    assert d["eta_reduced"] == [0, 1]


def test_extending_data_e8_kronecker():
    d = catalog_affine("E8").extending_data()
    assert d["c"] == (1, 1)
    assert d["valuation"] == (2, 2)


def test_extending_data_g21():
    d = catalog_affine("G21").extending_data()
    assert d["c"] == (3, 3)
    assert d["valuation"] == (2, 2)


def test_extending_data_reduced_root_is_real():
    for q in all_catalog():
        if q.family == "A":
            continue
        d = q.extending_data()
        assert q.is_positive_real_root(d["eta_reduced"])
        c0, c1 = d["c"]
        v01, v10 = d["valuation"]
        assert c0 * v01 == c1 * v10


def test_extending_data_rejects_cyclic():
    with pytest.raises(ValueError):
        catalog_affine("A", 3).extending_data()


def test_json_roundtrip():
    for q in all_catalog():
        q2 = ValuedQuiver.from_json(q.to_json())
        assert q2.n == q.n and q2.edges == q.edges and q2.c == q.c


def test_unknown_family():
    with pytest.raises(ValueError):
        catalog_affine("Z9")
    with pytest.raises(ValueError):
        catalog_affine("D", 3)


def test_orientation_override():
    q = catalog_affine("C", 2, orientation=[(0, 1), (1, 2)])
    assert (0, 1, 1, 2) in q.edges and (1, 2, 2, 1) in q.edges
    assert q.null_root() == [1, 2, 1]
