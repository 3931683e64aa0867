import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsw.algebra import BoundQuiverAlgebra, Gen
from glsw.exact import Echelon, Mat, rank
from glsw.quivers import catalog_affine
from glsw import families as F, reps as R, stability as S


def test_defect_weight_coordinates():
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    assert theta.coords == [Fraction(-1), Fraction(2)]
    assert theta.provenance == "defect"
    # vanishes on the dimension vector of any rank-eta locally free module
    eta = q.null_root()
    assert theta.value([c * e for c, e in zip(q.c, eta)]) == 0


def test_weight_is_linear():
    q = catalog_affine("C", 2)
    theta = S.weight_from_lf_class(q, [1, 0, 2])
    a, b = [1, 2, 3], [2, 0, 1]
    assert theta.value([x + y for x, y in zip(a, b)]) == theta.value(a) + theta.value(b)


def test_weight_matches_form_on_unit_vectors():
    q = catalog_affine("G21")
    w = [1, 1, 0]
    theta = S.weight_from_lf_class(q, w)
    for i in range(q.n):
        e = [0] * q.n
        e[i] = 1
        assert theta.value(e) * q.c[i] == q.ringel_form(w, e)


def test_uniserial_module_has_chain_lattice():
    V = R.generalized_simple(F.bc1_algebra(), 0, p=2)
    lattice = S.submodules(V)
    assert lattice.complete
    assert len(lattice) == 5
    dims = sorted(lattice.dims(m)[0] for m in lattice.members)
    assert dims == [0, 1, 2, 3, 4]


def test_submodules_requires_prime_field():
    with pytest.raises(ValueError):
        S.submodules(F.bc1_Vbar())


def test_dimension_cap_is_enforced():
    V = R.direct_sum(F.bc1_V(1, 1, 3), F.bc1_Vbar(3))  # total dimension 9
    with pytest.raises(ValueError):
        S.submodules(V)


def test_dimension_cap_reports_unknown():
    verdict = S.is_stable(
        F.bc1_V(1, 1, 3), S.defect_weight(catalog_affine("BC1")), {"dim_cap": 3}
    )
    assert verdict["verdict"] == "unknown (cap)"
    assert "exceeds cap 3" in verdict["reason"]


def test_enumeration_cap_reports_unknown():
    verdict = S.is_stable(
        F.bc1_Vbar(3), S.defect_weight(catalog_affine("BC1")), {"enum_cap": 3}
    )
    assert verdict["verdict"] == "unknown (cap)"


def test_boundary_module_is_stable():
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    verdict = S.is_stable(F.bc1_Vbar(), theta)
    assert verdict["verdict"] is True
    assert verdict["label"] == "finite-field certified"
    assert verdict["fields"] == [3, 5, 7]


def test_family_members_are_stable():
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    for pt in [(1, 1), (2, 1)]:
        verdict = S.is_stable(F.bc1_V(*pt), theta)
        assert verdict["verdict"] is True, (pt, verdict)


def test_degenerate_member_is_strictly_semistable():
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    V = F.bc1_V(1, 0)
    assert S.is_semistable(V, theta)["verdict"] is True
    verdict = S.is_stable(V, theta)
    assert verdict["verdict"] is False
    witness = verdict["per_field"][3]["witness"]
    assert witness["dims"] == [2, 1]
    assert Fraction(witness["value"]) == 0


def test_witness_spans_a_genuine_submodule():
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    verdict = S.is_stable(F.bc1_V(1, 0), theta)
    for p in verdict["fields"]:
        witness = verdict["per_field"][p]["witness"]
        V3 = S._reduce_rep(F.bc1_V(1, 0), p)
        for i, rows in enumerate(witness["bases"]):
            assert len(rows) == witness["dims"][i]
        # spinning any witness vector stays inside the witness dimensions
        for i, rows in enumerate(witness["bases"]):
            for row in rows:
                element = [[0] * d for d in V3.dims]
                element[i] = list(row)
                spun = S._spin(V3, element)
                for j, sub in enumerate(spun):
                    assert len(sub) <= witness["dims"][j]


def test_projective_fails_candidacy():
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    verdict = S.is_semistable(R.projective(F.bc1_algebra(), 0, p=3), theta)
    assert verdict["verdict"] is False
    assert "nonzero" in verdict["reason"]


def test_stable_implies_semistable():
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    for V in [F.bc1_Vbar(3), F.bc1_V(1, 1, 3), F.bc1_V(1, 0, 3)]:
        if S.is_stable(V, theta)["verdict"] is True:
            assert S.is_semistable(V, theta)["verdict"] is True


def _all_small_reps(p=3):
    """Every valid representation with dimension vector (2, 1) over F_p."""
    A = F.bc1_algebra()
    nilpotents = []
    for entries in range(p**4):
        e, rest = [], entries
        for _ in range(4):
            e.append(rest % p)
            rest //= p
        m = Mat.from_rows([[e[0], e[1]], [e[2], e[3]]], p)
        if (m * m).is_zero():
            nilpotents.append(m)
    for eps in nilpotents:
        for a in range(p):
            for b in range(p):
                alpha = Mat.from_rows([[a], [b]], p)
                V = R.Rep(A, [2, 1], {0: alpha, 1: eps}, p)
                if not R.validate(V):
                    yield V


def _lattice_from_all_vectors(V):
    """Reference lattice: the spins of every projectivized vector of the
    whole module, closed under sums."""
    p, total = V.p, V.total_dim()
    members = {tuple(() for _ in V.dims)}
    for flat in itertools.product(range(p), repeat=total):
        if next((x for x in flat if x), None) != 1:
            continue
        element, pos = [], 0
        for d in V.dims:
            element.append(list(flat[pos : pos + d]))
            pos += d
        members.add(S._spin(V, element))
    frontier = list(members)
    while frontier:
        new = {S._join(V, a, b) for a in frontier for b in members} - members
        members |= new
        frontier = list(new)
    return sorted(members)


def _subspace_count(p, d):
    """Number of subspaces of F_p^d."""
    count = 0
    for k in range(d + 1):
        num = den = 1
        for j in range(k):
            num *= p ** (d - j) - 1
            den *= p ** (j + 1) - 1
        count += num // den
    return count


@st.composite
def path_algebra_modules(draw):
    """Modules of total dimension at most 6 over a random acyclic quiver
    without relations, so that every choice of matrices is a module."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    gens = []
    # arrows run forward along a random vertex order, so the quiver is acyclic
    for s, t in itertools.combinations(draw(st.permutations(range(n))), 2):
        for _ in range(draw(st.integers(0, 2))):
            gens.append(Gen(f"a{len(gens)}", s, t, False, None, len(gens)))
    A = BoundQuiverAlgebra(n, gens, [])
    # the sum closure is quadratic in the lattice size, which is at most the
    # product of the per-vertex subspace counts
    dims = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
            lambda d: sum(d) <= 6
            and math.prod(_subspace_count(p, x) for x in d) <= 100
        )
    )
    mats = {}
    for gid, g in enumerate(gens):
        size = dims[g.tgt] * dims[g.src]
        data = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
        mats[gid] = Mat(dims[g.tgt], dims[g.src], data, p)
    return R.Rep(A, dims, mats, p)


@functools.cache
def _small_reps(p):
    return list(_all_small_reps(p))


@st.composite
def bc1_modules(draw):
    """BC1 modules of total dimension at most 6: family members at random
    points, random locally free modules, every module of dimension (2, 1),
    and direct sums of small pieces."""
    p = draw(st.sampled_from([2, 3, 5]))
    A = F.bc1_algebra()
    kind = draw(st.sampled_from(["family", "locally free", "small", "sum"]))
    if kind == "family":
        l1, l2 = draw(
            st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(any)
        )
        return F.bc1_V(l1, l2, p)
    if kind == "locally free":
        r1 = draw(st.integers(0, 2))
        return R.random_locally_free(A, [1, r1], seed=draw(st.integers(0, 99)), p=p)
    if kind == "small":
        return draw(st.sampled_from(_small_reps(p)))
    pieces = [
        R.simple(A, 0, p),
        R.simple(A, 1, p),
        F.bc1_Vbar(p),
        R.generalized_simple(A, 0, p),
    ]
    V = draw(st.sampled_from(pieces))
    for W in draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=2)):
        if V.total_dim() + W.total_dim() <= 6:
            V = R.direct_sum(V, W)
    return V


@given(st.one_of(path_algebra_modules(), bc1_modules()))
@settings(max_examples=80, deadline=None)
def test_vertex_local_spins_give_the_whole_lattice(V):
    lattice = S.submodules(V)
    assert lattice.complete
    assert lattice.members == _lattice_from_all_vectors(V)


@pytest.mark.parametrize(
    "V, spins",
    [(F.bc1_V(1, 1, 3), 40 + 4), (F.bc1_Vbar(3), 4 + 1)],
    ids=["bc1_V(1,1)", "bc1_Vbar"],
)
def test_submodules_spins_vectors_at_one_vertex(monkeypatch, V, spins):
    calls = []
    spin = S._spin
    monkeypatch.setattr(S, "_spin", lambda V, e: calls.append(e) or spin(V, e))
    S.submodules(V)
    # sum over vertices of (p^dim V(i) - 1)/(p - 1), each vector at one vertex
    assert len(calls) == spins
    assert all(sum(any(vec) for vec in e) == 1 for e in calls)


@pytest.mark.parametrize(
    "V, size",
    [
        (R.direct_sum(*[R.simple(F.bc1_algebra(), 1, 3)] * 4), 212),
        (
            R.direct_sum(
                *[R.simple(F.bc1_algebra(), 0, 2)] * 3,
                *[R.simple(F.bc1_algebra(), 1, 2)] * 3,
            ),
            16 * 16,
        ),
    ],
    ids=["S1^4 over F3", "S0^3+S1^3 over F2"],
)
def test_sum_closure_joins_members_with_spins_only(monkeypatch, V, size):
    spins, joins = [], []
    spin, join = S._spin, S._join
    monkeypatch.setattr(S, "_spin", lambda V, e: spins.append(spin(V, e)) or spins[-1])
    monkeypatch.setattr(S, "_join", lambda V, a, b: joins.append(b) or join(V, a, b))
    lattice = S.submodules(V)
    assert len(lattice) == size
    # each member is joined with the distinct spins only, once
    assert set(joins) <= set(spins)
    assert len(joins) <= size * len(set(spins))


@pytest.mark.parametrize("p", [3, 5])
def test_stable_member_with_a_degenerate_reduction(p):
    """bc1_V(1, p) reduces mod p to the point at infinity, which is not
    stable; the other primes certify the rational module."""
    verdict = S.is_stable(F.bc1_V(1, p), S.defect_weight(catalog_affine("BC1")))
    assert verdict["per_field"][p]["verdict"] is False
    assert verdict["verdict"] is True


def test_uncertified_rational_instability_is_unknown():
    """A witness that only exists mod 3 gives no verdict on its own."""
    verdict = S.is_stable(
        F.bc1_V(1, 3), S.defect_weight(catalog_affine("BC1")), {"primes": (3,)}
    )
    assert verdict["per_field"][3]["verdict"] is False
    assert verdict["verdict"] == "unknown"


def test_witnesses_across_primes_reconstruct_a_rational_submodule():
    """After a base change at vertex 1 the destabilizing line is (1, -1/2):
    its witnesses (1, 1), (1, 2), (1, 3) mod 3, 5, 7 lift to no integer
    row on their own, but CRT and rational reconstruction recover it."""
    V = F.bc1_V(1, 0)
    B = Mat.from_rows([[1, 2], [0, 1]])
    W = R.Rep(V.algebra, V.dims, {0: V.mats[0] * B, 1: V.mats[1]})
    verdict = S.is_stable(W, S.defect_weight(catalog_affine("BC1")))
    assert [verdict["per_field"][p]["witness"]["bases"][1] for p in (3, 5, 7)] == [
        [[1, 1]], [[1, 2]], [[1, 3]]
    ]
    assert not any(
        S._witness_lifts(W, verdict["per_field"][p]["witness"], p) for p in (3, 5, 7)
    )
    assert verdict["verdict"] is False


def test_rational_lift():
    assert S._rational_lift([(3, 1), (5, 2), (7, 3)]) == Fraction(-1, 2)
    assert S._rational_lift([(3, 2)]) == -1
    with pytest.raises(ValueError):
        S._rational_lift([(5, 2)])  # 2 = 1/3 mod 5: too large for sqrt(5/2)


def test_prime_dividing_a_denominator_is_unknown():
    """(1/3 : 1) = (1 : 3) has no reduction mod 3; 5 and 7 certify it."""
    verdict = S.is_stable(
        F.bc1_V(Fraction(1, 3), 1), S.defect_weight(catalog_affine("BC1"))
    )
    assert verdict["per_field"][3] == {
        "verdict": "unknown",
        "reason": "denominator of 1/3 vanishes mod 3",
    }
    assert verdict["verdict"] is True


def _check_sub_and_quotient(V, spans):
    """``_subrep`` and ``_quotient_rep`` along generator-stable spans are
    modules of dimensions dim S and dim V - dim S, and the inclusion by the
    pivot rows and the projection onto the residue at the free positions
    commute with every generator."""
    sub, quo = R._subrep(V, spans), R._quotient_rep(V, spans)
    assert R.validate(sub) == [] and R.validate(quo) == []
    dims = [len(E.rows) for E in spans]
    assert sub.dims == dims
    assert quo.dims == [d - k for d, k in zip(V.dims, dims)]
    incl, proj = [], []
    for E, d in zip(spans, V.dims):
        basis = E.basis(d)
        incl.append(Mat(len(basis), d, [x for r in basis for x in r], V.p).transpose())
        free = [j for j in range(d) if j not in E.rows]
        residues = [E.reduce({j: 1}) for j in range(d)]
        data = [res.get(f, 0) for f in free for res in residues]
        proj.append(Mat(len(free), d, data, V.p))
    for gid, g in enumerate(V.algebra.gens):
        assert incl[g.tgt] * sub.mats[gid] == V.mats[gid] * incl[g.src]
        assert proj[g.tgt] * V.mats[gid] == quo.mats[gid] * proj[g.src]
    if V.p is None:
        entries = [x for W in (sub, quo) for m in W.mats.values() for x in m.data]
        assert all(
            type(x) is int or (type(x) is Fraction and x.denominator != 1)
            for x in entries
        )


@given(st.one_of(path_algebra_modules(), bc1_modules()))
@settings(max_examples=80, deadline=None)
def test_sub_and_quotient_along_every_submodule(V):
    for member in S.submodules(V).members:
        _check_sub_and_quotient(V, [Echelon(V.p, rows) for rows in member])


def test_subrep_refuses_a_span_that_is_not_generator_stable():
    # the loop of E_0 sends the first coordinate vector to the second
    V = R.generalized_simple(F.bc1_algebra(), 0, p=3)
    with pytest.raises(ValueError, match="not generator-stable"):
        R._subrep(V, [Echelon(3, [[1, 0, 0, 0]]), Echelon(3)])


def test_sub_and_quotient_along_a_lifted_witness():
    V = F.bc1_V(1, 0)
    verdict = S.is_stable(V, S.defect_weight(catalog_affine("BC1")))
    witness = verdict["per_field"][3]["witness"]
    assert S._witness_lifts(V, witness, 3)
    spans = [
        Echelon(None, [[x - 3 if 2 * x > 3 else x for x in row] for row in rows])
        for rows in witness["bases"]
    ]
    assert [len(E.rows) for E in spans] == witness["dims"]
    _check_sub_and_quotient(V, spans)


def test_exhaustive_sweep_identifies_the_boundary_module():
    """Over F_3 the only defect-stable representation class in dimension
    (2, 1) is the boundary module."""
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    target = F.bc1_Vbar(3)
    stable_count = 0
    for V in _all_small_reps(3):
        if S.is_stable(V, theta)["verdict"] is True:
            stable_count += 1
            assert R.is_isomorphic(V, target)[0]
            # the loop action on a stable class has the largest nilpotent rank
            assert rank(V.mats[1]) == 1
    assert stable_count > 0


def test_regular_rigid_check_accepts_quasi_simple():
    q = catalog_affine("C", 2)
    out = S.regular_tau_rigid_check(q, [0, 1, 0], seed=0)
    assert out["accepted"]
    assert out["semistable"] is True
    assert out["coxeter_period"] == 2


def test_regular_rigid_check_rejections():
    q = catalog_affine("C", 2)
    assert S.regular_tau_rigid_check(q, [0, 0, 0]) == {
        "accepted": False,
        "reason": "zero vector",
    }
    assert S.regular_tau_rigid_check(q, [1, 0, 0])["reason"] == "nonzero defect"
    assert (
        S.regular_tau_rigid_check(q, list(q.null_root()))["reason"]
        == "not a positive real root"
    )
