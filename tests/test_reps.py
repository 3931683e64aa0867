import hashlib
import random
from fractions import Fraction

import pytest

from glsw.algebra import BoundQuiverAlgebra, Gen, gls_presentation, unfold
from glsw.exact import Echelon, Mat, kernel_basis, rank
from glsw.families import extending_algebra
from glsw.quivers import catalog_affine
from glsw import reps as R

ALG_CACHE = {}


def algebra(fam, rank=None):
    key = (fam, rank)
    if key not in ALG_CACHE:
        ALG_CACHE[key] = gls_presentation(catalog_affine(fam, rank))
    return ALG_CACHE[key]


def family_module(l1, l2, p=None):
    """The one-parameter family in rank (1, 2) over the rank-one algebra."""
    A = algebra("BC1")
    alpha = Mat.from_rows([[1, 0], [0, l2], [0, l1], [0, 0]], p)
    eps = Mat.from_rows(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], p
    )
    return R.Rep(A, [4, 2], {0: alpha, 1: eps}, p)


def boundary_module(p=None):
    """The small non-locally-free stable module in dimension (2, 1)."""
    A = algebra("BC1")
    alpha = Mat.from_rows([[1], [0]], p)
    eps = Mat.from_rows([[0, 0], [1, 0]], p)
    return R.Rep(A, [2, 1], {0: alpha, 1: eps}, p)


# -- constructors ------------------------------------------------------------


def test_projective_dimensions():
    A = algebra("BC1")
    assert R.projective(A, 0).dims == [4, 0]
    assert R.projective(A, 1).dims == [4, 1]


def test_injective_dimensions():
    A = algebra("BC1")
    assert R.injective(A, 0).dims == [4, 4]
    assert R.injective(A, 1).dims == [0, 1]
    # the opposite algebra is built once and knows its own opposite
    op = A.opposite()
    assert A.opposite() is op and op.opposite() is A


def test_fraction_structure_constants_reduce_mod_p():
    # Kronecker quiver x, y: 0 -> 1 bound by x - 2y, so y acts as x / 2
    gens = [Gen("x", 0, 1, False, None, 0), Gen("y", 0, 1, False, None, 1)]
    rel = [(Fraction(1), (0, (0,))), (Fraction(-2), (0, (1,)))]
    A = BoundQuiverAlgebra(2, gens, [rel])
    P = R.projective(A, 0, 5)
    assert R.validate(P) == []
    assert P.mats[1].data == [3]  # 1/2 = 3 mod 5
    assert R.validate(R.injective(A, 1, 5)) == []
    with pytest.raises(ZeroDivisionError):
        R.projective(A, 0, 2)


def test_standard_modules_satisfy_relations():
    for fam, rank in [("BC1", None), ("C", 2), ("G21", None)]:
        A = algebra(fam, rank)
        for i in range(A.n):
            assert R.validate(R.projective(A, i)) == []
            assert R.validate(R.injective(A, i)) == []
            assert R.validate(R.generalized_simple(A, i)) == []


def test_validate_catches_bad_loop():
    A = algebra("BC1")
    V = R.Rep(A, [4, 1], {1: Mat.identity(4)})
    assert ("nilpotency", "e0") in R.validate(V)


def test_validate_catches_broken_relation():
    A = algebra("G21")
    assert len(A.relations) == 1
    J3 = Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    D = Mat.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    mats = {}
    for gid, g in enumerate(A.gens):
        if g.is_loop:
            mats[gid] = J3
        elif g.src == 2:
            mats[gid] = D  # does not intertwine the two loops
    V = R.Rep(A, [1, 3, 3], mats)
    assert ("relation", 0) in R.validate(V)
    mats2 = dict(mats)
    arrow = next(k for k, g in enumerate(A.gens) if not g.is_loop and g.src == 2)
    mats2[arrow] = Mat.identity(3)
    assert R.validate(R.Rep(A, [1, 3, 3], mats2)) == []


def test_locally_free_detection():
    A = algebra("BC1")
    ok, r = R.is_locally_free(R.projective(A, 1))
    assert ok and r == [1, 1]
    ok, r = R.is_locally_free(boundary_module())
    assert not ok and r is None
    ok, r = R.is_locally_free(family_module(3, 1))
    assert ok and r == [1, 2]


def test_generalized_simple_is_locally_free_rank_one():
    for fam, rank in [("BC1", None), ("C", 2), ("G23", None)]:
        A = algebra(fam, rank)
        for i in range(A.n):
            ok, r = R.is_locally_free(R.generalized_simple(A, i))
            assert ok
            assert r == [1 if j == i else 0 for j in range(A.n)]


# -- Hom and Ext -------------------------------------------------------------


def test_hom_from_projective_is_vertex_dimension():
    rng = random.Random(1)
    for fam, rank, rmax in [("BC1", None, 3), ("C", 2, 2)]:
        A = algebra(fam, rank)
        projs = [R.projective(A, i) for i in range(A.n)]
        for t in range(3):
            V = R.random_locally_free(
                A, [rng.randrange(1, rmax) for _ in range(A.n)], seed=t
            )
            for i in range(A.n):
                assert R.hom_dim(projs[i], V) == V.dims[i]


def test_hom_to_injective_is_vertex_dimension():
    A = algebra("BC1")
    injs = [R.injective(A, i) for i in range(A.n)]
    for t in range(3):
        V = R.random_locally_free(A, [1 + t % 2, 1 + t], seed=40 + t)
        for i in range(A.n):
            assert R.hom_dim(V, injs[i]) == V.dims[i]


def test_euler_form_agreement():
    rng = random.Random(7)
    pairs = 0
    for fam, rank, rmax in [("BC1", None, 3), ("C", 2, 2)]:
        A = algebra(fam, rank)
        while pairs < (15 if fam == "BC1" else 25):
            V = R.random_locally_free(
                A, [rng.randrange(1, rmax) for _ in range(A.n)], seed=pairs
            )
            U = R.random_locally_free(
                A, [rng.randrange(1, rmax) for _ in range(A.n)], seed=1000 + pairs
            )
            assert R.ext1_dim(V, U) == R.ext1_dim(V, U, method="euler")
            pairs += 1


def test_euler_form_agreement_prime_field():
    A = algebra("BC1")
    for t in range(5):
        V = R.random_locally_free(A, [1, 2], seed=t, p=5)
        U = R.random_locally_free(A, [2, 1], seed=90 + t, p=5)
        assert R.ext1_dim(V, U) == R.ext1_dim(V, U, method="euler")


def test_euler_shortcut_rejects_non_locally_free():
    with pytest.raises(ValueError):
        R.ext1_dim(boundary_module(), boundary_module(), method="euler")


def test_no_self_extensions_of_projectives():
    A = algebra("C", 2)
    for i in range(A.n):
        P = R.projective(A, i)
        assert R.ext1_dim(P, P) == 0


# -- minimal presentations and g-vectors -------------------------------------


def test_g_vectors_of_standard_modules():
    A = algebra("BC1")
    assert R.g_vector(R.projective(A, 0)) == [1, 0]
    assert R.g_vector(R.projective(A, 1)) == [0, 1]
    assert R.g_vector(R.injective(A, 1)) == [-1, 1]
    assert R.g_vector(family_module(2, 1)) == [-1, 2]
    assert R.g_vector(boundary_module()) == [-1, 1]


def test_presentation_g_additive_on_sums():
    A = algebra("BC1")
    V = family_module(3, 1)
    W = R.projective(A, 1)
    gs = R.g_vector(R.direct_sum(V, W))
    assert gs == [a + b for a, b in zip(R.g_vector(V), R.g_vector(W))]


def _extending(fam, rank=None):
    return extending_algebra(catalog_affine(fam, rank).extending_data()).algebra


def _presented_modules(p):
    """BC1 projectives, injectives and tau^- of projectives, a C2 locally free
    module, a module over the cover of BC1, and locally free modules over the
    "triple" extending algebra of G21, whose projectives have columns with
    two nonzeros."""
    A = algebra("BC1")
    cover, _ = unfold(catalog_affine("BC1"))
    mods = [R.projective(A, i, p) for i in range(A.n)]
    mods += [R.injective(A, i, p) for i in range(A.n)]
    mods += [R.ar_inverse(R.projective(A, i, p)) for i in range(A.n)]
    mods.append(R.random_locally_free(algebra("C", 2), [1, 2, 1], seed=3, p=p))
    mods.append(
        R.random_locally_free(gls_presentation(cover), cover.null_root(), seed=5, p=p)
    )
    triple = _extending("G21")
    mods += [R.random_locally_free(triple, r, seed=3, p=p) for r in ([1, 1], [2, 1])]
    return mods


def _span_rank(P, vectors_at):
    """Per-vertex rank of the images P(g) x of the vectors x at the source of
    each generator g; for the basis of a submodule, the dimension of its
    radical."""
    out = []
    for v in range(P.algebra.n):
        cols = []
        for gid, g in enumerate(P.algebra.gens):
            if g.tgt == v and vectors_at[g.src]:
                X = Mat.from_rows(vectors_at[g.src], P.p).transpose()
                cols += (P.mats[gid] * X).transpose().rowlist()
        out.append(rank(Mat.from_rows(cols, P.p)) if cols else 0)
    return out


def _generated_dims(P, gens):
    """Per-vertex dimensions of the submodule of P generated by the
    (vertex, vector) pairs ``gens``."""
    spans = [Echelon(P.p) for _ in P.dims]
    queue = [(v, vec) for v, vec in gens if spans[v].insert(vec)]
    while queue:
        v, vec = queue.pop()
        for gid, g in enumerate(P.algebra.gens):
            if g.src == v:
                img = P.mats[gid].matvec(vec)
                if spans[g.tgt].insert(img):
                    queue.append((g.tgt, img))
    return [len(E.rows) for E in spans]


@pytest.mark.parametrize("p", [None, 101])
def test_minimal_presentation_is_minimal(p):
    for V in _presented_modules(p):
        A = V.algebra
        pres = R.minimal_presentation(V)
        top = R._top_generators(V)
        assert pres.proj0 == [b for b, _ in top]
        units = [[[int(i == j) for j in range(d)] for i in range(d)] for d in V.dims]
        rad_V = _span_rank(V, units)
        assert [pres.proj0.count(v) for v in range(A.n)] == [
            d - r for d, r in zip(V.dims, rad_V)
        ]
        cover = R._cover_matrices(V, top)
        # the cover map P0 -> V is onto at every vertex
        assert [rank(M) for M in cover] == V.dims
        P0 = R.direct_sum(R.zero_rep(A, p), *(R.projective(A, b, p) for b in pres.proj0))
        kernel = [kernel_basis(M) for M in cover]
        gens = []
        for a, row in zip(pres.proj1, pres.psi):
            vec = [
                entry.get(q, 0)
                for b, entry in zip(pres.proj0, row)
                for q in A.corner_basis(b, a)
            ]
            # each P1 generator lies in K = ker(P0 -> V)
            assert not any(cover[a].matvec(vec))
            gens.append((a, vec))
        # the generators span K as a submodule of P0 ...
        assert _generated_dims(P0, gens) == [len(k) for k in kernel]
        # ... and at each vertex there are dim K/rad K of them, so none is redundant
        top_K = [len(k) - r for k, r in zip(kernel, _span_rank(P0, kernel))]
        assert [pres.proj1.count(v) for v in range(A.n)] == top_K
        assert len(pres.proj1) == sum(top_K)


def _dense_kernel_top(V, proj0, cover):
    """``_kernel_top`` with dense kernels of the cover matrices and each image
    P0(g)k a dense ``matvec`` per block: the reference for the sparse one."""
    A = V.algebra
    projs = {b: R.projective(A, b, V.p) for b in set(proj0)}
    kbasis = [kernel_basis(M) for M in cover]
    out = []
    for v in range(A.n):
        span = Echelon(V.p)
        for gid, g in enumerate(A.gens):
            if g.tgt != v:
                continue
            blocks = [projs[b].mats[gid] for b in proj0]
            for k in kbasis[g.src]:
                img = []
                pos = 0
                for m in blocks:
                    img += m.matvec(k[pos : pos + m.cols])
                    pos += m.cols
                span.insert(img)
        kept = [k for k in reversed(kbasis[v]) if span.insert(k)]
        out.extend((v, k) for k in reversed(kept))
    return out


@pytest.mark.parametrize("fam, rank", [("B", 2), ("C", 2), ("G21", None), ("BC1", None)])
def test_minimal_presentation_matches_the_dense_reference(fam, rank, monkeypatch):
    A = _extending(fam, rank)
    mods = []
    for p in (None, 101):
        samples = [R.random_locally_free(A, r, seed=3, p=p) for r in ([1, 1], [2, 1])]
        # over "triple", tau S_1 comes out wrong if a column of P0(g) is
        # applied by its first nonzero only
        samples += [R.simple(A, i, p) for i in range(A.n)]
        for V in samples:
            mods += [V, R.ar_translate(V), R.ar_inverse(V)]
    sparse = [R.minimal_presentation(V) for V in mods]
    monkeypatch.setattr(R, "_kernel_top", _dense_kernel_top)
    for V, pres in zip(mods, sparse):
        ref = R.minimal_presentation(V)
        assert (pres.proj0, pres.proj1, pres.injective) == (
            ref.proj0,
            ref.proj1,
            ref.injective,
        )
        # repr also compares entry types and the order of the psi entries
        assert repr(pres.psi) == repr(ref.psi)


def test_g_vector_pairing_identity():
    """<g(V), dims U> = dim Hom(V, U) - dim Hom(U, tau V)."""
    rng = random.Random(3)
    A = algebra("BC1")
    for t in range(4):
        V = R.random_locally_free(A, [rng.randrange(1, 3), rng.randrange(1, 3)], seed=t)
        U = R.random_locally_free(
            A, [rng.randrange(1, 3), rng.randrange(1, 3)], seed=70 + t
        )
        g = R.g_vector(V)
        lhs = sum(gi * di for gi, di in zip(g, U.dims))
        assert lhs == R.hom_dim(V, U) - R.hom_dim(U, R.ar_translate(V))


# -- Auslander-Reiten translation --------------------------------------------


@pytest.mark.parametrize("p", [None, 7])
def test_auslander_reiten_formula(p):
    """dim Ext^1(V, W) = dim Hom(W, tau V) and dim Ext^1(W, V) =
    dim Hom(tau^- V, W) for locally free V and W, whose projective and
    injective dimensions are at most 1.  ``ext1_dim`` reads the corank of
    ``Presentation.hom_matrix(W)``, and the transpose inside ``ar_translate``
    and ``ar_inverse`` the cokernels of ``hom_matrix`` on projectives."""
    rng = random.Random(11)
    nonzero = 0
    for fam, rank in [("BC1", None), ("C", 2)]:
        A = algebra(fam, rank)
        for t in range(8):
            V, W = (
                R.random_locally_free(
                    A, [rng.randrange(1, 3) for _ in range(A.n)], seed=seed, p=p
                )
                for seed in (t, 50 + t)
            )
            e = R.ext1_dim(V, W)
            assert e == R.hom_dim(W, R.ar_translate(V))
            e_op = R.ext1_dim(W, V)
            assert e_op == R.hom_dim(R.ar_inverse(V), W)
            nonzero += (e > 0) + (e_op > 0)
    assert nonzero >= 4


@pytest.mark.parametrize("p", [None, 7])
def test_transpose_kills_projectives(p):
    for fam, rank in [("BC1", None), ("C", 2)]:
        A = algebra(fam, rank)
        for i in range(A.n):
            pres = R.minimal_presentation(R.projective(A, i, p))
            assert pres.algebra is A and pres.p == p and pres.proj1 == []
            tr = pres.transpose()
            assert tr.algebra is A.opposite()
            assert tr.total_dim() == 0


@pytest.mark.parametrize("p", [None, 7])
def test_transpose_twice_returns_the_module(p):
    """Tr Tr V = V for modules without projective summands; Tr V lives over
    the opposite algebra and Tr Tr V over the algebra again."""
    A = algebra("BC1")
    mods = [R.ar_inverse(R.projective(A, i, p)) for i in range(A.n)]
    mods += [family_module(3, 1, p), family_module(1, 0, p), boundary_module(p)]
    mods += [R.injective(A, 1, p), R.simple(A, 0, p)]
    for V in mods:
        tr = R.minimal_presentation(V).transpose()
        assert tr.algebra is A.opposite()
        trtr = R.minimal_presentation(tr).transpose()
        assert trtr.algebra is A
        assert R.is_isomorphic(trtr, V)[0]


def test_translate_kills_projectives_and_inverse_kills_injectives():
    for fam, rank in [("BC1", None), ("C", 2)]:
        A = algebra(fam, rank)
        for i in range(A.n):
            assert R.ar_translate(R.projective(A, i)).total_dim() == 0
            assert R.ar_inverse(R.injective(A, i)).total_dim() == 0


def test_preprojective_rank_vector_series():
    """dims of repeated inverse translates of the projectives follow the
    closed-form series."""
    A = algebra("BC1")
    V1 = R.projective(A, 0)
    V2 = R.projective(A, 1)
    for n in range(3):
        assert V1.dims == [4 * (2 * n + 1), 4 * n]
        assert V2.dims == [4 * (n + 1), 2 * n + 1]
        if n < 2:
            V1 = R.ar_inverse(V1)
            V2 = R.ar_inverse(V2)


def test_preinjective_rank_vector_series():
    A = algebra("BC1")
    W1 = R.injective(A, 0)
    W2 = R.injective(A, 1)
    for n in range(3):
        assert W1.dims == [4 * (2 * n + 1), 4 * n + 4]
        assert W2.dims == [4 * n, 2 * n + 1]
        if n < 2:
            W1 = R.ar_translate(W1)
            W2 = R.ar_translate(W2)


def test_translate_matches_coxeter_on_locally_free():
    A = algebra("BC1")
    q = A.quiver
    phi = q.coxeter_transformation()
    W = R.ar_inverse(R.projective(A, 1))  # locally free, not projective
    ok, rv = R.is_locally_free(W)
    assert ok
    T = R.ar_translate(W)
    okt, rt = R.is_locally_free(T)
    assert okt
    assert rt == q.coxeter_apply(rv, phi)


def test_translate_inverse_roundtrip():
    A = algebra("BC1")
    mods = [
        family_module(3, 1),
        family_module(0, 1),
        boundary_module(),
        R.injective(A, 1),
        R.ar_inverse(R.projective(A, 1)),
    ]
    for V in mods:
        W = R.ar_inverse(R.ar_translate(V))
        assert R.is_isomorphic(W, V)[0]
    back = R.ar_translate(R.ar_inverse(R.projective(A, 0)))
    assert R.is_isomorphic(back, R.projective(A, 0))[0]


def test_family_modules_are_periodic_bricks():
    for l1, l2 in [(0, 1), (3, 1), (1, 1)]:
        V = family_module(l1, l2)
        assert R.validate(V) == []
        assert R.end_dim(V) == 1
        assert R.is_isomorphic(R.ar_translate(V), V)[0]


def test_family_degenerates_at_infinity():
    V = family_module(1, 0)
    assert R.end_dim(V) == 2
    assert R.is_isomorphic(R.ar_translate(V), V)[0]
    assert R.hom_dim(boundary_module(), V) > 0


def test_family_modules_pairwise_orthogonal():
    V, W = family_module(2, 1), family_module(5, 1)
    assert R.hom_dim(V, W) == 0
    assert R.hom_dim(W, V) == 0
    assert not R.is_isomorphic(V, W)[0]


def test_boundary_module_is_brick():
    V = boundary_module()
    assert R.validate(V) == []
    assert R.end_dim(V) == 1


# -- isomorphism and decomposition -------------------------------------------


def test_isomorphic_after_base_change():
    A = algebra("BC1")
    p = 7
    V = family_module(3, 1, p)
    g0 = Mat.from_rows(
        [[1, 2, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0], [4, 0, 0, 1]], p
    )
    g0inv = _inverse(g0, p)
    g1 = Mat.from_rows([[2, 1], [1, 1]], p)
    g1inv = _inverse(g1, p)
    W = R.Rep(
        A,
        V.dims,
        {0: g0 * (V.mats[0] * g1inv), 1: g0 * (V.mats[1] * g0inv)},
        p,
    )
    assert R.validate(W) == []
    assert R.is_isomorphic(V, W)[0]


def _inverse(m, p):
    from glsw.exact import rref

    aug = m.hstack(Mat.identity(m.rows, p))
    red, pivots = rref(aug)
    assert pivots == list(range(m.rows))
    return Mat(
        m.rows,
        m.rows,
        [red[i, m.rows + j] for i in range(m.rows) for j in range(m.rows)],
        p,
    )


def test_non_isomorphic_same_dimensions():
    verdict, why = R.is_isomorphic(family_module(2, 1), family_module(3, 1))
    assert verdict is False


def test_direct_sum_of_three_is_the_iterated_sum():
    A = algebra("BC1")
    for p in (None, 7):
        parts = (family_module(3, 1, p), R.projective(A, 1, p), boundary_module(p))
        one = R.direct_sum(*parts)
        two = R.direct_sum(R.direct_sum(parts[0], parts[1]), parts[2])
        assert one.dims == two.dims == [10, 4]
        assert one.mats == two.mats
    with pytest.raises(ValueError):
        R.direct_sum(family_module(3, 1), boundary_module(), boundary_module(7))


def test_krull_schmidt_recovers_summands():
    A = algebra("BC1")
    p = 7
    P0 = R.projective(A, 0, p)
    P1 = R.projective(A, 1, p)
    S = R.direct_sum(R.direct_sum(P0, P1), P0)
    parts = R.krull_schmidt(S, seed=3)
    assert sorted(x.dims for x in parts) == [[4, 0], [4, 0], [4, 1]]
    assert sum(R.is_isomorphic(x, P0)[0] for x in parts) == 2
    assert sum(R.is_isomorphic(x, P1)[0] for x in parts) == 1


def test_krull_schmidt_splits_family_sum():
    p = 11
    V, W = family_module(3, 1, p), family_module(5, 1, p)
    parts = R.krull_schmidt(R.direct_sum(V, W), seed=1)
    assert len(parts) == 2
    assert {R.is_isomorphic(x, V)[0] for x in parts} == {True, False}


def test_krull_schmidt_keeps_indecomposable():
    parts = R.krull_schmidt(family_module(3, 1, 5), seed=0)
    assert len(parts) == 1


def test_krull_schmidt_requires_prime_field():
    with pytest.raises(ValueError):
        R.krull_schmidt(family_module(3, 1), seed=0)


# -- random sampling ---------------------------------------------------------


def test_random_locally_free_is_valid_and_deterministic():
    for fam, rank in [("BC1", None), ("G21", None), ("C", 2)]:
        A = algebra(fam, rank)
        r = [1] * A.n
        V = R.random_locally_free(A, r, seed=4)
        W = R.random_locally_free(A, r, seed=4)
        assert R.validate(V) == []
        assert R.is_locally_free(V) == (True, r)
        for gid in range(len(A.gens)):
            assert V.mats[gid] == W.mats[gid]
        U = R.random_locally_free(A, r, seed=5)
        assert any(U.mats[g] != V.mats[g] for g in range(len(A.gens)))


def test_random_locally_free_prime_field():
    A = algebra("BC1")
    V = R.random_locally_free(A, [2, 2], seed=0, p=101)
    assert V.p == 101
    assert R.validate(V) == []
    assert R.is_locally_free(V) == (True, [2, 2])


# sha256 of to_json(random_locally_free(ext.algebra, [1, 1], seed=3)) over Q,
# and of rank [2, 1], seed=3 over F_101; only "triple" has a relation, with
# loops on both sides of its arrow
EXTENDING_SAMPLES = {
    ("B", 2): (
        "kronecker",
        "aa55c9829b8af49746ce44c61f19eaec9ecf40e626c6039a24cb34255bfb67be",
        "d9599731b19f9643f82e2f9f4f267085a48f6f1a8632cad7a86a5bbb425fed93",
    ),
    ("C", 2): (
        "gentle",
        "3c39416367c175becab9fdabf0e19da4dd4f7773df2e49835d0647608d3fcbdd",
        "5460117be4fc29c1d940938b8c476f83c5f21eed02ddb4d393e08f56d6c27f36",
    ),
    ("G21", None): (
        "triple",
        "21862bd32810fe968805aeef4b60602e06bcbcabf18ed07d935addc9f11a62cd",
        "60865e74dac256d2f2b2312a57231611cdd72c0dc5ec1c79bf1321cf465fa643",
    ),
    ("BC1", None): (
        "thick",
        "0198483cb5890cdf09ee50b08ad1b9fd4c4c6428a0c1022353ed9f960a8b15e1",
        "1187166e4056e1603c6414ef016f0f7848d0d6dc57d19e11bb3d8d4223ae5282",
    ),
}


@pytest.mark.parametrize("fam, rank", list(EXTENDING_SAMPLES), ids=lambda x: str(x))
def test_random_locally_free_pinned_on_extending_algebras(fam, rank):
    case, rational, prime = EXTENDING_SAMPLES[fam, rank]
    ext = extending_algebra(catalog_affine(fam, rank).extending_data())
    assert ext.case == case
    digest = lambda V: hashlib.sha256(R.to_json(V).encode()).hexdigest()
    assert digest(R.random_locally_free(ext.algebra, [1, 1], seed=3)) == rational
    assert digest(R.random_locally_free(ext.algebra, [2, 1], seed=3, p=101)) == prime


def test_random_locally_free_solves_relations_sparsely(monkeypatch):
    def dense(M):
        raise AssertionError("dense kernel called")

    monkeypatch.setattr(R, "kernel_basis", dense)
    for p in (None, 101):
        V = R.random_locally_free(algebra("C", 2), [1, 1, 1], seed=0, p=p)
        assert R.validate(V) == []


# -- serialization -----------------------------------------------------------


def test_json_roundtrip_loads_canonical_entries():
    A = algebra("BC1")
    for V in [family_module(Fraction(-2, 3), 5), family_module(Fraction(4, 2), 1, 7)]:
        W = R.from_json(A, R.to_json(V))
        assert (W.dims, W.p, W.mats) == (V.dims, V.p, V.mats)
        entries = [x for m in W.mats.values() for x in m.data]
        if V.p is None:
            assert Fraction(-2, 3) in entries
            assert all(
                type(x) is int or (type(x) is Fraction and x.denominator != 1)
                for x in entries
            )
        else:
            assert all(type(x) is int and 0 <= x < V.p for x in entries)
    # a stored pair that is not in lowest terms still loads as an int
    text = R.to_json(family_module(1, 1)).replace("[1, 1]", "[4, 4]", 1)
    W = R.from_json(A, text)
    assert W.mats == family_module(1, 1).mats
    assert all(type(x) is int for m in W.mats.values() for x in m.data)


def test_json_roundtrip_rational_and_prime():
    A = algebra("BC1")
    for V in [family_module(3, 1), R.projective(A, 1), family_module(2, 1, 7)]:
        W = R.from_json(A, R.to_json(V))
        assert W.dims == V.dims and W.p == V.p
        for gid in range(len(A.gens)):
            assert W.mats[gid] == V.mats[gid]
