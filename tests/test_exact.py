import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsw import fpkernel
from glsw.exact import (
    BOX,
    Echelon,
    Mat,
    _field,
    factor_primefield,
    kernel_basis,
    minimal_polynomial,
    nilpotent_block_profile,
    poly_divmod,
    poly_eval_mat,
    poly_gcd,
    poly_lcm,
    poly_mul,
    rank,
    rref,
    solve,
    sparse_kernel_basis,
)


def test_rank_rational():
    m = Mat.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2


def test_rank_fractions():
    m = Mat.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 4)]]
    )
    assert rank(m) == 2
    # second row = 3 * first row makes it singular
    sing = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert rank(sing) == 1


def test_rank_mod_p():
    m = Mat.from_rows([[1, 2], [3, 6]], p=5)
    assert rank(m) == 1
    m = Mat.from_rows([[1, 2], [3, 6]], p=7)
    assert rank(m) == 1
    m = Mat.from_rows([[1, 2], [3, 5]], p=7)
    assert rank(m) == 2


def test_rref_deterministic_pivots():
    m = Mat.from_rows([[0, 1, 2], [1, 0, 1], [1, 1, 3]], p=5)
    r1, p1 = rref(m)
    r2, p2 = rref(m.copy())
    assert r1.data == r2.data and p1 == p2 == [0, 1]


def test_solve_consistent():
    m = Mat.from_rows([[1, 2], [3, 4]])
    x = solve(m, Mat.from_rows([[5], [11]]))
    assert m.matvec(x.data) == [Fraction(5), Fraction(11)]


@pytest.mark.parametrize("p", [None, 7])
def test_matvec_of_a_zero_column_matrix_is_a_field_zero(p):
    out = Mat.zero(3, 0, p).matvec([])
    assert out == [0, 0, 0]
    assert all(type(x) is type(_field(p).zero) for x in out)


def test_solve_inconsistent():
    m = Mat.from_rows([[1, 2], [2, 4]])
    assert solve(m, Mat.from_rows([[1], [3]])) is None


def test_solve_mod_p():
    m = Mat.from_rows([[2, 1], [1, 1]], p=7)
    x = solve(m, Mat.from_rows([[1], [0]], p=7))
    assert m.matvec(x.data) == [1, 0]


@pytest.mark.parametrize("p", [None, 7])
def test_solve_all_right_hand_sides_at_once(p):
    # rank 2: the third row is the sum of the first two
    m = Mat.from_rows([[1, 2, 0], [0, 1, 3], [1, 3, 3]], p)
    b = m * Mat.from_rows([[1, 0, 2, 0], [0, 1, 1, 0], [4, 0, 0, 0]], p)
    x = solve(m, b)
    assert (x.rows, x.cols) == (3, 4)
    assert m * x == b
    # one column off the column space makes the whole system inconsistent
    bad = b.hstack(Mat.from_rows([[0], [0], [1]], p))
    assert solve(m, bad) is None


def test_kernel_basis_normalized():
    m = Mat.from_rows([[1, 2, 3]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        lead = next(x for x in v if x != 0)
        assert lead == 1
        assert all(c == 0 for c in m.matvec(v))


def test_kernel_basis_mod_p_normalized():
    m = Mat.from_rows([[2, 4, 1], [1, 2, 3]], p=7)
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert next(x for x in v if x) == 1
    assert m.matvec(v) == [0, 0]


def test_kernel_of_full_rank_is_empty():
    m = Mat.from_rows([[1, 0], [0, 1], [1, 1]])
    assert kernel_basis(m) == []


def test_matmul_agrees_with_rational():
    a = Mat.from_rows([[1, 2], [3, 4]])
    b = Mat.from_rows([[5, 6], [7, 8]])
    prod = a * b
    ap = Mat.from_rows([[1, 2], [3, 4]], p=101)
    bp = Mat.from_rows([[5, 6], [7, 8]], p=101)
    assert (ap * bp).data == [int(x) % 101 for x in prod.data]


def test_minimal_polynomial_nilpotent():
    n = Mat.from_rows([[0, 1], [0, 0]])
    assert minimal_polynomial(n) == [0, 0, 1]  # x^2


def test_minimal_polynomial_identity():
    i = Mat.identity(3)
    assert minimal_polynomial(i) == [-1, 1]  # x - 1


def test_minimal_polynomial_companion():
    # companion matrix of x^3 - 2x - 5
    m = Mat.from_rows([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert minimal_polynomial(m) == [-5, -2, 0, 1]


def test_minimal_polynomial_mod_p_annihilates():
    m = Mat.from_rows([[1, 2, 0], [0, 1, 0], [3, 1, 4]], p=7)
    f = minimal_polynomial(m)
    assert poly_eval_mat(f, m).is_zero()


def test_factor_primefield_simple():
    # x^2 - 1 = (x-1)(x+1) over F_7
    fs = factor_primefield([-1, 0, 1], 7)
    assert fs == [([1, 1], 1), ([6, 1], 1)]


def test_factor_primefield_irreducible():
    # x^2 + 1 is irreducible over F_3
    fs = factor_primefield([1, 0, 1], 3)
    assert fs == [([1, 0, 1], 1)]


def test_factor_primefield_multiplicity():
    # (x-1)^2 (x-2) over F_5
    f = poly_mul(poly_mul([-1, 1], [-1, 1], 5), [-2, 1], 5)
    fs = factor_primefield(f, 5)
    assert sorted(fs) == [([3, 1], 1), ([4, 1], 2)]


def test_factor_primefield_char2():
    # x^2 + x + 1 irreducible over F_2; x^2 + x = x(x+1)
    assert factor_primefield([1, 1, 1], 2) == [([1, 1, 1], 1)]
    assert factor_primefield([0, 1, 1], 2) == [([0, 1], 1), ([1, 1], 1)]


def test_factor_primefield_inseparable_power():
    # x^3 + 1 = (x+1)^3 over F_3
    assert factor_primefield([1, 0, 0, 1], 3) == [([1, 1], 3)]


def test_nilpotent_block_profile():
    # one Jordan block of size 3 and one of size 1
    n = Mat.from_rows(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert nilpotent_block_profile(n) == [3, 1]


def test_nilpotent_block_profile_zero():
    assert nilpotent_block_profile(Mat.zero(3, 3)) == [1, 1, 1]


def test_nilpotent_block_profile_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        nilpotent_block_profile(Mat.identity(2))


def test_to_fp_denominator_failure():
    m = Mat.from_rows([[Fraction(1, 3)]])
    with pytest.raises(ZeroDivisionError):
        m.to_fp(3)
    assert m.to_fp(5).data == [2]  # 1/3 = 2 mod 5


def test_from_rows_maps_fractions_into_fp():
    assert Mat.from_rows([[Fraction(1, 2), Fraction(-3, 2)]], p=5).data == [3, 1]
    with pytest.raises(ZeroDivisionError):
        Mat.from_rows([[Fraction(1, 5)]], p=5)


def test_scale_maps_fractions_into_fp():
    assert Mat.identity(2, p=5).scale(Fraction(1, 2)).data == [3, 0, 0, 3]
    with pytest.raises(ZeroDivisionError):
        Mat.identity(2, p=5).scale(Fraction(2, 5))


def test_solve_maps_fractions_into_fp():
    one = Mat.identity(1, p=5)
    assert solve(one, Mat.from_rows([[Fraction(1, 2)]], p=5)).data == [3]
    with pytest.raises(ZeroDivisionError):
        solve(one, Mat.from_rows([[Fraction(1, 10)]], p=5))


def _canonical_q(x):
    """The form of an element of Q: an int when integral, else a Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_field_elements_coercion_and_draws():
    Q, F5 = _field(None), _field(5)
    assert _field(5) is F5 and Q.p is None and F5.p == 5
    assert (type(Q.zero), type(Q.one), Q.zero, Q.one) == (int, int, 0, 1)
    assert (type(F5.zero), type(F5.one), F5.zero, F5.one) == (int, int, 0, 1)
    assert type(Q.coerce(3)) is int and Q.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert [(type(x), x) for x in (Q.coerce(Fraction(4, 2)), Q.inv(Fraction(1, 3)))] == [
        (int, 2),
        (int, 3),
    ]
    assert [(type(x), x) for x in (Q.inv(1), Q.inv(-1))] == [(int, 1), (int, -1)]
    assert type(Q.inv(2)) is Fraction and Q.inv(2) == Fraction(1, 2)
    assert type(Q.inv(Fraction(-3, 2))) is Fraction and Q.inv(Fraction(-3, 2)) == Fraction(-2, 3)
    assert [type(x) for x in Q.scale([Fraction(1, 2), 3], 2)] == [int, int]
    assert [type(x) for x in Q.sub_scaled([1], Fraction(1, 2), [2])] == [int]
    assert [F5.coerce(x) for x in (7, -1, Fraction(1, 2), Fraction(-3, 4))] == [2, 4, 3, 3]
    with pytest.raises(ZeroDivisionError):
        F5.coerce(Fraction(1, 10))
    assert (Q.inv(2), F5.inv(2)) == (Fraction(1, 2), 3)
    assert (Q.reduce([1, -2]), F5.reduce([5, -1, 12])) == ([1, -2], [0, 4, 2])
    assert F5.scale([1, 2], 3) == [3, 1]
    assert Q.sub_scaled([1], Fraction(1, 2), [2]) == [0]
    assert F5.sub_scaled([1, 2], 2, [3, 4]) == [0, 4]
    # the draws samplers make: integers in [-BOX, BOX] over Q, all of F_p
    q_rng, f_rng = random.Random(1), random.Random(1)
    assert Q.random(q_rng) == Fraction(f_rng.randint(-BOX, BOX))
    assert F5.random(q_rng) == f_rng.randrange(5)
    assert all(type(Q.random(q_rng)) is int for _ in range(20))
    for bad in (4, 1, 2**31):
        with pytest.raises(ValueError):
            _field(bad)


sq = st.integers(-9, 9)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_echelon_is_the_reduced_basis_in_any_insertion_order(data):
    p = data.draw(st.sampled_from([2, 3, 101, None]))
    F = _field(p)
    ncols = data.draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 5, -7])
    rows = data.draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8)
    )
    # dependent rows: sums of drawn rows
    rows += [[a + b for a, b in zip(r, s)] for r, s in zip(rows, rows[1:3])]
    bases = []
    for order in (rows, data.draw(st.permutations(rows))):
        E = Echelon(p)
        for r in order:
            E.insert(r)
        assert all(E.reduce(r) == {} for r in rows)
        assert not any(E.insert(r) for r in rows)
        for c, row in E.rows.items():
            assert min(row) == c and row[c] == 1
            assert not any(d in row for d in E.rows if d != c)
        bases.append(E.basis(ncols))
    assert bases[0] == bases[1]
    # spans agree: the kernel of the rows is the kernel of the basis
    sparse = [dict(enumerate(r)) for r in rows]
    kernel = sparse_kernel_basis(sparse, ncols, p)
    assert kernel == sparse_kernel_basis(
        [dict(enumerate(r)) for r in bases[0]], ncols, p
    )
    _assert_normalized_kernel(kernel, sparse, ncols, p)
    if p is not None:
        a = [F.coerce(x) for r in rows for x in r]
        pivots = fpkernel.rref(a, len(rows), ncols, p)
        assert bases[0] == [a[i * ncols : (i + 1) * ncols] for i in range(len(pivots))]


@given(st.lists(st.lists(sq, min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rank_agrees_q_vs_large_p(rows):
    m = Mat.from_rows(rows)
    mp = Mat.from_rows(rows, p=10007)
    # entries are tiny, so reduction mod a large prime cannot drop rank
    assert rank(m) == rank(mp)


@given(st.lists(st.lists(sq, min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_minimal_polynomial_annihilates(rows):
    m = Mat.from_rows(rows)
    f = minimal_polynomial(m)
    assert f[-1] == 1
    assert poly_eval_mat(f, m).is_zero()


@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.lists(st.integers(0, 6), min_size=2, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_poly_divmod_roundtrip(f, g):
    from glsw.exact import poly_trim

    g = poly_trim(g)
    if not g:
        return
    q, r = poly_divmod(f, g, 7)
    recon = poly_mul(q, g, 7)
    n = max(len(recon), len(r), len(poly_trim([x % 7 for x in f])))
    recon = recon + [0] * (n - len(recon))
    rr = r + [0] * (n - len(r))
    ff = [x % 7 for x in f] + [0] * (n - len(f))
    assert [(a + b) % 7 for a, b in zip(recon, rr)] == poly_trim(ff) + [0] * (
        n - len(poly_trim(ff))
    )


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_factorization_multiplies_back(coeffs):
    from glsw.exact import poly_trim

    f = poly_trim([c % 5 for c in coeffs])
    if len(f) <= 1:
        return
    fs = factor_primefield(f, 5)
    prod = [pow(f[-1], 1, 5)]
    prod = [f[-1] % 5]
    for g, m in fs:
        for _ in range(m):
            prod = poly_mul(prod, g, 5)
    assert prod == [c % 5 for c in f]


def test_gcd_monic():
    f = poly_mul([1, 1], [2, 1], 7)
    g = poly_mul([1, 1], [3, 1], 7)
    assert poly_gcd(f, g, 7) == [1, 1]


# sparse null spaces and per-block minimal polynomials against the dense path

fields = st.sampled_from([2, 3, 101, None])


@st.composite
def sparse_rows(draw):
    """(rows, ncols, p): random sparse rows, tall or wide, with zero rows and
    rows that repeat combinations of earlier ones."""
    p = draw(fields)
    rnd = draw(st.randoms(use_true_random=False))
    nrows, ncols = draw(st.integers(0, 14)), draw(st.integers(1, 14))
    density = draw(st.floats(0.05, 0.7))

    def entry():
        if p is None:
            return Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
        return rnd.randint(-p, 2 * p)  # residues 0 mod p included

    rows = [
        {j: entry() for j in range(ncols) if rnd.random() < density}
        for _ in range(nrows)
    ]
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            a, b = rnd.choice(rows), rnd.choice(rows)
            ca, cb = entry(), entry()
            rows.append(
                {j: ca * a.get(j, 0) + cb * b.get(j, 0) for j in set(a) | set(b)}
            )
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(rnd.randint(0, len(rows)), {})
    return rows, ncols, p


def _assert_normalized_kernel(kernel, rows, ncols, p):
    """Every vector has ncols entries of the field (an int when integral and
    else a Fraction over Q, an int in [0, p) over F_p), first nonzero entry 1,
    and is killed by every row."""
    F = _field(p)
    for v in kernel:
        assert len(v) == ncols
        if p is None:
            assert all(_canonical_q(x) for x in v)
        else:
            assert all(type(x) is int and 0 <= x < p for x in v)
        assert next(x for x in v if x) == 1
        for r in rows:
            assert F.coerce(sum(F.coerce(x) * v[j] for j, x in r.items())) == 0


@given(sparse_rows())
@settings(max_examples=300, deadline=None)
def test_sparse_kernel_basis_matches_dense(case):
    rows, ncols, p = case
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    M = Mat.from_rows(dense, p) if rows else Mat.zero(0, ncols, p)
    kernel = sparse_kernel_basis(rows, ncols, p)
    # repr also compares entry types: Fraction over Q, int over F_p
    assert repr(kernel) == repr(kernel_basis(M))
    # both share _kernel_vectors, so check its normalization on its own
    _assert_normalized_kernel(kernel, rows, ncols, p)


def test_sparse_kernel_basis_leaves_its_rows_alone():
    rows = [{0: 1, 1: 2}, {1: 3, 2: 1}]
    sparse_kernel_basis(rows, 3, 5)
    assert rows == [{0: 1, 1: 2}, {1: 3, 2: 1}]


def _block_diagonal(blocks, p):
    n = sum(b.rows for b in blocks)
    big = Mat.zero(n, n, p)
    o = 0
    for b in blocks:
        for r in range(b.rows):
            for c in range(b.cols):
                big.data[(o + r) * n + o + c] = b[r, c]
        o += b.rows
    return big


@st.composite
def square_blocks(draw):
    p = draw(fields)
    rnd = draw(st.randoms(use_true_random=False))
    blocks = []
    for size in draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)):
        if blocks and rnd.random() < 0.3:
            blocks.append(blocks[-1])  # a repeated block shares its factors
            continue
        rows = [[rnd.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        blocks.append(Mat.from_rows(rows, p) if size else Mat.zero(0, 0, p))
    return blocks, p


@given(square_blocks())
@settings(max_examples=150, deadline=None)
def test_blockwise_lcm_is_minimal_polynomial(case):
    blocks, p = case
    lcm = [1]
    for b in blocks:
        lcm = poly_lcm(lcm, minimal_polynomial(b), p)
    assert lcm == minimal_polynomial(_block_diagonal(blocks, p))


def test_rational_operations_return_canonical_entries():
    h = Fraction(1, 2)
    A = Mat.from_rows([[h, h], [Fraction(3, 2), 2]])
    B = Mat.from_rows([[2, 0], [0, h]])
    E = Echelon(None, [[2, 1], [h, h]])
    results = [
        (A * B).data,
        A.matvec([2, 2]),
        Mat.zero(2, 0).matvec([]),
        (A + A).data,
        A.scale(2).data,
        rref(A)[0].data,
        solve(A, Mat.identity(2)).data,
        [x for v in kernel_basis(Mat.from_rows([[h, 1, Fraction(3, 2)]])) for x in v],
        [x for r in E.rows.values() for x in r.values()],
        list(E.reduce([3, h]).values()),
    ]
    assert (A * B).data == [1, Fraction(1, 4), 3, 1]
    for data in results:
        assert all(_canonical_q(x) for x in data), data


def test_every_suite_keeps_rational_entries_canonical(monkeypatch):
    """No rational matrix built or filled in while the suites run holds a
    float or an integral Fraction; the data lists are read at the end, so an
    entry written after construction is seen too."""
    from glsw.suites import SUITES, run_suite

    held = []
    init = Mat.__init__

    def recording(self, rows, cols, data, p=None):
        init(self, rows, cols, data, p)
        if p is None:
            held.append(data)

    monkeypatch.setattr(Mat, "__init__", recording)
    for name in SUITES:
        assert run_suite(name, {"seed": 0})["passed"], name
    assert held
    bad = {repr(x) for data in held for x in data if not _canonical_q(x)}
    assert not bad, sorted(bad)[:5]
