import itertools
from fractions import Fraction

import pytest

from glsw.quivers import catalog_affine
from glsw import families as F, reps as R, suites

GRID = [(k, 1) for k in range(10)] + [(1, 0)]


def test_root_formulas_via_coxeter():
    q = catalog_affine("BC1")
    phi = q.coxeter_transformation()
    assert phi == F.BC1_COXETER
    for i in (1, 2):
        for n in range(1, 11):
            assert q.coxeter_apply(F.bc1_root("p", i, n), phi) == F.bc1_root(
                "p", i, n - 1
            )
            assert q.coxeter_apply(F.bc1_root("q", i, n - 1), phi) == F.bc1_root(
                "q", i, n
            )


def test_roots_have_expected_form_values():
    q = catalog_affine("BC1")
    for series in ("p", "q"):
        for i in (1, 2):
            for n in range(6):
                v = F.bc1_root(series, i, n)
                assert q.tits_form(v) == q.c[i - 1]
                sign = -1 if series == "p" else 1
                assert sign * q.defect(v) > 0


def test_series_modules_match_formulas():
    for i in (1, 2):
        for n in range(3):
            F.bc1_preprojective(i, n)  # asserts internally
            F.bc1_preinjective(i, n)


def _per_n_reference(series, i, n, p):
    """tau^{-n} P_i or tau^n I_i, rebuilt from the start for this n alone."""
    A = F.bc1_algebra()
    if series == "p":
        V, step = R.projective(A, i - 1, p), R.ar_inverse
    else:
        V, step = R.injective(A, i - 1, p), R.ar_translate
    for _ in range(n):
        V = step(V)
    return V


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("series", ["p", "q"])
def test_series_walk_matches_the_per_n_translates(series, p):
    for i in (1, 2):
        walk = itertools.islice(F.bc1_translate_series(series, i, p), 6)
        for n, V in enumerate(walk):
            ref = _per_n_reference(series, i, n, p)
            assert V.algebra is ref.algebra
            assert (V.dims, V.mats, V.p) == (ref.dims, ref.mats, ref.p)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(R, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(R, name, counted)
    return calls


def test_bc1_suite_presents_each_module_once(monkeypatch):
    """The series are walked once (10 inverse translates, where restarting
    for each n took 30), and each g-pairing sample is presented once for
    both g(V) and tau V: 10 + 10 + 50 presentations (160 when restarting
    and presenting twice)."""
    presentations = _counting(monkeypatch, "minimal_presentation")
    inverses = _counting(monkeypatch, "ar_inverse")
    report = suites.suite_bc1()
    assert report["passed"]
    assert len(presentations) <= 70
    assert len(inverses) <= 10


def test_eta_brick_sample_presents_its_module_once(monkeypatch):
    presentations = _counting(monkeypatch, "minimal_presentation")
    V, report = F.eta_brick_sample(catalog_affine("C", 2), seed=0)
    assert report["passed"]
    assert len(presentations) == len(report["attempts"]) == 1


def test_series_base_cases():
    A = F.bc1_algebra()
    assert R.is_isomorphic(F.bc1_preprojective(2, 0), R.projective(A, 1))[0]
    assert F.bc1_preinjective(2, 0).dims == [0, 1]


def test_family_grid_laws():
    mods = {pt: F.bc1_V(*pt) for pt in GRID}
    for pt, V in mods.items():
        assert R.validate(V) == []
        assert R.is_locally_free(V) == (True, [1, 2])
        if pt == (1, 0):
            assert R.end_dim(V) >= 2
        else:
            assert R.end_dim(V) == 1
        assert R.is_isomorphic(R.ar_translate(V), V)[0]


def test_family_iso_iff_sign():
    assert R.is_isomorphic(F.bc1_V(3, 1), F.bc1_V(-3, 1))[0]
    assert not R.is_isomorphic(F.bc1_V(3, 1), F.bc1_V(4, 1))[0]
    assert R.hom_dim(F.bc1_V(3, 1), F.bc1_V(4, 1)) == 0


def test_family_hom_to_projectives_vanishes():
    A = F.bc1_algebra()
    projs = R.direct_sum(R.projective(A, 0), R.projective(A, 1))
    for pt in [(0, 1), (2, 1), (1, 0)]:
        assert R.hom_dim(F.bc1_V(*pt), projs) == 0


def test_infinity_extension_shape():
    Vbar = F.bc1_Vbar()
    Vinf = F.bc1_V(1, 0)
    assert R.hom_dim(Vbar, Vinf) == 1
    assert R.hom_dim(Vinf, Vbar) == 1
    assert R.hom_dim(Vbar, R.ar_translate(Vbar)) >= 1


def test_ext1_dim_rejects_projective_dimension_above_one():
    # neither Vbar nor the simple at vertex 0 is locally free over BC1
    A = F.bc1_algebra()
    with pytest.raises(ValueError):
        R.ext1_dim(F.bc1_Vbar(), F.bc1_Vbar())
    with pytest.raises(ValueError):
        R.ext1_dim(R.simple(A, 0), R.injective(A, 0))


def test_rejects_origin():
    with pytest.raises(ValueError):
        F.bc1_V(0, 0)


def test_point_coordinates_reduce_mod_p():
    assert F.bc1_V(Fraction(1, 2), 1, 5).mats == F.bc1_V(3, 1, 5).mats
    with pytest.raises(ValueError):
        F.bc1_V(5, 5, 5)  # (0 : 0) over F_5


def test_listed_g_vectors_reconcile():
    report = F.g_basis_reconciliation(3)
    assert report["consistent"]
    assert all(row["match"] for row in report["rows"])


def _ext_for(fam, rank=None):
    return F.extending_algebra(catalog_affine(fam, rank).extending_data())


def test_extending_algebra_cases_and_dimensions():
    cases = {
        ("E8", None): ("kronecker", 4),
        ("C", 2): ("gentle", 8),
        ("G21", None): ("triple", 12),
        ("BC1", None): ("thick", 9),
        ("BC", 3): ("thick", 9),
        ("B", 2): ("kronecker", 4),
        ("F41", None): ("gentle", 8),
    }
    for (fam, rank), (case, dim) in cases.items():
        ext = _ext_for(fam, rank)
        assert ext.case == case
        assert ext.algebra.dim == dim


def test_b_family_laws_all_cases():
    grid = [(k, 1) for k in range(5)] + [(1, 0)]
    for fam, rank in [("E8", None), ("C", 2), ("G21", None), ("BC1", None)]:
        ext = _ext_for(fam, rank)
        mods = {pt: F.b_family(ext, *pt) for pt in grid}
        for pt, V in mods.items():
            assert R.validate(V) == []
            if pt != (1, 0) or ext.case == "kronecker":
                assert R.end_dim(V) == 1
        for a in grid:
            for b in grid:
                if a != b:
                    assert R.hom_dim(mods[a], mods[b]) == 0


def test_b_family_infinity_cases():
    assert R.end_dim(F.b_family(_ext_for("C", 2), 1, 0)) == 2
    assert R.end_dim(F.b_family(_ext_for("BC1"), 1, 0)) == 2
    assert F.b_family(_ext_for("G21"), 1, 0).dims == [1, 1]


def test_b_family_rejects_origin():
    with pytest.raises(ValueError):
        F.b_family(_ext_for("E8"), 0, 0)


def test_eta_brick_sampler():
    for fam, rank in [("C", 2), ("B", 2), ("G21", None)]:
        q = catalog_affine(fam, rank)
        V, report = F.eta_brick_sample(q, seed=3)
        assert report["passed"], report
        assert report["rank"] == q.null_root()


def test_eta_brick_sampler_bc1_sits_beside_family():
    q = catalog_affine("BC1")
    V, report = F.eta_brick_sample(q, seed=5)
    assert report["passed"]
    assert report["rank"] == [1, 2]
    # the sampled brick lives in one homogeneous tube, so it admits nonzero
    # maps to at most one family member on any parameter grid
    hits = [pt for pt in GRID if R.hom_dim(V, F.bc1_V(*pt)) > 0]
    assert len(hits) <= 1
    for pt in hits:
        assert R.is_isomorphic(V, F.bc1_V(*pt))[0]
