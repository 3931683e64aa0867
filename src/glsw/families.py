"""Explicit module families over the rank-one algebra and the extending
tensor algebras.

The rank-one catalog covers the valued quiver with a single weight-4 vertex:
closed root formulas for the preprojective and preinjective series, the
one-parameter family of rank (1, 2) bricks, and the listed g-vector tuples.
The extending tensor algebras come in four shapes depending on the extending
type of an affine valued quiver; each carries a projective-line family of
small modules generating the homogeneous regular part.
"""

from __future__ import annotations

import itertools
import random

from glsw.algebra import BoundQuiverAlgebra, Gen, gls_presentation
from glsw.exact import Mat, _field
from glsw.quivers import catalog_affine
from glsw import reps as R
from glsw.reps import _block_regular_nilpotent


def bc1_algebra():
    return gls_presentation(catalog_affine("BC1"))


BC1_COXETER = [[-1, 1], [-4, 3]]

# listed g-vector tuples of the preprojective/preinjective series, in the
# source's own coordinates (index: (series, vertex) -> function of n)
BC1_LISTED_G = {
    ("p", 1): lambda n: (-4 * n, 8 * n + 4),
    ("q", 1): lambda n: (-4 * n - 4, 8 * n + 4),
    ("p", 2): lambda n: (-2 * n - 1, 4 * n + 4),
    ("q", 2): lambda n: (-2 * n - 1, 4 * n),
}


def bc1_root(series, i, n):
    """Closed-form rank vectors: 'p' = preprojective, 'q' = preinjective;
    i in {1, 2} is the vertex (1 = the weight-4 vertex)."""
    if series == "p" and i == 1:
        return [2 * n + 1, 4 * n]
    if series == "p" and i == 2:
        return [n + 1, 2 * n + 1]
    if series == "q" and i == 1:
        return [2 * n + 1, 4 * n + 4]
    if series == "q" and i == 2:
        return [n, 2 * n + 1]
    raise ValueError("series must be 'p' or 'q', i in {1, 2}")


def _point(l1, l2, p):
    """The coordinates of the projective-line point (l1 : l2) in the field."""
    F = _field(p)
    l1, l2 = F.coerce(l1), F.coerce(l2)
    if l1 == 0 and l2 == 0:
        raise ValueError("(0 : 0) is not a projective-line point")
    return l1, l2


def bc1_V(l1, l2, p=None):
    """The rank (1, 2) family member at the projective-line point (l1 : l2)."""
    l1, l2 = _point(l1, l2, p)
    A = bc1_algebra()
    alpha = Mat.from_rows([[1, 0], [0, l2], [0, l1], [0, 0]], p)
    return R.Rep(A, [4, 2], {0: alpha, 1: _block_regular_nilpotent(4, 1, p)}, p)


def bc1_Vbar(p=None):
    """The non-locally-free stable module in dimension (2, 1)."""
    A = bc1_algebra()
    alpha = Mat.from_rows([[1], [0]], p)
    return R.Rep(A, [2, 1], {0: alpha, 1: _block_regular_nilpotent(2, 1, p)}, p)


def bc1_translate_series(series, i, p=None):
    """tau^{-n} P_i ('p') or tau^n I_i ('q') for n = 0, 1, 2, ..., each
    translate taken once from the last; i in {1, 2} is the vertex.  Raises
    ``AssertionError`` at the first member off the closed form ``bc1_root``."""
    A = bc1_algebra()
    if series == "p":
        V, step = R.projective(A, i - 1, p), R.ar_inverse
    else:
        V, step = R.injective(A, i - 1, p), R.ar_translate
    for n in itertools.count():
        expected = bc1_root(series, i, n)
        if V.dims != [4 * expected[0], expected[1]]:
            raise AssertionError("translate series left the closed-form track")
        yield V
        V = step(V)


def bc1_preprojective(i, n, p=None):
    """tau^{-n} of the indecomposable projective at vertex i (1 or 2)."""
    return next(itertools.islice(bc1_translate_series("p", i, p), n, None))


def bc1_preinjective(i, n, p=None):
    """tau^n of the indecomposable injective at vertex i (1 or 2)."""
    return next(itertools.islice(bc1_translate_series("q", i, p), n, None))


def g_basis_reconciliation(nmax=3):
    """Compare computed g-vectors with the listed tuples.

    The listed tuples are not written in the projective basis; this checks
    whether one fixed linear map carries the computed g-vectors (coefficients
    of [P_0], [P_1]) to the listed tuples for both series and both vertices.
    """
    matrix = [[0, -1], [4, 4]]
    rows = []
    consistent = True
    for series in ("p", "q"):
        for i in (1, 2):
            # zip draws from the range first, so the walk stops at n = nmax
            for n, V in zip(range(nmax + 1), bc1_translate_series(series, i)):
                g = R.g_vector(V)
                mapped = tuple(
                    sum(matrix[r][k] * g[k] for k in range(2)) for r in range(2)
                )
                listed = BC1_LISTED_G[(series, i)](n)
                ok = mapped == listed
                consistent = consistent and ok
                rows.append(
                    {
                        "series": series,
                        "vertex": i,
                        "n": n,
                        "computed_g": g,
                        "mapped": list(mapped),
                        "listed": list(listed),
                        "match": ok,
                    }
                )
    return {"matrix": matrix, "consistent": consistent, "rows": rows}


# ---------------------------------------------------------------------------
# extending tensor algebras


class ExtendingAlgebra:
    """A bound quiver algebra of one of the four extending shapes."""

    def __init__(self, case, algebra, c, valuation):
        self.case = case
        self.algebra = algebra
        self.c = c
        self.valuation = valuation

    def __repr__(self):
        return f"ExtendingAlgebra({self.case}, c={self.c})"


def extending_algebra(data):
    """Build the extending tensor algebra from ``extending_data`` output.

    The four shapes, keyed by (c0, c1) with their valuations:
    (1,1): two parallel arrows, no relations; (2,2): loops of square zero and
    one arrow; (3,3): loops of cube zero and the three-term mixed relation;
    (4,1): one loop of fourth-power zero and one arrow.
    """
    c0, c1 = data["c"]
    val = tuple(data["valuation"])
    key = (c0, c1, val)
    if key == (1, 1, (2, 2)):
        gens = [Gen("b0", 0, 1, False, None, 0), Gen("b1", 0, 1, False, None, 1)]
        return ExtendingAlgebra(
            "kronecker", BoundQuiverAlgebra(2, gens, []), (c0, c1), val
        )
    if key == (2, 2, (2, 2)):
        gens = [
            Gen("b", 0, 1, False, None, 0),
            Gen("d0", 0, 0, True, 1, 1),
            Gen("d1", 1, 1, True, 1, 2),
        ]
        return ExtendingAlgebra(
            "gentle", BoundQuiverAlgebra(2, gens, []), (c0, c1), val
        )
    if key == (3, 3, (2, 2)):
        gens = [
            Gen("b", 0, 1, False, None, 0),
            Gen("d0", 0, 0, True, 2, 1),
            Gen("d1", 1, 1, True, 2, 2),
        ]
        rel = [
            (1, (0, (0, 2, 2))),  # b then d1 twice
            (1, (0, (1, 0, 2))),  # d0, b, d1
            (1, (0, (1, 1, 0))),  # d0 twice then b
        ]
        return ExtendingAlgebra(
            "triple", BoundQuiverAlgebra(2, gens, [rel]), (c0, c1), val
        )
    if key == (4, 1, (1, 4)):
        gens = [
            Gen("b", 0, 1, False, None, 0),
            Gen("d0", 0, 0, True, 3, 1),
        ]
        return ExtendingAlgebra(
            "thick", BoundQuiverAlgebra(2, gens, []), (c0, c1), val
        )
    raise ValueError(f"unrecognized extending shape {key}")


def b_family(ext, l1, l2, p=None):
    """The projective-line family member at (l1 : l2) over an extending
    algebra; (1 : 0) is the degenerate point at infinity."""
    l1, l2 = _point(l1, l2, p)
    inv = _field(p).inv
    A = ext.algebra
    if ext.case == "kronecker":
        a = Mat.from_rows([[l1]], p)
        b = Mat.from_rows([[l2]], p)
        return R.Rep(A, [1, 1], {0: a, 1: b}, p)
    if ext.case == "gentle":
        if l2 == 0:
            # self-extension of the unique dimension-(1,1) brick
            beta = Mat.identity(2, p)
        else:
            beta = Mat.from_rows([[0, 1], [l1 * inv(l2), 0]], p)
        loops = {gid: _block_regular_nilpotent(2, 1, p) for gid in (1, 2)}
        return R.Rep(A, [2, 2], {0: beta, **loops}, p)
    if ext.case == "triple":
        if l2 == 0:
            # the unique brick in dimension (1, 1)
            return R.Rep(A, [1, 1], {0: Mat.identity(1, p)}, p)
        beta = Mat.from_rows([[0, 1, 0], [0, 0, -1], [l1 * inv(l2), 0, 0]], p)
        loops = {gid: _block_regular_nilpotent(3, 1, p) for gid in (1, 2)}
        return R.Rep(A, [3, 3], {0: beta, **loops}, p)
    if ext.case == "thick":
        beta = Mat.from_rows([[0, 0, 0, 1], [0, l1, l2, 0]], p)
        return R.Rep(A, [4, 2], {0: beta, 1: _block_regular_nilpotent(4, 1, p)}, p)
    raise ValueError(f"unknown case {ext.case}")


# ---------------------------------------------------------------------------
# generic rank-eta brick sampling


def eta_brick_sample(quiver, seed=0):
    """Sample a generic locally free module of null-root rank and check the
    expected brick properties; one retry on a bad draw.

    Returns (module, report); the report lists each check, the seeds used,
    and whether a retry was needed.
    """
    algebra = gls_presentation(quiver)
    eta = quiver.null_root()
    attempts = []
    for attempt in range(2):
        use_seed = seed + 1000 * attempt
        V = R.random_locally_free(algebra, eta, seed=use_seed)
        checks = {}
        ok_lf, rv = R.is_locally_free(V)
        checks["locally_free_rank_eta"] = bool(ok_lf and rv == eta)
        checks["brick"] = R.end_dim(V) == 1
        proj_hom = sum(
            R.hom_dim(V, R.projective(algebra, i)) for i in range(algebra.n)
        )
        checks["hom_to_projectives_zero"] = proj_hom == 0
        pres = R.minimal_presentation(V)  # for both Ext^1(V, V) and tau V
        checks["ext_self_dim_one"] = pres.ext1_dim(V) == 1
        TV = R.dual(pres.transpose(), algebra)
        checks["translate_self_iso"] = bool(R.is_isomorphic(TV, V)[0])
        attempts.append({"seed": use_seed, "checks": checks})
        if all(checks.values()):
            return V, {
                "rank": eta,
                "passed": True,
                "attempts": attempts,
                "seed": use_seed,
            }
    return V, {"rank": eta, "passed": False, "attempts": attempts, "seed": use_seed}
