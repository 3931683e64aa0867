"""Named verification suites: batch property checks over the affine catalog.

Each suite function takes a configuration dict and returns a JSON-ready
report: the suite name, an ordered list of checks with pass flags, the seeds
actually used, and an overall verdict.  All randomness flows from the single
configured seed through a named-stream splitter, so adding a check never
perturbs another check's draws.
"""

from __future__ import annotations

import hashlib
import random

from glsw.algebra import gls_presentation, unfold, unfold_class
from glsw.quivers import catalog_affine
from glsw import decomposition as D, families as F, reps as R, stability as S

# the submodule search caps default in stability.DEFAULT_CONFIG
DEFAULT_CONFIG = {"seed": 0}

# representative members of every catalog family, all of rank <= 8
CATALOG_REPRESENTATIVES = (
    ("A1", None), ("A", 2), ("A", 4), ("B", 2), ("B", 4), ("C", 2), ("C", 4),
    ("D", 4), ("D", 6), ("BC1", None), ("BC", 2), ("BC", 4), ("BD", 3),
    ("BD", 5), ("CD", 3), ("CD", 5), ("E6", None), ("E7", None), ("E8", None),
    ("F41", None), ("F42", None), ("G21", None), ("G23", None),
)


def split_seed(seed, name):
    """Derive an independent 64-bit stream seed from (seed, name)."""
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _config(config):
    return dict(DEFAULT_CONFIG, **(config or {}))


def _report(name, cfg, checks, **extra):
    out = {
        "suite": name,
        "seed": cfg["seed"],
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    out.update(extra)
    return out


def _check(checks, name, passed, **detail):
    entry = {"name": name, "passed": bool(passed)}
    if detail:
        entry["detail"] = detail
    checks.append(entry)


# ---------------------------------------------------------------------------


def suite_catalog(config=None):
    """Null roots, radicality and Coxeter fixedness across the catalog."""
    cfg = _config(config)
    checks = []
    for fam, rank in CATALOG_REPRESENTATIVES:
        q = catalog_affine(fam, rank)
        label = fam if rank is None else f"{fam}{rank}"
        eta = q.null_root()
        ok = (
            tuple(eta) == q.catalog_null_root
            and q.tits_form(eta) == 0
            and q.coxeter_apply(eta) == eta
            and all(q.symmetrized_form(eta, q.simple_root(i)) == 0 for i in range(q.n))
        )
        _check(checks, f"null-root:{label}", ok, null_root=eta)
    return _report("catalog", cfg, checks)


def suite_bc1(config=None):
    """Numerics of the weight-4 rank-one quiver: Coxeter matrix, root series,
    the translate series of projectives and injectives, and the g-vector
    pairing law."""
    cfg = _config(config)
    checks = []
    q = catalog_affine("BC1")
    phi = q.coxeter_transformation()
    _check(checks, "coxeter-matrix", phi == F.BC1_COXETER, matrix=phi)
    theta = S.defect_weight(q)
    _check(
        checks,
        "defect-weight",
        [str(c) for c in theta.coords] == ["-1", "2"],
        coords=[str(c) for c in theta.coords],
    )
    series_ok = True
    for i in (1, 2):
        for n in range(1, 11):
            if q.coxeter_apply(F.bc1_root("p", i, n), phi) != F.bc1_root("p", i, n - 1):
                series_ok = False
            if q.coxeter_apply(F.bc1_root("q", i, n - 1), phi) != F.bc1_root("q", i, n):
                series_ok = False
    _check(checks, "root-series-coxeter-iteration", series_ok, n_max=10)
    translate_ok = True
    try:
        for i in (1, 2):
            # each walks its series once, checking every n <= 5
            F.bc1_preprojective(i, 5)
            F.bc1_preinjective(i, 5)
    except AssertionError:
        translate_ok = False
    _check(checks, "translate-series-closed-forms", translate_ok, n_max=5)
    pair_ok, pairs = _g_pairing_samples(cfg, "BC1", None, 25)
    _check(checks, "g-pairing:BC1", pair_ok, pairs=pairs)
    pair_ok, pairs = _g_pairing_samples(cfg, "C", 2, 25)
    _check(checks, "g-pairing:C2", pair_ok, pairs=pairs)
    return _report("bc1", cfg, checks)


def _g_pairing_samples(cfg, fam, rank, count):
    """hom(V,U) - hom(U, tau V) == <g(V), dim U> on random locally free pairs."""
    q = catalog_affine(fam, rank)
    A = gls_presentation(q)
    rng = random.Random(split_seed(cfg["seed"], f"g-pairing:{fam}:{rank}"))
    ok = True
    done = 0
    while done < count:
        v = [rng.randrange(0, 3) for _ in range(q.n)]
        w = [rng.randrange(0, 3) for _ in range(q.n)]
        if not any(v) or not any(w):
            continue
        V = R.random_locally_free(A, v, seed=rng.randrange(2**31))
        U = R.random_locally_free(A, w, seed=rng.randrange(2**31))
        pres = R.minimal_presentation(V)  # for both g(V) and tau V
        lhs = sum(gi * di for gi, di in zip(pres.g_vector(), U.dims))
        rhs = R.hom_dim(V, U) - R.hom_dim(U, R.dual(pres.transpose(), A))
        if lhs != rhs:
            ok = False
        done += 1
    return ok, done


def suite_family(config=None):
    """The rank (1,2) one-parameter family on the grid {0..9, infinity},
    plus the dimension-count identity for defect-zero dimension vectors."""
    cfg = _config(config)
    checks = []
    grid = [(k, 1) for k in range(10)] + [(1, 0)]
    mods = {pt: F.bc1_V(*pt) for pt in grid}
    A = F.bc1_algebra()
    projs = R.direct_sum(R.projective(A, 0), R.projective(A, 1))
    for pt, V in mods.items():
        name = "inf" if pt == (1, 0) else str(pt[0])
        end = R.end_dim(V)
        end_ok = end >= 2 if pt == (1, 0) else end == 1
        ok_lf, rv = R.is_locally_free(V)
        ok = (
            end_ok
            and bool(ok_lf)
            and rv == [1, 2]
            and R.hom_dim(V, projs) == 0
            and R.is_isomorphic(R.ar_translate(V), V)[0]
        )
        _check(checks, f"member:{name}", ok, end=end)
    ortho_ok = True
    for a in grid:
        for b in grid:
            if a != b and R.hom_dim(mods[a], mods[b]) != 0:
                ortho_ok = False
    _check(checks, "pairwise-hom-vanishing", ortho_ok)
    _check(
        checks,
        "negation-symmetry",
        R.is_isomorphic(F.bc1_V(3, 1), F.bc1_V(-3, 1))[0],
    )
    dim_ok, rows = _dimension_count_rows()
    _check(checks, "dimension-count-identity", dim_ok, rows=rows)
    return _report("family", cfg, checks)


def _dimension_count_rows(d2_max=6):
    """For defect-zero dimension vectors (2*d2, d2) with d2 = 2r + s, the
    generic module Vbar^s + V_{l_1} + ... + V_{l_r} has endomorphism ring
    of dimension r + s, and
    dim Rep - dim orbit = (5*d2^2 - s) - (dim GL - dim End) = r."""
    rows = []
    ok = True
    for d2 in range(1, d2_max + 1):
        for s in (0, 1):
            if (d2 - s) % 2 or d2 < s:
                continue
            r = (d2 - s) // 2
            parts = [F.bc1_Vbar()] * s + [F.bc1_V(k + 1, 1) for k in range(r)]
            if not parts:
                continue
            end = R.end_dim(R.direct_sum(*parts))
            d1 = 2 * d2
            dim_gl = d1 * d1 + d2 * d2
            dim_orbit = dim_gl - end
            dim_rep = 5 * d2 * d2 - s
            row = {
                "d": [d1, d2],
                "r": r,
                "s": s,
                "end": end,
                "identity": dim_rep - dim_orbit == r and end == r + s,
            }
            ok = ok and row["identity"]
            rows.append(row)
    return ok, rows


def suite_stability(config=None):
    """Defect stability over complete submodule lattices at two primes."""
    cfg = _config(config)
    primes = (3, 5)
    q = catalog_affine("BC1")
    theta = S.defect_weight(q)
    checks = []
    # every module checked is over F_p already, so only the caps in cfg are read
    for p in primes:
        _check(
            checks,
            f"boundary-stable:p{p}",
            S.is_stable(F.bc1_Vbar(p), theta, cfg)["verdict"] is True,
        )
        for lam in (1, 2):
            _check(
                checks,
                f"member-{lam}-stable:p{p}",
                S.is_stable(F.bc1_V(lam, 1, p), theta, cfg)["verdict"] is True,
            )
        Vinf = F.bc1_V(1, 0, p)
        semi = S.is_semistable(Vinf, theta, cfg)
        strict = S.is_stable(Vinf, theta, cfg)
        witness = strict.get("witness", {})
        _check(
            checks,
            f"infinity-strictly-semistable:p{p}",
            semi["verdict"] is True
            and strict["verdict"] is False
            and witness.get("dims") == [2, 1]
            and witness.get("value") == "0",
            witness_dims=witness.get("dims"),
        )
        _check(
            checks,
            f"projective-not-semistable:p{p}",
            S.is_semistable(R.projective(F.bc1_algebra(), 0, p), theta, cfg)["verdict"]
            is False,
        )
    return _report("stability", cfg, checks)


def suite_euler(config=None):
    """The unfolding isometry on random pairs, and agreement of the two Ext
    computations (presentation kernel vs. bilinear form) on random modules."""
    cfg = _config(config)
    checks = []
    for fam, rank in CATALOG_REPRESENTATIVES:
        q = catalog_affine(fam, rank)
        label = fam if rank is None else f"{fam}{rank}"
        cover, vertex_list = unfold(q)
        rng = random.Random(split_seed(cfg["seed"], f"isometry:{label}"))
        ok = True
        for _ in range(100):
            v = [rng.randrange(-4, 5) for _ in range(q.n)]
            w = [rng.randrange(-4, 5) for _ in range(q.n)]
            vb = unfold_class(q, v, vertex_list)
            wb = unfold_class(q, w, vertex_list)
            if cover.ringel_form(vb, wb) != q.ringel_form(v, w):
                ok = False
        _check(checks, f"unfolding-isometry:{label}", ok, pairs=100)
    for fam, rank in (("BC1", None), ("C", 2)):
        q = catalog_affine(fam, rank)
        A = gls_presentation(q)
        label = fam if rank is None else f"{fam}{rank}"
        rng = random.Random(split_seed(cfg["seed"], f"euler:{label}"))
        ok = True
        done = 0
        while done < 25:
            v = [rng.randrange(0, 3) for _ in range(q.n)]
            w = [rng.randrange(0, 3) for _ in range(q.n)]
            if not any(v) or not any(w):
                continue
            V = R.random_locally_free(A, v, seed=rng.randrange(2**31))
            W = R.random_locally_free(A, w, seed=rng.randrange(2**31))
            if R.ext1_dim(V, W) != R.ext1_dim(V, W, method="euler"):
                ok = False
            done += 1
        _check(checks, f"ext-presentation-vs-form:{label}", ok, pairs=done)
    return _report("euler", cfg, checks)


def suite_decomposition(config=None):
    """The m*eta + w split: fixed oracles, random invariants, and the generic
    module profile for a triple null-root vector."""
    cfg = _config(config)
    checks = []
    q = catalog_affine("BC1")
    oracles = {
        (2, 4): (2, (0, 0), ()),
        (3, 5): (0, (3, 5), None),
        (2, 2): (0, (2, 2), (((1, 1), 2),)),
        (2, 6): (0, (2, 6), (((1, 3), 2),)),
    }
    for v, (m, w, classes) in sorted(oracles.items()):
        try:
            rep = D.folded_decomposition(q, list(v))
        except D.CertificationError as exc:
            _check(checks, f"oracle:{v}", False, error=str(exc))
            continue
        got = tuple(sorted((tuple(s["class"]), s["multiplicity"]) for s in rep["summands"]))
        ok = rep["m"] == m and tuple(rep["w"]) == w
        if classes is not None:
            ok = ok and got == tuple(sorted(classes))
        _check(checks, f"oracle:{v}", ok, m=rep["m"], w=rep["w"], summands=list(got))
    c2 = catalog_affine("C", 2)
    eta = c2.null_root()
    rng = random.Random(split_seed(cfg["seed"], "decomposition:random"))
    rand_ok = True
    tested = 0
    for _ in range(30):
        v = [rng.randrange(0, 9) for _ in range(c2.n)]
        if not any(v):
            continue
        tested += 1
        try:
            rep = D.folded_decomposition(c2, v)
        except D.CertificationError:
            rand_ok = False
            continue
        rand_ok = rand_ok and rep["w"] == [a - rep["m"] * e for a, e in zip(v, eta)]
        rand_ok = rand_ok and (rep["m"] == 0 or c2.defect(rep["w"]) == 0)
    _check(checks, "random-split-invariants:C2", rand_ok, vectors=tested)
    try:
        triple = D.generic_decomposition_report(
            q, [3, 6], seed=split_seed(cfg["seed"], "decomposition:triple") % 2**20
        )
        triple_ok = triple["m"] == 3 and triple["module_evidence"]["eta_bricks"] == 3
        detail = {"m": triple["m"]}
    except D.CertificationError as exc:
        triple_ok, detail = False, {"error": str(exc)}
    _check(checks, "triple-null-root-generic-profile", triple_ok, **detail)
    return _report("decomposition", cfg, checks)


def suite_tubes(config=None):
    """Tube tiers against the catalog, orbit sums, and the regular
    quasi-simple Hom law."""
    cfg = _config(config)
    checks = []
    for fam, rank, tier in (("C", 2, 1), ("B", 2, 2), ("G23", None, 3)):
        q = catalog_affine(fam, rank)
        label = fam if rank is None else f"{fam}{rank}"
        data = q.tubes()
        eta = data["null_root"]
        sums_ok = all(
            [sum(col) for col in zip(*t["quasi_simples"])]
            == [t["tier"] * e for e in eta]
            for t in data["tubes"]
        )
        _check(
            checks,
            f"tier:{label}",
            data["tier"] == tier and sums_ok,
            tier=data["tier"],
        )
    q = catalog_affine("C", 2)
    seed = split_seed(cfg["seed"], "tubes:homlaw") % 2**20
    hom_ok = True
    for tube in q.tubes()["tubes"]:
        samples = [
            D.rigid_of_rank(q, list(v), seed=seed + 17 * k)
            for k, v in enumerate(tube["quasi_simples"])
        ]
        for i, Vi in enumerate(samples):
            if R.end_dim(Vi) != 1:
                hom_ok = False
            for j, Vj in enumerate(samples):
                if i != j and R.hom_dim(Vi, Vj) != 0:
                    hom_ok = False
    _check(checks, "quasi-simple-hom-law:C2", hom_ok)
    return _report("tubes", cfg, checks)


def suite_null_family(config=None):
    """The generic null-root brick sampler across non-degenerate types."""
    cfg = _config(config)
    checks = []
    for fam, rank in (("C", 2), ("B", 2), ("G21", None)):
        q = catalog_affine(fam, rank)
        label = fam if rank is None else f"{fam}{rank}"
        seed = split_seed(cfg["seed"], f"null-family:{label}") % 2**20
        _, report = F.eta_brick_sample(q, seed=seed)
        _check(
            checks,
            f"eta-brick:{label}",
            report["passed"],
            rank=report["rank"],
            seed=report["seed"],
        )
    return _report("null-family", cfg, checks)


SUITES = {
    "catalog": suite_catalog,
    "bc1": suite_bc1,
    "family": suite_family,
    "stability": suite_stability,
    "euler": suite_euler,
    "decomposition": suite_decomposition,
    "tubes": suite_tubes,
    "null-family": suite_null_family,
}


def run_suite(name, config=None):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](config)
