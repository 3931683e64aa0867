"""King-style (semi)stability with exhaustive submodule search over prime
fields.

The submodule lattice is built from the spins of vectors supported at a
single vertex, closed under sums; the ``enum_cap`` of the configuration
counts those vertex-local spins (and the lattice members), not the vectors
of the whole module.

A weight is a rational linear functional on dimension vectors.  The defect
weight of an affine quiver separates the preprojective, regular and
preinjective parts; a module of defect-weight zero is semistable when no
submodule has positive weight.  Rational-entry modules are reduced modulo
several small primes: one prime without a destabilizing submodule certifies
the module, a negative verdict needs a witness that lifts back to the
rationals (on its own, or combined across primes by rational
reconstruction), and anything else is ``unknown``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from glsw.algebra import gls_presentation
from glsw.exact import Echelon, Mat, rref
from glsw import reps as R
from glsw.decomposition import rigid_of_rank

DEFAULT_CONFIG = {"primes": (3, 5, 7), "dim_cap": 8, "enum_cap": 1_000_000}


class Weight:
    """Rational linear functional on dimension vectors."""

    def __init__(self, coords, provenance="custom"):
        self.coords = [Fraction(x) for x in coords]
        self.provenance = provenance

    def value(self, dims):
        return sum(c * d for c, d in zip(self.coords, dims))

    def __repr__(self):
        return f"Weight({[str(c) for c in self.coords]}, {self.provenance})"


def weight_from_lf_class(quiver, w):
    """The weight pairing a rank class against dimension vectors through the
    bilinear form (dimension vectors divided by the symmetrizer)."""
    coords = []
    for i in range(quiver.n):
        e = [0] * quiver.n
        e[i] = 1
        coords.append(Fraction(quiver.ringel_form(w, e), quiver.c[i]))
    return Weight(coords, provenance="g-vector dual")


def defect_weight(quiver):
    wt = weight_from_lf_class(quiver, quiver.null_root())
    wt.provenance = "defect"
    return wt


# ---------------------------------------------------------------------------
# submodule lattice


class SubmoduleLattice:
    def __init__(self, V, members, complete):
        self.V = V
        self.members = members  # list of per-vertex row-basis tuples
        self.complete = complete

    def dims(self, member):
        return [len(rows) for rows in member]

    def __len__(self):
        return len(self.members)


def _spin(V, element):
    """Smallest subrepresentation containing the given module element, as
    per-vertex reduced row echelon bases."""
    A = V.algebra
    spans = [Echelon(V.p) for _ in range(A.n)]
    queue = [(i, vec) for i, vec in enumerate(element) if spans[i].insert(vec)]
    while queue:
        i, vec = queue.pop()
        for gid, g in enumerate(A.gens):
            if g.src != i:
                continue
            img = V.mats[gid].matvec(vec)
            if spans[g.tgt].insert(img):
                queue.append((g.tgt, img))
    return tuple(tuple(map(tuple, E.basis(d))) for E, d in zip(spans, V.dims))


def _join(V, a, b):
    """The sum of two members, as per-vertex reduced row echelon bases."""
    out = []
    for x, y in zip(a, b):
        if x or y:
            red, pivots = rref(Mat.from_rows(x + y, V.p))
            x = tuple(tuple(red.row(k)) for k in range(len(pivots)))
        out.append(x)
    return tuple(out)


def submodules(V, config=None):
    """All subrepresentations of a small module over a prime field.

    Every submodule is the sum of its vertex components, so it is the sum of
    the cyclic submodules spun from vectors supported at one vertex: the
    lattice is those single-vertex spins closed under sums.  ``enum_cap``
    bounds the number of spins, sum_i (p^dim V(i) - 1)/(p - 1), and the
    number of members; past either bound the lattice is marked incomplete.
    """
    cfg = dict(DEFAULT_CONFIG, **(config or {}))
    if V.p is None:
        raise ValueError("submodule enumeration needs a prime field")
    p = V.p
    total = V.total_dim()
    if total > cfg["dim_cap"]:
        raise ValueError(f"total dimension {total} exceeds cap {cfg['dim_cap']}")
    spins = set()
    count = 0
    complete = True

    def vectors():
        # projectivized vectors at one vertex: first nonzero coordinate 1
        for i, d in enumerate(V.dims):
            for lead in range(d):
                for code in range(p ** (d - lead - 1)):
                    vec = [0] * d
                    vec[lead] = 1
                    for j in range(lead + 1, d):
                        vec[j] = code % p
                        code //= p
                    element = [[0] * e for e in V.dims]
                    element[i] = vec
                    yield element

    for element in vectors():
        count += 1
        if count > cfg["enum_cap"]:
            complete = False
            break
        spins.add(_spin(V, element))
    # close under sums: every member is a sum of spins, so joining each new
    # member with one spin at a time reaches all of them
    members = spins | {tuple(() for _ in range(V.algebra.n))}
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in spins:
                j = _join(V, a, b)
                if j not in members:
                    members.add(j)
                    nxt.append(j)
        frontier = nxt
        if len(members) > cfg["enum_cap"]:
            complete = False
            break
    return SubmoduleLattice(V, sorted(members), complete)


# ---------------------------------------------------------------------------
# stability verdicts


def _reduce_rep(V, p):
    mats = {gid: m.to_fp(p) for gid, m in V.mats.items()}
    return R.Rep(V.algebra, V.dims, mats, p)


def _check_one_field(V, theta, cfg, strict):
    if theta.value(V.dims) != 0:
        return {"verdict": False, "reason": "weight of the module is nonzero"}
    total = V.total_dim()
    if total > cfg["dim_cap"]:
        return {
            "verdict": "unknown (cap)",
            "reason": f"total dimension {total} exceeds cap {cfg['dim_cap']}",
        }
    lattice = submodules(V, cfg)
    if not lattice.complete:
        return {"verdict": "unknown (cap)", "reason": "lattice incomplete"}
    for member in lattice.members:
        dims = lattice.dims(member)
        if sum(dims) == 0 or dims == V.dims:
            continue
        val = theta.value(dims)
        if val > 0 or (strict and val == 0):
            return {
                "verdict": False,
                "witness": {
                    "dims": dims,
                    "value": str(val),
                    "bases": [[list(r) for r in rows] for rows in member],
                },
            }
    return {"verdict": True}


def is_semistable(V, theta, config=None):
    return _stability_verdict(V, theta, config, strict=False)


def is_stable(V, theta, config=None):
    return _stability_verdict(V, theta, config, strict=True)


def _stability_verdict(V, theta, config, strict):
    """The verdict of one field, or over Q the verdict of its reductions.

    A destabilizing Q-submodule saturates to an integral one, whose
    reduction is a destabilizing F_p-submodule of the same dimension vector
    at every prime; so one prime that finds none certifies ``True``.  A
    ``False`` over Q needs a nonzero weight or an F_p witness that lifts to
    a Q-submodule, on its own (integers in (-p/2, p/2]) or rationally
    reconstructed with the witnesses of the same pivots at other primes;
    otherwise (a prime may reduce a stable module to a degenerate one) the
    verdict is ``unknown``.  A prime that divides a
    denominator of V has no reduction: its entry in ``per_field`` is
    ``unknown`` with the reason, and the other primes decide."""
    cfg = dict(DEFAULT_CONFIG, **(config or {}))
    if V.p is not None:
        out = _check_one_field(V, theta, cfg, strict)
        out["field"] = V.p
        out["strict"] = strict
        return out
    results = {}
    for p in cfg["primes"]:
        try:
            Vp = _reduce_rep(V, p)
        except ZeroDivisionError as err:
            results[p] = {"verdict": "unknown", "reason": str(err)}
            continue
        results[p] = _check_one_field(Vp, theta, cfg, strict)
    verdicts = [res["verdict"] for res in results.values()]
    if any(v is True for v in verdicts):
        verdict = True
    elif (
        theta.value(V.dims) != 0
        or any(
            "witness" in res and _witness_lifts(V, res["witness"], p)
            for p, res in results.items()
        )
        or _reconstructed_witness_lifts(V, results)
    ):
        verdict = False
    elif all(v == "unknown (cap)" for v in verdicts):
        verdict = "unknown (cap)"
    else:
        verdict = "unknown"
    return {
        "verdict": verdict,
        "strict": strict,
        "label": "finite-field certified",
        "fields": sorted(results),
        "per_field": results,
    }


def _witness_lifts(V, witness, p):
    """Whether the F_p witness, lifted to integers in (-p/2, p/2], spans a
    subrepresentation of the rational module V."""
    spans = [
        Echelon(None, [[x - p if 2 * x > p else x for x in row] for row in rows])
        for rows in witness["bases"]
    ]
    try:
        R._subrep(V, spans)
    except ValueError:
        return False
    return True


def _rational_lift(residues):
    """The rational n/d with |n|, d <= sqrt(M/2) that reduces to r mod p for
    each pair (p, r), M the product of the primes: CRT, then Wang's rational
    reconstruction.  It is unique when it exists; ValueError otherwise."""
    M = math.prod(p for p, _ in residues)
    u = sum(r * (M // p) * pow(M // p, -1, p) for p, r in residues) % M
    bound = math.isqrt(M // 2)
    r0, r1, t0, t1 = M, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        raise ValueError(f"{u} mod {M} has no small rational lift")
    return Fraction(r1, t1)


def _reconstructed_witness_lifts(V, results):
    """Whether the witnesses of primes that share their pivot columns, read
    as reductions of one rational submodule, lift entry by entry with
    ``_rational_lift`` to a subrepresentation of the rational module V."""
    groups = {}
    for p, res in results.items():
        if "witness" in res:
            bases = res["witness"]["bases"]
            # a row of a reduced row echelon basis leads with its first 1
            pivots = tuple(tuple(row.index(1) for row in rows) for rows in bases)
            groups.setdefault(pivots, []).append((p, bases))
    for group in groups.values():
        primes = [p for p, _ in group]
        try:
            spans = [
                Echelon(None, [
                    [_rational_lift(list(zip(primes, entries))) for entries in zip(*rows)]
                    for rows in zip(*vertex)  # one row per prime
                ])
                for vertex in zip(*(bases for _, bases in group))
            ]
            R._subrep(V, spans)
        except ValueError:
            continue
        return True
    return False


def regular_tau_rigid_check(quiver, v, seed=0, config=None):
    """Check the rigid module of a regular real root for defect
    semistability and periodicity of its class."""
    if all(x == 0 for x in v):
        return {"accepted": False, "reason": "zero vector"}
    if quiver.defect(v) != 0:
        return {"accepted": False, "reason": "nonzero defect"}
    if not quiver.is_positive_real_root(v):
        return {"accepted": False, "reason": "not a positive real root"}
    cfg = dict(DEFAULT_CONFIG, **(config or {}))
    W = rigid_of_rank(quiver, v, seed=seed)
    theta = defect_weight(quiver)
    semi = is_semistable(W, theta, cfg)
    # periodicity of the class under the Coxeter transformation
    phi = quiver.coxeter_transformation()
    period = None
    cur = list(v)
    for k in range(1, 25):
        cur = quiver.coxeter_apply(cur, phi)
        if cur == list(v):
            period = k
            break
    return {
        "accepted": True,
        "rank": list(v),
        "semistable": semi["verdict"],
        "evidence": semi,
        "coxeter_period": period,
        "seed": seed,
    }
