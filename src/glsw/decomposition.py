"""Canonical decomposition of rank vectors by certified generic sampling.

A nonnegative rank vector v over an affine valued quiver splits uniquely as
v = m*eta + w with eta the null root and w the rank vector of a rigid module.
The split is computed on the simply-laced cover: sample a generic
representation of the cover over a large prime field, decompose it with the
Krull-Schmidt engine, certify by Ext-vanishing and seed agreement, and fold
the answer back.
"""

from __future__ import annotations

from glsw.algebra import cover_rotation, fold_class, gls_presentation, unfold, unfold_class
from glsw import reps as R

GENERIC_PRIME = 101


class CertificationError(RuntimeError):
    """Raised when randomized decomposition evidence fails to certify."""


def _summand_profile(algebra, d, seed):
    """Decompose a generic representation of dimension d; returns a sorted
    list of (dimension vector, multiplicity)."""
    V = R.random_locally_free(algebra, d, seed=seed, p=GENERIC_PRIME)
    parts = R.krull_schmidt(V, seed=seed)
    counts = {}
    for part in parts:
        counts[tuple(part.dims)] = counts.get(tuple(part.dims), 0) + 1
    return sorted(counts.items()), parts


def kac_decomposition_unfolded(cover, d, seed=0):
    """Generic summand dimension vectors for the cover quiver.

    Certified by (a) pairwise Ext-vanishing between the summands of the
    sampled representation and (b) agreement of the profile under a second
    seed.  Raises CertificationError (with the seeds) otherwise.
    """
    algebra = gls_presentation(cover)
    if all(x == 0 for x in d):
        return {"summands": [], "seeds": [seed], "prime": GENERIC_PRIME}
    eta_bar = cover.null_root()
    last_error = None
    for round_ in range(2):
        s0 = seed + 10_000 * round_
        profile, parts = _summand_profile(algebra, list(d), s0)
        profile2, _ = _summand_profile(algebra, list(d), s0 + 1)
        profile = _normalize_profile(profile, eta_bar)
        profile2 = _normalize_profile(profile2, eta_bar)
        if profile != profile2:
            last_error = f"profiles disagree between seeds {s0} and {s0 + 1}"
            continue
        # one presentation per summand serves every ordered pair
        pres = [R.minimal_presentation(part) for part in parts]
        ok = all(
            P.ext1_dim(W) == 0
            for i, P in enumerate(pres)
            for j, W in enumerate(parts)
            if i != j
        )
        if ok:
            return {
                "summands": [(list(t), k) for t, k in profile],
                "seeds": [s0, s0 + 1],
                "prime": GENERIC_PRIME,
            }
        last_error = f"summands of seed {s0} have extensions between them"
    raise CertificationError(last_error)


def _normalize_profile(profile, eta_bar):
    """Fold summands of dimension k*eta_bar into k copies of eta_bar.

    Over a finite base field the homogeneous part of a generic module may
    appear as one indecomposable per closed point of the parameter line, of
    dimension (degree of the point) * eta_bar; the geometric decomposition
    sees it as that many null-root summands.
    """
    counts = {}
    for dv, mult in profile:
        k = _is_multiple(dv, eta_bar)
        if k:
            key = tuple(eta_bar)
            counts[key] = counts.get(key, 0) + k * mult
        else:
            counts[tuple(dv)] = counts.get(tuple(dv), 0) + mult
    return sorted(counts.items())


def _is_multiple(v, base):
    """Return k if v == k * base for a positive integer k, else 0."""
    pairs = [(a, b) for a, b in zip(v, base)]
    k = None
    for a, b in pairs:
        if b == 0:
            if a != 0:
                return 0
            continue
        if a % b:
            return 0
        q = a // b
        if k is None:
            k = q
        elif k != q:
            return 0
    return k or 0


def folded_decomposition(quiver, v, seed=0):
    """Split v = m*eta + w and certify via the cover; returns a report dict."""
    if any(x < 0 for x in v):
        raise ValueError("rank vector must be nonnegative")
    cover, vertex_list = unfold(quiver)
    eta = quiver.null_root()
    vbar = unfold_class(quiver, v, vertex_list)
    unfolded = kac_decomposition_unfolded(cover, vbar, seed=seed)
    rho = cover_rotation(quiver, vertex_list)
    remaining = {tuple(dv): mult for dv, mult in unfolded["summands"]}
    # _normalize_profile turned every k*eta_bar into k copies of eta_bar
    m = remaining.pop(tuple(cover.null_root()), 0)
    certified = []
    # group the non-null summands into rotation orbits: the multiset is
    # rotation invariant when each orbit has one multiplicity, and an orbit
    # sum is constant along fibers even where a single summand is not
    for dv in sorted(remaining):
        if dv not in remaining:
            continue
        orbit = [dv]
        cur = tuple(dv[rho.index(j)] for j in range(len(dv)))
        while cur != dv:
            orbit.append(cur)
            cur = tuple(cur[rho.index(j)] for j in range(len(cur)))
        mults = {remaining.pop(member, 0) for member in orbit}
        if len(mults) != 1 or 0 in mults:
            raise CertificationError("summand multiset is not rotation invariant")
        total = [sum(col) for col in zip(*orbit)]
        folded = fold_class(quiver, total, vertex_list)
        if folded is None:
            raise CertificationError(
                f"orbit sum {total} does not fold to a constant class"
            )
        certified.append((folded, mults.pop()))
    w = [a - m * e for a, e in zip(v, eta)]
    if any(x < 0 for x in w):
        raise CertificationError("folded rigid part went negative")
    if m > 0 and quiver.defect(w) != 0:
        raise CertificationError("rigid part of a degenerate vector has defect")
    for folded, _ in certified:
        if not quiver.is_positive_real_root(folded):
            raise CertificationError(f"summand {folded} is not a real root")
    return {
        "input": list(v),
        "m": m,
        "w": w,
        "null_root": eta,
        "summands": [
            {"class": folded, "multiplicity": mult} for folded, mult in certified
        ],
        "unfolded": unfolded,
        "seeds": unfolded["seeds"],
        "prime": GENERIC_PRIME,
    }


def rigid_of_rank(quiver, w, seed=0):
    """The rigid locally free module of rank w, by rejection sampling.

    Samples over the rationals until self-extensions vanish (at most 5
    attempts), then re-samples once more and checks the two results are
    isomorphic.
    """
    algebra = gls_presentation(quiver)
    found = []
    tried = []
    for k in range(6):
        s = seed + 100 * k
        tried.append(s)
        V = R.random_locally_free(algebra, w, seed=s)
        if R.ext1_dim(V, V) == 0:
            found.append(V)
            if len(found) == 2:
                break
    if len(found) < 2:
        raise CertificationError(
            f"no rigid sample of rank {list(w)} after seeds {tried}"
        )
    verdict, detail = R.is_isomorphic(found[0], found[1], seed=seed)
    if not verdict:
        raise CertificationError(
            f"two rigid samples of rank {list(w)} are not isomorphic ({detail})"
        )
    return found[0]


def generic_decomposition_report(quiver, v, seed=0):
    """Decompose a generic locally free module of rank v and compare with the
    arithmetic split v = m*eta + w."""
    algebra = gls_presentation(quiver)
    base = folded_decomposition(quiver, v, seed=seed)
    eta = base["null_root"]
    report = dict(base)
    for attempt in range(2):
        s = seed + 77_000 * attempt
        V = R.random_locally_free(algebra, v, seed=s, p=GENERIC_PRIME)
        parts = R.krull_schmidt(V, seed=s)
        profile = []
        eta_count = 0
        ok = True
        for part in parts:
            okl, rv = R.is_locally_free(part)
            entry = {
                "dims": part.dims,
                "rank": rv if okl else None,
                "end": R.end_dim(part),
                "ext_self": R.ext1_dim(part, part),
            }
            profile.append(entry)
            k = _is_multiple(rv, eta) if okl else 0
            if k:
                eta_count += k
                # a degree-k closed point carries a degree-k endomorphism field
                if entry["end"] != k:
                    ok = False  # degenerate parameter; retry resolves
        if eta_count != base["m"]:
            ok = False
        if ok:
            report["module_evidence"] = {
                "seed": s,
                "prime": GENERIC_PRIME,
                "eta_bricks": eta_count,
                "summands": profile,
            }
            return report
    raise CertificationError(
        f"generic module profile disagrees with (m, w) for v={list(v)} seed={seed}"
    )
