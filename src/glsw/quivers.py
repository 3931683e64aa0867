"""Valued quivers with symmetrizers: bilinear forms, Weyl/Coxeter machinery,
the affine catalog, and affine root-system structure (null root, defect,
tubes, extending data)."""

from __future__ import annotations

import json
import math

from glsw.exact import Mat, kernel_basis


class ValuedQuiver:
    """A finite acyclic valued quiver with a symmetrizer.

    ``edges`` is a list of arrows ``(s, t, v_out, v_in)`` meaning an oriented
    edge s -> t with valuation pair (nu_st, nu_ts) = (v_out, v_in).  The
    symmetrizer ``c`` must satisfy c_s * v_out == c_t * v_in on every arrow.
    At most one edge per unordered vertex pair, no loops, no oriented cycles.
    """

    def __init__(self, n, edges, c, *, family=None, catalog_null_root=None,
                 extending_vertex=None, catalog_tier=None):
        self.n = n
        self.edges = [tuple(e) for e in edges]
        self.c = tuple(c)
        self.family = family
        self.catalog_null_root = (
            tuple(catalog_null_root) if catalog_null_root is not None else None
        )
        self.extending_vertex = extending_vertex
        self.catalog_tier = catalog_tier
        self._validate()

    def _validate(self):
        if len(self.c) != self.n or any(ci < 1 for ci in self.c):
            raise ValueError("symmetrizer must assign a positive weight per vertex")
        seen_pairs = set()
        for s, t, vout, vin in self.edges:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError("edge endpoint out of range")
            if s == t:
                raise ValueError("loops are not allowed")
            if vout < 1 or vin < 1:
                raise ValueError("valuations must be positive")
            pair = frozenset((s, t))
            if pair in seen_pairs:
                raise ValueError("at most one edge per vertex pair")
            seen_pairs.add(pair)
            if self.c[s] * vout != self.c[t] * vin:
                raise ValueError(
                    f"symmetrizer law fails on edge {s}->{t}: "
                    f"{self.c[s]}*{vout} != {self.c[t]}*{vin}"
                )
        if self.topological_order() is None:
            raise ValueError("oriented cycles are not allowed")

    # -- basic structure ----------------------------------------------------

    def neighbors(self, i):
        """(j, nu_ij, nu_ji) over all edges incident to i, either direction."""
        out = []
        for s, t, vout, vin in self.edges:
            if s == i:
                out.append((t, vout, vin))
            elif t == i:
                out.append((s, vin, vout))
        return out

    def topological_order(self):
        """Vertices in sinks-first order, or None if there is a cycle."""
        indeg = [0] * self.n  # count of outgoing arrows not yet retired
        preds = {i: [] for i in range(self.n)}
        for s, t, _, _ in self.edges:
            indeg[s] += 1
            preds[t].append(s)
        order = []
        ready = sorted(i for i in range(self.n) if indeg[i] == 0)
        while ready:
            v = ready.pop(0)
            order.append(v)
            newly = []
            for u in preds[v]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    newly.append(u)
            ready = sorted(ready + newly)
        return order if len(order) == self.n else None

    def opposite(self):
        return ValuedQuiver(
            self.n,
            [(t, s, vin, vout) for s, t, vout, vin in self.edges],
            self.c,
            family=self.family,
            catalog_null_root=self.catalog_null_root,
            extending_vertex=self.extending_vertex,
            catalog_tier=self.catalog_tier,
        )

    # -- forms --------------------------------------------------------------

    def _check_size(self, v):
        if len(v) != self.n:
            raise ValueError("vector size does not match quiver")

    def ringel_form(self, v, w):
        self._check_size(v)
        self._check_size(w)
        total = sum(self.c[i] * v[i] * w[i] for i in range(self.n))
        for s, t, vout, _ in self.edges:
            total -= self.c[s] * vout * v[s] * w[t]
        return total

    def tits_form(self, v):
        return self.ringel_form(v, v)

    def symmetrized_form(self, v, w):
        return self.ringel_form(v, w) + self.ringel_form(w, v)

    def symmetrized_matrix(self):
        """The symmetrized Cartan-type matrix B with B_ii = 2c_i and
        B_ij = -c_i nu_ij on edges."""
        rows = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            rows[i][i] = 2 * self.c[i]
        for s, t, vout, vin in self.edges:
            rows[s][t] = -self.c[s] * vout
            rows[t][s] = -self.c[t] * vin
        return rows

    # -- Weyl group ---------------------------------------------------------

    def simple_root(self, i):
        v = [0] * self.n
        v[i] = 1
        return v

    def reflect(self, i, v):
        """Simple reflection s_i(v) = v - ((v, a_i)/c_i) a_i."""
        self._check_size(v)
        k = 2 * v[i] - sum(nu_ij * v[j] for j, nu_ij, _ in self.neighbors(i))
        w = list(v)
        w[i] -= k
        return w

    def coxeter_transformation(self, order=None):
        """Matrix of the composite of all simple reflections in an admissible
        (sinks-first) order; independent of the chosen admissible order."""
        if order is None:
            order = self.topological_order()
        cols = []
        for j in range(self.n):
            v = self.simple_root(j)
            for i in order:
                v = self.reflect(i, v)
            cols.append(v)
        return [[cols[j][i] for j in range(self.n)] for i in range(self.n)]

    def coxeter_apply(self, v, mat=None):
        if mat is None:
            mat = self.coxeter_transformation()
        return [sum(row[j] * v[j] for j in range(self.n)) for row in mat]

    def admissible_orderings(self, limit=6):
        """Up to ``limit`` distinct sinks-first topological orderings."""
        succ = {i: [] for i in range(self.n)}
        indeg = [0] * self.n
        for s, t, _, _ in self.edges:
            succ[t].append(s)
            indeg[s] += 1
        out = []

        def rec(order, indeg):
            if len(out) >= limit:
                return
            if len(order) == self.n:
                out.append(list(order))
                return
            for v in range(self.n):
                if indeg[v] == 0 and v not in order:
                    nd = list(indeg)
                    nd[v] = -1
                    for u in succ[v]:
                        nd[u] -= 1
                    rec(order + [v], nd)

        rec([], indeg)
        return out

    # -- affine structure ---------------------------------------------------

    def null_root(self):
        """Primitive positive generator of the radical of the symmetrized form."""
        B = Mat.from_rows(self.symmetrized_matrix())
        ker = kernel_basis(B)
        if len(ker) != 1:
            raise ValueError(
                f"radical has rank {len(ker)}, expected 1 (quiver is not affine)"
            )
        v = ker[0]
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        if any(x < 0 for x in ints):
            if all(x <= 0 for x in ints):
                ints = [-x for x in ints]
            else:
                raise ValueError("radical generator is not sign-definite")
        if any(x == 0 for x in ints):
            raise ValueError("radical generator has zero coordinates")
        return ints

    def defect(self, v):
        return self.ringel_form(self.null_root(), v)

    def is_positive_real_root(self, v):
        self._check_size(v)
        v = list(v)
        if any(x < 0 for x in v) or not any(v):
            return False
        if self.tits_form(v) <= 0:
            return False
        try:
            eta = self.null_root()
        except ValueError:
            eta = None
        # each accepted reflection and each null-root peel lowers sum(c_i v_i)
        while True:
            nz = [i for i in range(self.n) if v[i]]
            if len(nz) == 1 and v[nz[0]] == 1:
                return True
            if any(x < 0 for x in v):
                return False
            moved = False
            for i in range(self.n):
                w = self.reflect(i, v)
                if sum(self.c[j] * w[j] for j in range(self.n)) < sum(
                    self.c[j] * v[j] for j in range(self.n)
                ):
                    v = w
                    moved = True
                    break
            if not moved:
                # trapped with positive coordinates: only possible in the
                # imaginary cone; peel null-root multiples as a safeguard
                if eta is not None and all(a >= b for a, b in zip(v, eta)):
                    v = [a - b for a, b in zip(v, eta)]
                    if not any(v):
                        return False
                else:
                    return False

    def positive_real_roots_bounded(self, height_cap):
        """All positive real roots with weighted height sum(c_i v_i) <= cap,
        generated by reflection closure from the simple roots."""
        seen = set()
        frontier = [tuple(self.simple_root(i)) for i in range(self.n)]
        for v in frontier:
            seen.add(v)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(self.n):
                    w = tuple(self.reflect(i, list(v)))
                    if w in seen or any(x < 0 for x in w):
                        continue
                    if sum(self.c[j] * w[j] for j in range(self.n)) > height_cap:
                        continue
                    seen.add(w)
                    nxt.append(w)
            frontier = nxt
        return sorted(seen)

    def tubes(self):
        """Regular (defect-zero) real-root structure: the tubes, their
        periodic quasi-simple roots, per-tube tiers and the global tier."""
        eta = self.null_root()
        cap = 3 * sum(ci * ei for ci, ei in zip(self.c, eta))
        bound = [3 * e for e in eta]
        regular = [
            v
            for v in self.positive_real_roots_bounded(cap)
            if self.ringel_form(eta, list(v)) == 0
            and all(a <= b for a, b in zip(v, bound))
        ]
        phi = self.coxeter_transformation()
        # Orbits under the Coxeter transformation are finite (it permutes the
        # layers of each tube cyclically), but higher layers can leave the
        # 3*eta box, so orbits are traced by direct iteration.
        orbits_of = {}
        for v in regular:
            orbit = [v]
            w = tuple(self.coxeter_apply(list(v), phi))
            while w != v:
                if len(orbit) > 10000:
                    raise RuntimeError("non-periodic Coxeter orbit on a regular root")
                orbit.append(w)
                w = tuple(self.coxeter_apply(list(w), phi))
            orbits_of[v] = orbit
        period = 1
        for orbit in orbits_of.values():
            period = period * len(orbit) // math.gcd(period, len(orbit))

        def leq_phi(a, b):
            # Phi^k a <= Phi^k b for every k, read off the traced orbits
            x, y = orbits_of[a], orbits_of[b]
            return all(
                p <= q
                for k in range(period)
                for p, q in zip(x[k % len(x)], y[k % len(y)])
            )

        quasi = [
            v
            for v in regular
            if not any(w != v and leq_phi(w, v) for w in regular)
        ]
        tubes = []
        placed = set()
        for v in quasi:
            if v in placed:
                continue
            orbit = orbits_of[v]
            placed.update(orbit)
            tier = self.tits_form(list(v))
            total = [sum(col) for col in zip(*orbit)]
            if total[0] % eta[0] or any(
                total[i] * eta[0] != total[0] * eta[i] for i in range(self.n)
            ):
                raise RuntimeError("tube orbit sum is not a null-root multiple")
            # The orbit sum is m*eta; m equals the tier except in the twisted
            # families, where quasi-simples can sum to a smaller multiple.
            tubes.append(
                {
                    "quasi_simples": orbit,
                    "rank": len(orbit),
                    "tier": tier,
                    "orbit_sum_multiple": total[0] // eta[0],
                }
            )
        tubes.sort(key=lambda t: (t["tier"], t["rank"], t["quasi_simples"]))
        computed_tier = max((t["tier"] for t in tubes), default=None)
        return {
            "null_root": eta,
            "tubes": tubes,
            "tier": computed_tier,
            "catalog_tier": self.catalog_tier,
            "tier_agrees": (
                None if self.catalog_tier is None else computed_tier == self.catalog_tier
            ),
        }

    def extending_data(self):
        """Reduced root and one-edge extension type attached to the marked
        extending vertex.  Not defined for cyclic type of rank >= 2."""
        if self.extending_vertex is None:
            raise ValueError("no extending vertex marked on this quiver")
        if self.family == "A":
            raise ValueError("extension type is not defined for cyclic type")
        e = self.extending_vertex
        eta = self.null_root()
        if eta[e] != 1:
            raise ValueError("extending vertex must carry null-root entry 1")
        alpha = self.simple_root(e)
        diff = [a - b for a, b in zip(eta, alpha)]
        if self.family in ("BC", "BC1"):
            if any(x % 2 for x in diff):
                raise ValueError("reduced root is not integral")
            eta_red = [x // 2 for x in diff]
        else:
            eta_red = diff
        if not self.is_positive_real_root(eta_red):
            raise ValueError("reduced root is not a positive real root")
        c0 = self.c[e]
        c1 = self.tits_form(eta_red)
        m = -self.symmetrized_form(alpha, eta_red)
        if m <= 0 or m % c0 or m % c1:
            raise ValueError("extension valuations are not integral")
        ups = ValuedQuiver(2, [(0, 1, m // c0, m // c1)], (c0, c1))
        return {
            "vertex": e,
            "eta_reduced": eta_red,
            "type": ups,
            "c": (c0, c1),
            "valuation": (m // c0, m // c1),
        }

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "vertices": self.n,
            "edges": [
                {"from": s, "to": t, "v_out": vout, "v_in": vin}
                for s, t, vout, vin in self.edges
            ],
            "symmetrizer": list(self.c),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            d["vertices"],
            [(e["from"], e["to"], e["v_out"], e["v_in"]) for e in d["edges"]],
            d["symmetrizer"],
        )

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))

    def __repr__(self):
        name = self.family or "quiver"
        return f"ValuedQuiver({name}, n={self.n}, edges={self.edges}, c={self.c})"


# ---------------------------------------------------------------------------
# affine catalog


def _catalog_row(family, rank):
    """Undirected valued graph data: (n_vertices, edges as (a,b,nu_ab,nu_ba),
    symmetrizer, null_root, extending_vertex, tier)."""
    if family == "A1":
        return 2, [(0, 1, 2, 2)], (1, 1), (1, 1), 1, 1
    if family == "A":
        n = rank
        if n is None or n < 2:
            raise ValueError("cyclic type needs rank >= 2")
        edges = [(i, i + 1, 1, 1) for i in range(n)] + [(0, n, 1, 1)]
        return n + 1, edges, (1,) * (n + 1), (1,) * (n + 1), n, 1
    if family == "B":
        n = rank
        if n is None or n < 2:
            raise ValueError("rank >= 2 required")
        edges = [(0, 1, 2, 1)]
        edges += [(i, i + 1, 1, 1) for i in range(1, n - 1)]
        edges += [(n - 1, n, 1, 2)]
        c = (1,) + (2,) * (n - 1) + (1,)
        return n + 1, edges, c, (1,) * (n + 1), n, 2
    if family == "C":
        n = rank
        if n is None or n < 2:
            raise ValueError("rank >= 2 required")
        edges = [(0, 1, 1, 2)]
        edges += [(i, i + 1, 1, 1) for i in range(1, n - 1)]
        edges += [(n - 1, n, 2, 1)]
        c = (2,) + (1,) * (n - 1) + (2,)
        return n + 1, edges, c, (1,) + (2,) * (n - 1) + (1,), n, 1
    if family == "D":
        n = rank
        if n is None or n < 4:
            raise ValueError("rank >= 4 required")
        edges = [(0, 2, 1, 1), (1, 2, 1, 1)]
        edges += [(i, i + 1, 1, 1) for i in range(2, n - 2)]
        edges += [(n - 2, n - 1, 1, 1), (n - 2, n, 1, 1)]
        eta = (1, 1) + (2,) * (n - 3) + (1, 1)
        return n + 1, edges, (1,) * (n + 1), eta, n, 1
    if family == "BC1":
        return 2, [(0, 1, 1, 4)], (4, 1), (1, 2), 0, 2
    if family == "BC":
        n = rank
        if n is None or n < 2:
            raise ValueError("rank >= 2 required")
        edges = [(0, 1, 2, 1)]
        edges += [(i, i + 1, 1, 1) for i in range(1, n - 1)]
        edges += [(n - 1, n, 2, 1)]
        c = (1,) + (2,) * (n - 1) + (4,)
        return n + 1, edges, c, (2,) * n + (1,), n, 2
    if family == "BD":
        n = rank
        if n is None or n < 3:
            raise ValueError("rank >= 3 required")
        edges = [(0, 1, 2, 1)]
        edges += [(i, i + 1, 1, 1) for i in range(1, n - 2)]
        edges += [(n - 2, n - 1, 1, 1), (n - 2, n, 1, 1)]
        c = (1,) + (2,) * n
        return n + 1, edges, c, (2,) * (n - 1) + (1, 1), n, 1
    if family == "CD":
        n = rank
        if n is None or n < 3:
            raise ValueError("rank >= 3 required")
        edges = [(0, 1, 1, 2)]
        edges += [(i, i + 1, 1, 1) for i in range(1, n - 2)]
        edges += [(n - 2, n - 1, 1, 1), (n - 2, n, 1, 1)]
        c = (2,) + (1,) * n
        return n + 1, edges, c, (1,) + (2,) * (n - 2) + (1, 1), n, 2
    if family == "E6":
        edges = [(0, 1, 1, 1), (1, 2, 1, 1), (0, 3, 1, 1), (3, 4, 1, 1),
                 (0, 5, 1, 1), (5, 6, 1, 1)]
        return 7, edges, (1,) * 7, (3, 2, 1, 2, 1, 2, 1), 6, 1
    if family == "E7":
        edges = [(i, i + 1, 1, 1) for i in range(6)] + [(3, 7, 1, 1)]
        return 8, edges, (1,) * 8, (1, 2, 3, 4, 3, 2, 1, 2), 6, 1
    if family == "E8":
        edges = [(i, i + 1, 1, 1) for i in range(7)] + [(2, 8, 1, 1)]
        return 9, edges, (1,) * 9, (2, 4, 6, 5, 4, 3, 2, 1, 3), 7, 1
    if family == "F41":
        edges = [(0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 1), (3, 4, 1, 1)]
        return 5, edges, (1, 1, 2, 2, 2), (2, 4, 3, 2, 1), 4, 1
    if family == "F42":
        edges = [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1), (3, 4, 1, 1)]
        return 5, edges, (2, 2, 1, 1, 1), (1, 2, 3, 2, 1), 4, 2
    if family == "G21":
        edges = [(0, 1, 3, 1), (1, 2, 1, 1)]
        return 3, edges, (1, 3, 3), (3, 2, 1), 2, 1
    if family == "G23":
        edges = [(0, 1, 1, 3), (1, 2, 1, 1)]
        return 3, edges, (3, 1, 1), (1, 2, 1), 2, 3
    raise ValueError(f"unknown family {family!r}")


CATALOG_FAMILIES = (
    "A1", "A", "B", "C", "D", "BC1", "BC", "BD", "CD",
    "E6", "E7", "E8", "F41", "F42", "G21", "G23",
)

_FIXED_RANK = {"A1", "BC1", "E6", "E7", "E8", "F41", "F42", "G21", "G23"}


def catalog_affine(family, rank=None, orientation=None):
    """Build a catalog quiver with its minimal symmetrizer.

    ``orientation`` may list directed pairs (src, tgt), one per edge, to
    override the default.  The default orients every edge from the
    higher-numbered vertex to the lower-numbered one, making the extending
    vertex a source -- except in family BC1, where the extending vertex 0 is
    a sink.
    """
    if family not in CATALOG_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family in _FIXED_RANK and rank is not None:
        raise ValueError(f"family {family!r} has fixed rank")
    n, undirected, c, eta, ext, tier = _catalog_row(family, rank)
    edges = []
    for a, b, nu_ab, nu_ba in undirected:
        if family == "BC1":
            src, tgt = (b, a) if (a, b) == (0, 1) else (max(a, b), min(a, b))
        else:
            src, tgt = max(a, b), min(a, b)
        if orientation is not None:
            if (a, b) in [tuple(p) for p in orientation]:
                src, tgt = a, b
            elif (b, a) in [tuple(p) for p in orientation]:
                src, tgt = b, a
            else:
                raise ValueError(f"orientation missing edge {{{a},{b}}}")
        if (src, tgt) == (a, b):
            edges.append((a, b, nu_ab, nu_ba))
        else:
            edges.append((b, a, nu_ba, nu_ab))
    q = ValuedQuiver(
        n, edges, c,
        family=family,
        catalog_null_root=eta,
        extending_vertex=ext,
        catalog_tier=tier,
    )
    computed = q.null_root()
    if tuple(computed) != tuple(eta):
        raise AssertionError(
            f"catalog null root mismatch for {family}: {computed} vs {eta}"
        )
    return q
