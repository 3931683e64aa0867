"""Finite-dimensional bound quiver algebras with a path-normal-form basis.

The algebra is presented by an ordinary quiver (arrows plus nilpotent loops)
and a list of relations, each a linear combination of parallel paths.  The
basis is found by linear closure: enumerate all paths whose loop runs stay
below the nilpotency bound, span the two-sided ideal generated by the
relations, and echelonize; the surviving (non-pivot) paths form the basis.

Paths are pairs ``(source_vertex, gens)`` with ``gens`` a tuple of generator
ids applied left to right, so ``(i, (a, b))`` is "a first, then b" starting
at vertex i.  Left multiplication by a generator appends to the word.
"""

from __future__ import annotations

import functools

from glsw.exact import Echelon, _field
from glsw.quivers import ValuedQuiver

# the field of the structure constants
_QQ = _field(None)


class Gen:
    __slots__ = ("name", "src", "tgt", "is_loop", "max_run", "order")

    def __init__(self, name, src, tgt, is_loop, max_run, order):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.is_loop = is_loop
        self.max_run = max_run  # longest allowed consecutive run (loops only)
        self.order = order

    def __repr__(self):
        return f"Gen({self.name}, {self.src}->{self.tgt})"


class BoundQuiverAlgebra:
    """KQ/I for a quiver Q with loop-nilpotency bounds and extra relations."""

    def __init__(self, n, gens, relations):
        self.n = n
        self.gens = gens
        self.relations = relations
        self._mult_cache = {}
        self._opposite = None
        self._build_basis()

    # -- construction -------------------------------------------------------

    def path_target(self, path):
        src, gens = path
        return self.gens[gens[-1]].tgt if gens else src

    def _path_key(self, path):
        src, gens = path
        word = tuple(self.gens[g].order for g in gens)
        return (len(gens), word, src)

    def _enumerate_paths(self):
        paths = [(i, ()) for i in range(self.n)]
        frontier = list(paths)
        while frontier:
            nxt = []
            for path in frontier:
                tgt = self.path_target(path)
                for gid, g in enumerate(self.gens):
                    if g.src != tgt:
                        continue
                    if g.is_loop:
                        run = 0
                        for h in reversed(path[1]):
                            if h == gid:
                                run += 1
                            else:
                                break
                        if run + 1 > g.max_run:
                            continue
                    nxt.append((path[0], path[1] + (gid,)))
            paths.extend(nxt)
            frontier = nxt
            if len(paths) > 2_000_000:
                raise RuntimeError("path enumeration exploded; algebra too large")
        return paths

    def _is_allowed(self, path):
        run = 0
        prev = None
        for gid in path[1]:
            g = self.gens[gid]
            if gid == prev:
                run += 1
            else:
                run = 1
                prev = gid
            if g.is_loop and run > g.max_run:
                return False
        return True

    def _compose(self, first, second):
        """first then second; None if endpoints mismatch or the word is pruned."""
        if self.path_target(first) != second[0]:
            return None
        path = (first[0], first[1] + second[1])
        return path if self._is_allowed(path) else None

    def _build_basis(self):
        paths = self._enumerate_paths()
        by_source = {}
        by_target = {}
        for p in paths:
            by_source.setdefault(p[0], []).append(p)
            by_target.setdefault(self.path_target(p), []).append(p)
        # the ideal spanned by { prefix * relation * suffix }, with the paths
        # as columns in descending order, so each pivot is its row's largest
        self._columns = sorted(paths, key=self._path_key, reverse=True)
        self._column_of = {p: k for k, p in enumerate(self._columns)}
        self._ideal = Echelon(None)
        for rel in self.relations:
            if not rel:
                continue
            a = rel[0][1][0]
            b = self.path_target(rel[0][1])
            for prefix in by_target.get(a, []):
                for suffix in by_source.get(b, []):
                    elem = {}
                    for coef, term in rel:
                        whole = (prefix[0], prefix[1] + term[1] + suffix[1])
                        if self._is_allowed(whole):
                            k = self._column_of[whole]
                            elem[k] = elem.get(k, _QQ.zero) + coef
                    self._ideal.insert(elem)
        pivots = self._ideal.rows
        self.basis = [
            p for p in reversed(self._columns) if self._column_of[p] not in pivots
        ]
        self.basis_index = {p: k for k, p in enumerate(self.basis)}
        self.dim = len(self.basis)
        corners = {}
        for p in self.basis:
            corners.setdefault((p[0], self.path_target(p)), []).append(p)
        self._corners = {ij: tuple(ps) for ij, ps in corners.items()}

    # -- arithmetic in the algebra ------------------------------------------

    def idempotent(self, i):
        return {(i, ()): _QQ.one}

    def multiply_paths(self, p, q):
        """Product p*q where q is applied first (left-module convention)."""
        key = (p, q)
        cached = self._mult_cache.get(key)
        if cached is not None:
            return cached
        comp = self._compose(q, p)
        result = {}
        if comp is not None:
            normal = self._ideal.reduce({self._column_of[comp]: _QQ.one})
            result = {self._columns[k]: c for k, c in normal.items()}
        self._mult_cache[key] = result
        return result

    def multiply(self, x, y):
        """Product of two elements (dicts path -> coefficient); y acts first."""
        out = {}
        for p, cp in x.items():
            for q, cq in y.items():
                for r, cr in self.multiply_paths(p, q).items():
                    out[r] = out.get(r, _QQ.zero) + cp * cq * cr
        return {p: c for p, c in out.items() if c}

    def corner_basis(self, i, j):
        """Basis paths of e_j H e_i (paths from i to j), as a tuple."""
        return self._corners.get((i, j), ())

    def opposite(self):
        """The opposite algebra, built once; its opposite is ``self``."""
        if self._opposite is None:
            gens = [
                Gen(g.name, g.tgt, g.src, g.is_loop, g.max_run, g.order)
                for g in self.gens
            ]
            rels = [
                [(c, (self.path_target(p), tuple(reversed(p[1])))) for c, p in rel]
                for rel in self.relations
            ]
            self._opposite = BoundQuiverAlgebra(self.n, gens, rels)
            self._opposite._opposite = self
        return self._opposite

    def to_json_dict(self):
        return {
            "vertices": self.n,
            "generators": [
                {"name": g.name, "from": g.src, "to": g.tgt, "loop": g.is_loop}
                for g in self.gens
            ],
            "relations": [
                [
                    {"coef": [c.numerator, c.denominator],
                     "path": {"source": p[0], "word": list(p[1])}}
                    for c, p in rel
                ]
                for rel in self.relations
            ],
            "dimension": self.dim,
            "basis": [{"source": p[0], "word": list(p[1])} for p in self.basis],
        }


def gls_presentation(quiver: ValuedQuiver) -> BoundQuiverAlgebra:
    """The modulated algebra of a valued quiver as a bound quiver algebra.

    Per vertex i with c_i > 1 there is a loop with nilpotency c_i; per arrow
    s -> t with valuations (v_out, v_in) there are g = gcd(v_out, v_in) arrow
    copies, each commuting with the loops via
    loop_t^(v_out/g) * arrow = arrow * loop_s^(v_in/g).
    """
    return _gls_algebra(quiver.n, tuple(quiver.edges), tuple(quiver.c))


@functools.lru_cache(maxsize=32)
def _gls_algebra(n, edges, c):
    """``gls_presentation`` cached by the structure of the quiver."""
    import math

    quiver = ValuedQuiver(n, edges, c)
    gens = []
    loop_of = {}
    order = 0
    arrow_ids = []
    for s, t, vout, vin in quiver.edges:
        g = math.gcd(vout, vin)
        for m in range(g):
            gens.append(Gen(f"a{s}_{t}_{m}", s, t, False, None, order))
            arrow_ids.append((len(gens) - 1, s, t, vout // g, vin // g))
            order += 1
    for i in range(quiver.n):
        if quiver.c[i] > 1:
            loop_of[i] = len(gens)
            gens.append(Gen(f"e{i}", i, i, True, quiver.c[i] - 1, order))
            order += 1
    relations = []
    for gid, s, t, f_out, f_in in arrow_ids:
        # loop_t^f_out after the arrow equals the arrow after loop_s^f_in;
        # powers at a vertex without a loop (c = 1) vanish for exponent >= 1
        rel = []
        if t in loop_of and f_out <= quiver.c[t] - 1:
            rel.append((1, (s, (gid,) + (loop_of[t],) * f_out)))
        elif f_out == 0:
            rel.append((1, (s, (gid,))))
        if s in loop_of and f_in <= quiver.c[s] - 1:
            rel.append((-1, (s, (loop_of[s],) * f_in + (gid,))))
        elif f_in == 0:
            rel.append((-1, (s, (gid,))))
        if len(rel) == 2 and rel[0][1] == rel[1][1]:
            continue
        if rel:
            relations.append(rel)
    out = BoundQuiverAlgebra(quiver.n, gens, relations)
    out.quiver = quiver
    return out


# ---------------------------------------------------------------------------
# unfolding


def unfold(quiver: ValuedQuiver):
    """The simply-laced cover of the modulated algebra.

    Returns ``(cover, vertex_list)`` where ``cover`` is a ValuedQuiver with
    trivial symmetrizer (parallel arrow counts encoded in the valuation) and
    ``vertex_list[k] = (i, j)`` names cover vertex k as the j-th copy of
    original vertex i.
    """
    import math

    vertex_list = []
    index = {}
    for i in range(quiver.n):
        for k in range(quiver.c[i]):
            index[(i, k)] = len(vertex_list)
            vertex_list.append((i, k))
    counts = {}
    for s, t, vout, vin in quiver.edges:
        g = math.gcd(vout, vin)
        d = math.gcd(quiver.c[s], quiver.c[t])
        for ks in range(quiver.c[s]):
            for kt in range(quiver.c[t]):
                if (ks - kt) % d == 0:
                    key = (index[(s, ks)], index[(t, kt)])
                    counts[key] = counts.get(key, 0) + g
    edges = [(a, b, m, m) for (a, b), m in sorted(counts.items())]
    cover = ValuedQuiver(len(vertex_list), edges, (1,) * len(vertex_list))
    return cover, vertex_list


def unfold_class(quiver, v, vertex_list):
    """Image of a rank vector under the diagonal embedding into the cover."""
    return [v[i] for i, _ in vertex_list]


def fold_class(quiver, vbar, vertex_list):
    """Inverse of the diagonal embedding; None when not fiberwise constant."""
    out = [None] * quiver.n
    for val, (i, _) in zip(vbar, vertex_list):
        if out[i] is None:
            out[i] = val
        elif out[i] != val:
            return None
    return out


def cover_rotation(quiver, vertex_list):
    """The cover automorphism rotating each fiber (i, k) -> (i, k+1 mod c_i),
    as a permutation of cover vertex indices."""
    index = {ik: k for k, ik in enumerate(vertex_list)}
    return [index[(i, (k + 1) % quiver.c[i])] for i, k in vertex_list]
