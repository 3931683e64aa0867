"""Representations of bound quiver algebras as exact matrices.

Provides validation, local freeness, Hom/Ext spaces, minimal projective
presentations and g-vectors, the Auslander-Reiten translation via the
transpose-dual construction, Krull-Schmidt decomposition over prime fields,
isomorphism testing and random locally free sampling.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from glsw.exact import (
    Echelon,
    Mat,
    _field,
    factor_primefield,
    kernel_basis,
    minimal_polynomial,
    nilpotent_block_profile,
    poly_eval_mat,
    poly_lcm,
    poly_mul,
    rank,
    rref,  # unused; perfbench/tests checks that the tracer rebinds reps.rref
    sparse_kernel_basis,
)


class Rep:
    """A representation: per-vertex dimensions and one matrix per generator."""

    def __init__(self, algebra, dims, mats, p=None):
        self.algebra = algebra
        self.dims = list(dims)
        self.mats = dict(mats)
        self.p = p
        for gid, g in enumerate(algebra.gens):
            m = self.mats.get(gid)
            if m is None:
                m = Mat.zero(self.dims[g.tgt], self.dims[g.src], p)
                self.mats[gid] = m
            if (m.rows, m.cols) != (self.dims[g.tgt], self.dims[g.src]):
                raise ValueError(f"matrix shape mismatch on generator {g.name}")
            if m.p != p:
                raise ValueError("field tag mismatch")

    def total_dim(self):
        return sum(self.dims)

    def path_matrix(self, path):
        """Matrix of a basis path acting V(source) -> V(target)."""
        src, gens = path
        if not gens:
            return Mat.identity(self.dims[src], self.p)
        m = self.mats[gens[0]]
        for gid in gens[1:]:
            m = self.mats[gid] * m
        return m

    def element_matrix(self, elem):
        """Matrix of an algebra element supported on one corner e_j H e_i."""
        paths = list(elem)
        src = paths[0][0]
        tgt = self.algebra.path_target(paths[0])
        out = None
        for path, coef in elem.items():
            if path[0] != src or self.algebra.path_target(path) != tgt:
                raise ValueError("element is not supported on a single corner")
            m = self.path_matrix(path)
            if coef != 1:
                m = m.scale(coef)
            out = m if out is None else out + m
        return out


def zero_rep(algebra, p=None):
    return Rep(algebra, [0] * algebra.n, {}, p)


def same_algebra(A, B):
    """Structural equality of two bound quiver algebras."""
    if A is B:
        return True
    sig = lambda X: (
        X.n,
        [(g.name, g.src, g.tgt, g.is_loop, g.max_run) for g in X.gens],
        X.relations,
    )
    return sig(A) == sig(B)


def direct_sum(V, *more):
    """The block-diagonal sum of V and the modules in ``more``."""
    parts = (V, *more)
    if any(not same_algebra(V.algebra, W.algebra) or V.p != W.p for W in more):
        raise ValueError("summands live over different algebras or fields")
    dims = [sum(d) for d in zip(*(X.dims for X in parts))]
    mats = {}
    for gid, g in enumerate(V.algebra.gens):
        m = Mat.zero(dims[g.tgt], dims[g.src], V.p)
        r0 = c0 = 0
        for X in parts:
            a = X.mats[gid]
            for i in range(a.rows):
                start = (r0 + i) * m.cols + c0
                m.data[start : start + a.cols] = a.row(i)
            r0 += a.rows
            c0 += a.cols
        mats[gid] = m
    return Rep(V.algebra, dims, mats, V.p)


def validate(V):
    """Evaluate every relation and loop-nilpotency bound; list of violations."""
    A = V.algebra
    bad = []
    for gid, g in enumerate(A.gens):
        if g.is_loop:
            m = V.mats[gid].power(g.max_run + 1)
            if not m.is_zero():
                bad.append(("nilpotency", g.name))
    for k, rel in enumerate(A.relations):
        elem = {}
        for coef, path in rel:
            elem[path] = elem.get(path, 0) + coef
        if elem and not V.element_matrix(elem).is_zero():
            bad.append(("relation", k))
    return bad


def vertex_capacity(algebra, i):
    """Nilpotency degree of the loop at vertex i (1 when there is no loop)."""
    caps = [g.max_run + 1 for g in algebra.gens if g.is_loop and g.src == i]
    if len(caps) > 1:
        raise ValueError("multiple loops at one vertex")
    return caps[0] if caps else 1


def is_locally_free(V):
    """(flag, rank vector): free over each local loop algebra?"""
    A = V.algebra
    ranks = []
    for i in range(A.n):
        c = vertex_capacity(A, i)
        if V.dims[i] % c:
            return False, None
        r = V.dims[i] // c
        if c > 1:
            gid = next(
                k for k, g in enumerate(A.gens) if g.is_loop and g.src == i
            )
            profile = nilpotent_block_profile(V.mats[gid])
            if profile != [c] * r:
                return False, None
        ranks.append(r)
    return True, ranks


# ---------------------------------------------------------------------------
# standard modules


def projective(algebra, i, p=None):
    """P_i: vertex spaces spanned by basis paths from i, generators acting by
    left multiplication."""
    return _path_module(algebra, i, p, right=False)


def _path_module(algebra, i, p, right):
    """P_i, or with ``right`` the right projective e_i H as a representation
    of the opposite algebra.

    The vertex-v space is spanned by the basis paths i -> v, or v -> i for
    e_i H, and a generator acts by multiplication on that side; in the
    opposite algebra it runs g.tgt -> g.src.  Keeping the paths of
    ``algebra`` makes the coordinates of e_i H those of presentation entries.
    """
    corners = [
        algebra.corner_basis(v, i) if right else algebra.corner_basis(i, v)
        for v in range(algebra.n)
    ]
    index = [{path: k for k, path in enumerate(c)} for c in corners]
    dims = [len(c) for c in corners]
    mats = {}
    coerce = _field(p).coerce
    for gid, g in enumerate(algebra.gens):
        src, tgt = (g.tgt, g.src) if right else (g.src, g.tgt)
        arrow = (g.src, (gid,))
        m = Mat.zero(dims[tgt], dims[src], p)
        for col, path in enumerate(corners[src]):
            if right:
                prod = algebra.multiply_paths(path, arrow)
            else:
                prod = algebra.multiply_paths(arrow, path)
            for q, coef in prod.items():
                m.data[index[tgt][q] * m.cols + col] = coerce(coef)
        mats[gid] = m
    return Rep(algebra.opposite() if right else algebra, dims, mats, p)


def dual(V, opposite_algebra):
    """K-dual: a left module over the opposite algebra with transposed matrices."""
    mats = {gid: V.mats[gid].transpose() for gid in range(len(V.algebra.gens))}
    return Rep(opposite_algebra, V.dims, mats, V.p)


def injective(algebra, i, p=None):
    """I_i as the linear dual of the right projective at i."""
    right = projective(algebra.opposite(), i, p)
    return dual(right, algebra)


def generalized_simple(algebra, i, p=None):
    """E_i: the local loop algebra at i placed at vertex i, zero elsewhere."""
    c = vertex_capacity(algebra, i)
    dims = [0] * algebra.n
    dims[i] = c
    mats = {}
    for gid, g in enumerate(algebra.gens):
        if g.is_loop and g.src == i:
            mats[gid] = _block_regular_nilpotent(c, 1, p)
    return Rep(algebra, dims, mats, p)


def simple(algebra, i, p=None):
    dims = [0] * algebra.n
    dims[i] = 1
    return Rep(algebra, dims, {}, p)


# ---------------------------------------------------------------------------
# Hom and Ext


def _solve_blocks(shapes, equations, p):
    """Basis of the solutions (X_b) of the equations sum L * X_b * R = 0.

    X_b has shape ``shapes[b]``; an equation is a list of ``(L, b, R)``
    terms, with ``None`` standing for an identity factor.  Each entry of an
    equation is one sparse row over the entries of the X_b, laid out row by
    row in block order, read off the nonzeros of the rows of L and the
    columns of R.  Each solution is a list of matrices X_b, canonicalized by
    ``sparse_kernel_basis``."""
    offs = []
    total = 0
    for r, c in shapes:
        offs.append(total)
        total += r * c
    if total == 0:
        return []
    one = _field(p).one
    rows = []
    for terms in equations:
        parts = []
        for L, b, R in terms:
            r, c = shapes[b]
            if L is None:
                left = [[(k, one)] for k in range(r)]
            else:
                left = [
                    [(k, x) for k, x in enumerate(L.row(i)) if x] for i in range(L.rows)
                ]
            if R is None:
                right = [[(l, one)] for l in range(c)]
            else:
                right = [
                    [(l, y) for l, y in enumerate(R.data[j :: R.cols]) if y]
                    for j in range(R.cols)
                ]
            parts.append((offs[b], c, left, right))
        # entry (er, ec) of L X R is sum_{k, l} L[er, k] X[k, l] R[l, ec]
        height, width = len(parts[0][2]), len(parts[0][3])
        for er in range(height):
            for ec in range(width):
                row = {}
                for off, c, left, right in parts:
                    for k, x in left[er]:
                        base = off + k * c
                        for l, y in right[ec]:
                            # the 1 of an identity factor needs no product
                            v = y if x is one else x if y is one else x * y
                            row[base + l] = row.get(base + l, 0) + v
                if row:
                    rows.append(row)
    return [
        [Mat(r, c, vec[o : o + r * c], p) for o, (r, c) in zip(offs, shapes)]
        for vec in sparse_kernel_basis(rows, total, p)
    ]


def hom_basis(V, W):
    """Basis of intertwiners V -> W, each a list of per-vertex matrices f_i.

    The f_i solve f_t V(a) - W(a) f_s = 0, one block equation per generator
    a: s -> t, through ``_solve_blocks``."""
    if not same_algebra(V.algebra, W.algebra) or V.p != W.p:
        raise ValueError("mismatched algebras or fields")
    shapes = [(W.dims[i], V.dims[i]) for i in range(V.algebra.n)]
    equations = [
        [(None, g.tgt, V.mats[gid]), (-W.mats[gid], g.src, None)]
        for gid, g in enumerate(V.algebra.gens)
    ]
    return _solve_blocks(shapes, equations, V.p)


def hom_dim(V, W):
    return len(hom_basis(V, W))


def end_dim(V):
    return len(hom_basis(V, V))


class Presentation:
    """Minimal projective presentation P1 -> P0 -> V -> 0 over ``algebra``,
    with entries in the field of ``p``."""

    def __init__(self, algebra, p, proj0, proj1, psi, injective):
        self.algebra = algebra
        self.p = p
        self.proj0 = proj0  # list of vertices (with multiplicity)
        self.proj1 = proj1
        self.psi = psi  # psi[r][s] in e_{proj1[r]} H e_{proj0[s]}
        self.injective = injective  # psi is injective: pd V <= 1

    def g_vector(self):
        g = [0] * self.algebra.n
        for b in self.proj0:
            g[b] += 1
        for a in self.proj1:
            g[a] -= 1
        return g

    def hom_matrix(self, W):
        """The matrix of Hom(psi, W): Hom(P0, W) -> Hom(P1, W), with rows over
        the W(a_r), columns over the W(b_s) and block (r, s) the action of
        psi[r][s] on W, since Hom(P_i, W) = W(i)."""
        data = []
        for a, row in zip(self.proj1, self.psi):
            blocks = [
                W.element_matrix(entry) if entry else Mat.zero(W.dims[a], W.dims[b], W.p)
                for b, entry in zip(self.proj0, row)
            ]
            for i in range(W.dims[a]):
                for m in blocks:
                    data += m.row(i)
        rows = sum(W.dims[a] for a in self.proj1)
        return Mat(rows, sum(W.dims[b] for b in self.proj0), data, W.p)

    def ext1_dim(self, W):
        """dim Ext^1(V, W) for the presented V, as the dimension of the
        cokernel of ``hom_matrix(W)``.

        That cokernel is Ext^1(V, W) only when V has projective dimension at
        most 1 (as locally free modules do), so ``ValueError`` is raised when
        psi is not injective."""
        if not self.injective:
            raise ValueError(
                "presented module has projective dimension above 1; "
                "the cokernel of Hom(psi, W) is not Ext^1"
            )
        M = self.hom_matrix(W)
        return M.rows - rank(M)

    def transpose(self):
        """Tr V, the cokernel of Hom(psi, H) between right modules, as a left
        module over the opposite algebra.

        Its vertex-v space is the cokernel of Hom(psi, P_v), because e_a H e_v
        is the vertex-a space of the left projective P_v, in the same path
        basis as the vertex-v space of the right projective e_a H."""
        A, p = self.algebra, self.p
        parts = [_path_module(A, a, p, right=True) for a in self.proj1]
        amb = direct_sum(zero_rep(A.opposite(), p), *parts)
        spans = [
            Echelon(p, self.hom_matrix(projective(A, v, p)).transpose().rowlist())
            for v in range(A.n)
        ]
        return _quotient_rep(amb, spans)


def _top_generators(V):
    """(vertex, index) pairs whose coordinate vectors project to a basis of
    V / rad V: the indices outside the pivots of rad V, the span of the
    generator images."""
    A = V.algebra
    gens = []
    for i in range(A.n):
        rad = Echelon(V.p)
        for gid, g in enumerate(A.gens):
            if g.tgt == i:
                for col in V.mats[gid].transpose().rowlist():
                    rad.insert(col)
        gens.extend((i, j) for j in range(V.dims[i]) if j not in rad.rows)
    return gens


def minimal_presentation(V):
    A = V.algebra
    coerce = _field(V.p).coerce
    top = _top_generators(V)
    proj0 = [i for i, _ in top]
    cover = _cover_matrices(V, top)
    proj1 = []
    psi = []
    for a, vec in _kernel_top(V, proj0, cover):
        # vec lives in P0(a) = direct sum of e_a H e_{b_s}; split into entries
        row = []
        pos = 0
        for b in proj0:
            entry = {}
            for q in A.corner_basis(b, a):
                c = vec[pos]
                pos += 1
                if c:
                    entry[q] = coerce(c)
            row.append(entry)
        proj1.append(a)
        psi.append(row)
    # P1 -> K = ker(P0 -> V) is onto, so psi is injective iff the dims agree
    size = [sum(len(A.corner_basis(b, v)) for v in range(A.n)) for b in range(A.n)]
    injective = sum(size[a] for a in proj1) == sum(size[b] for b in proj0) - sum(V.dims)
    return Presentation(A, V.p, proj0, proj1, psi, injective)


def _cover_matrices(V, top):
    """Per-vertex matrices of the cover map P0 -> V: basis path q of the copy
    of P_b for the top generator (b, j) maps to column j of V(q)."""
    A = V.algebra
    cover = []
    for v in range(A.n):
        paths = {}  # V(q), shared by the top generators at one vertex
        cols = []
        for b, j in top:
            for q in A.corner_basis(b, v):
                if q not in paths:
                    paths[q] = V.path_matrix(q)
                m = paths[q]
                cols.append(m.data[j :: m.cols])
        flat = [x for col in cols for x in col]
        cover.append(Mat(len(cols), V.dims[v], flat, V.p).transpose())
    return cover


def _kernel_top(V, proj0, cover):
    """(vertex, vector in P0 coordinates) pairs projecting to a basis of
    K / rad K for K = ker(P0 -> V).

    rad K(v) is spanned by the images P0(g)k of the kernel vectors k at the
    source of each generator g ending at v.  Each column of P0(g) has at most
    a few nonzeros (a basis path times g is one basis path, zero, or a short
    combination under a relation), so the blocks P_b(g) are read once as
    column -> (row, coefficient) lists and each image is built as a sparse
    ``{row: entry}`` dict from the nonzeros of k.  Inserting the kernel basis
    from its last vector back keeps exactly the vectors whose index lies
    outside the pivots of rad K in kernel coordinates."""
    A = V.algebra
    projs = {b: projective(A, b, V.p) for b in set(proj0)}
    kbasis = [
        sparse_kernel_basis(
            [{j: x for j, x in enumerate(M.row(i)) if x} for i in range(M.rows)],
            M.cols,
            V.p,
        )
        for M in cover
    ]
    out = []
    for v in range(A.n):
        span = Echelon(V.p)
        for gid, g in enumerate(A.gens):
            if g.tgt != v:
                continue
            cols = []  # column of P0(g) -> its (row, coefficient) pairs
            off = 0
            for b in proj0:
                m = projs[b].mats[gid]
                cols += [
                    [(off + i, x) for i, x in enumerate(m.data[j :: m.cols]) if x]
                    for j in range(m.cols)
                ]
                off += m.rows
            for k in kbasis[g.src]:
                img = {}
                for x, col in zip(k, cols):
                    if x:
                        for i, y in col:
                            img[i] = img.get(i, 0) + x * y
                span.insert(img)
        kept = [k for k in reversed(kbasis[v]) if span.insert(k)]
        out.extend((v, k) for k in reversed(kept))
    return out


def _subrep(V, spans):
    """Restriction of V to the generator-stable subspaces held by the
    ``Echelon``s ``spans``, in the basis of their rows in pivot order.

    The image of a source row lies in the target span exactly when its
    residue there is zero, and then its coordinates are its entries at the
    target pivots; ``ValueError`` is raised otherwise."""
    A = V.algebra
    bases = [E.basis(d) for E, d in zip(spans, V.dims)]
    mats = {}
    for gid, g in enumerate(A.gens):
        E = spans[g.tgt]
        images = [V.mats[gid].matvec(row) for row in bases[g.src]]
        if any(E.reduce(img) for img in images):
            raise ValueError("subspaces are not generator-stable")
        data = [img[c] for c in sorted(E.rows) for img in images]
        mats[gid] = Mat(len(E.rows), len(images), data, V.p)
    return Rep(A, [len(b) for b in bases], mats, V.p)


def _quotient_rep(V, spans):
    """Quotient of V by the generator-stable subspaces held by the
    ``Echelon``s ``spans``, in the coordinates outside their pivots.

    The class of a vector is its residue modulo the span, which has no
    entry in a pivot column, read at the free positions; column j of the
    induced map is the residue of column j of V(a)."""
    A = V.algebra
    zero = _field(V.p).zero
    frees = [[j for j in range(d) if j not in E.rows] for E, d in zip(spans, V.dims)]
    mats = {}
    for gid, g in enumerate(A.gens):
        M = V.mats[gid]
        cols = [spans[g.tgt].reduce(M.data[j :: M.cols]) for j in frees[g.src]]
        data = [col.get(i, zero) for i in frees[g.tgt] for col in cols]
        mats[gid] = Mat(len(frees[g.tgt]), len(cols), data, V.p)
    return Rep(A, [len(free) for free in frees], mats, V.p)


def g_vector(V):
    return minimal_presentation(V).g_vector()


def ext1_dim(V, W, method="presentation"):
    """dim Ext^1(V, W).

    The presentation method is exact when V has projective dimension at
    most 1, as every locally free module does, and raises ``ValueError``
    otherwise (it would give dim Hom(W, tau V), which can be larger).  The Euler
    method uses the bilinear form of the underlying valued quiver and
    requires both arguments locally free over a modulated algebra built from
    that quiver.
    """
    if method == "euler":
        quiver = getattr(V.algebra, "quiver", None)
        if quiver is None:
            raise ValueError("no quiver attached to this algebra")
        okv, rv = is_locally_free(V)
        okw, rw = is_locally_free(W)
        if not (okv and okw):
            raise ValueError("euler shortcut needs locally free arguments")
        return hom_dim(V, W) - quiver.ringel_form(rv, rw)
    return minimal_presentation(V).ext1_dim(W)


# ---------------------------------------------------------------------------
# Auslander-Reiten translation via transpose-dual


def ar_translate(V):
    """tau(V) = D Tr(V); projective summands are annihilated."""
    return dual(minimal_presentation(V).transpose(), V.algebra)


def ar_inverse(V):
    """tau^{-}(V) = Tr D(V); injective summands are annihilated."""
    return minimal_presentation(dual(V, V.algebra.opposite())).transpose()


# ---------------------------------------------------------------------------
# isomorphism and decomposition


def _try_invertible(V, f):
    for i in range(V.algebra.n):
        if rank(f[i]) < V.dims[i]:
            return False
    return True


def is_isomorphic(V, W, seed=0):
    """(verdict, detail): verdict in {True, False}; detail explains how."""
    if V.dims != W.dims:
        return False, "dimension vectors differ"
    if V.total_dim() == 0:
        return True, "both zero"
    basis = hom_basis(V, W)
    for f in basis:
        if _try_invertible(V, f):
            return True, "basis intertwiner invertible"
    rng = random.Random(f"iso:{seed}")
    for attempt in range(20):
        f = _random_combination(basis, V, rng)
        if f is not None and _try_invertible(V, f):
            return True, f"random intertwiner invertible (seed {seed})"
    d = len(basis)
    if d != end_dim(V) or d != end_dim(W):
        return False, "Hom dimensions asymmetric"
    return False, f"probably non-isomorphic (20 random attempts, seed {seed})"


def _random_combination(basis, V, rng):
    if not basis:
        return None
    f = {}
    F = _field(V.p)
    coeffs = [F.random(rng) for _ in basis]
    for i in range(V.algebra.n):
        acc = None
        for c, b in zip(coeffs, basis):
            m = b[i].scale(c)
            acc = m if acc is None else acc + m
        f[i] = acc
    return f


def krull_schmidt(V, seed=0):
    """Indecomposable summand list via Fitting decomposition over F_p."""
    if V.p is None:
        raise ValueError("decomposition requires a prime field")
    rng = random.Random(f"ks:{seed}")
    out = []
    stack = [V]
    while stack:
        W = stack.pop()
        if W.total_dim() == 0:
            continue
        parts = _try_split(W, rng)
        if parts is None:
            out.append(W)
        else:
            stack.extend(parts)
    out.sort(key=lambda r: (r.total_dim(), r.dims))
    return out


def _try_split(W, rng):
    basis = hom_basis(W, W)
    if len(basis) == 1:
        return None
    for _ in range(12):
        f = _random_combination(basis, W, rng)
        parts = _split_along(W, f)
        if parts is not None:
            return parts
    return None


def _split_along(W, f):
    """Fitting split of W along the block-diagonal endomorphism f: the
    minimal polynomial of f is the lcm of those of its vertex blocks, and
    each factor power g^e kills the generalized eigenspace of g at every
    vertex, since e is at least its multiplicity there."""
    p = W.p
    mp = [1]
    for i in range(W.algebra.n):
        mp = poly_lcm(mp, minimal_polynomial(f[i]), p)
    factors = factor_primefield(mp, p)
    if len(factors) < 2:
        return None
    parts = []
    for g, e in factors:
        power = [1]
        for _ in range(e):
            power = poly_mul(power, g, p)
        spans = [
            Echelon(p, kernel_basis(poly_eval_mat(power, f[i])))
            for i in range(W.algebra.n)
        ]
        parts.append(_subrep(W, spans))
    if sum(x.total_dim() for x in parts) != W.total_dim():
        return None
    return parts


# ---------------------------------------------------------------------------
# random sampling


def _block_regular_nilpotent(c, r, p):
    """r Jordan blocks of size c, ones on the subdiagonal of each block."""
    d = c * r
    m = Mat.zero(d, d, p)
    one = _field(p).one
    for b in range(r):
        for k in range(c - 1):
            row = b * c + k + 1
            col = b * c + k
            m.data[row * d + col] = one
    return m


def random_locally_free(algebra, r, seed=0, p=None):
    """A random representation with free loop restrictions of rank r.

    Loops are fixed block-regular nilpotents.  Each relation must be linear
    in the arrows: a sum of terms coef * post * X * pre, with X the matrix of
    its one arrow and pre, post the products of the loops before and after
    it.  The arrow matrices are a random combination of the solutions of
    these equations from ``_solve_blocks``, or drawn entry by entry when no
    relation applies (integers in [-exact.BOX, exact.BOX] over the
    rationals, whole field over F_p).
    """
    A = algebra
    F = _field(p)
    if any(x < 0 for x in r):
        raise ValueError("negative rank")
    dims = [vertex_capacity(A, i) * r[i] for i in range(A.n)]
    mats = {}
    arrows = {}  # generator id -> block index
    for gid, g in enumerate(A.gens):
        if g.is_loop:
            mats[gid] = _block_regular_nilpotent(g.max_run + 1, r[g.src], p)
        else:
            arrows[gid] = len(arrows)
    shapes = [(dims[A.gens[gid].tgt], dims[A.gens[gid].src]) for gid in arrows]
    loops = Rep(A, dims, mats, p)  # arrows zero, to read the loop products
    equations = []
    for rel in A.relations:
        if not rel:
            continue
        src = rel[0][1][0]
        tgt = A.path_target(rel[0][1])
        if dims[src] == 0 or dims[tgt] == 0:
            continue
        terms = []
        for coef, (_, word) in rel:
            at = [k for k, gid in enumerate(word) if gid in arrows]
            if len(at) != 1:
                raise ValueError("relation is not linear in the arrows")
            k = at[0]
            pre = loops.path_matrix((src, word[:k]))
            post = loops.path_matrix((tgt, word[k + 1 :]))
            terms.append((post.scale(coef), arrows[word[k]], pre))
        equations.append(terms)
    rng = random.Random(f"rlf:{seed}")
    if equations:
        blocks = [Mat.zero(rows, cols, p) for rows, cols in shapes]
        for sol in _solve_blocks(shapes, equations, p):
            c = F.random(rng)
            blocks = [x + y.scale(c) for x, y in zip(blocks, sol)]
    else:
        blocks = [
            Mat(rows, cols, [F.random(rng) for _ in range(rows * cols)], p)
            for rows, cols in shapes
        ]
    for gid, b in arrows.items():
        mats[gid] = blocks[b]
    V = Rep(A, dims, mats, p)
    if validate(V):
        raise AssertionError("sampled representation violates relations")
    ok, rv = is_locally_free(V)
    if not ok or rv != list(r):
        raise AssertionError("sampled representation is not locally free")
    return V


# ---------------------------------------------------------------------------
# serialization


def to_json(V):
    def enc(m):
        if V.p is not None:
            return [int(x) for x in m.data]
        return [[x.numerator, x.denominator] for x in m.data]

    return json.dumps(
        {
            "dims": V.dims,
            "field": V.p,
            "mats": {
                V.algebra.gens[gid].name: enc(m) for gid, m in sorted(V.mats.items())
            },
        },
        sort_keys=True,
    )


def from_json(algebra, s):
    d = json.loads(s)
    p = d["field"]
    coerce = _field(p).coerce
    mats = {}
    by_name = {g.name: gid for gid, g in enumerate(algebra.gens)}
    for name, data in d["mats"].items():
        gid = by_name[name]
        g = algebra.gens[gid]
        rows, cols = d["dims"][g.tgt], d["dims"][g.src]
        # a rational entry is stored as its [numerator, denominator] pair
        entries = [coerce(Fraction(*x) if type(x) is list else x) for x in data]
        mats[gid] = Mat(rows, cols, entries, p)
    return Rep(algebra, d["dims"], mats, p)
