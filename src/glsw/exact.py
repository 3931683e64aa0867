"""Exact linear algebra over the rationals and prime fields.

Matrices are immutable-by-convention ``Mat`` objects tagged with ``p``:
``None`` for the rationals, a prime < 2**31 for F_p.  How a field element is
represented is decided here and nowhere else: ``_field(p)`` returns the field,
which carries its zero and one, the coercion of integers and fractions into
it, inverses, the reduction and scaling of entry lists, and the random draw
used by samplers.  Over Q an integral entry is an ``int`` and any other
entry a ``fractions.Fraction`` with denominator above 1; besides the field's
methods, only the rational ``Mat.__mul__`` and the sparse row update
``_sub_multiple`` produce entries, and both return that form.  Over F_p
entries are ints in [0, p), and a fraction maps to numerator times inverse
denominator, raising ``ZeroDivisionError`` when p divides the denominator
instead of truncating.

There are two eliminations.  ``Echelon`` keeps the reduced row echelon basis
of a growing span of sparse ``{column: entry}`` rows over either field; the
rational ``rref`` and ``rank``, Krylov spaces, submodule spins, the ideal of
relations of a bound quiver algebra, and the radicals and presentation
kernels of representations all grow one; ``Echelon(p, rows)`` starts from
given rows.  Subrepresentations and quotients are read off the pivots of
per-vertex ``Echelon``s: a vector of the span is the sum of the pivot rows
weighted by its pivot entries, and a residue modulo the span has no entry
in a pivot column.  Dense matrices over
F_p go to the fixed ``fpkernel``.  ``sparse_kernel_basis`` stays a batch
elimination, because choosing the sparsest pivot row needs all rows at once.

Everything downstream (Hom spaces, presentations, submodule lattices)
funnels through the handful of operations here, so determinism matters:
results are reduced row echelon forms, which are unique, and no
randomization happens at this layer.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from glsw import fpkernel

MAX_PRIME = 2**31
# random rational draws are integers in [-BOX, BOX]
BOX = 50


class _Rationals:
    """Q, with an integral value held as an ``int`` and any other value as a
    ``Fraction``.

    Every method returns that canonical form.  An int has ``numerator`` and
    ``denominator`` and compares, hashes and prints like the equal
    ``Fraction``, but its arithmetic skips the gcd each ``Fraction``
    operation pays, and most entries met in practice are integral.  No
    method divides: ``inv`` builds the inverse as a ``Fraction`` from the
    numerator and denominator, so no float can arise."""

    p = None
    zero = 0
    one = 1

    @staticmethod
    def coerce(x):
        if type(x) is int:
            return x
        if type(x) is not Fraction:
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    @staticmethod
    def inv(x):
        n, d = x.numerator, x.denominator
        if n < 0:
            n, d = -n, -d
        # d / n in lowest terms; n == 0 raises ZeroDivisionError
        return d if n == 1 else Fraction(d, n)

    @staticmethod
    def reduce(xs):
        return [x if type(x) is int or x.denominator != 1 else x.numerator for x in xs]

    @staticmethod
    def scale(xs, s):
        return _Rationals.reduce([x * s for x in xs])

    @staticmethod
    def sub_scaled(xs, s, ys):
        return _Rationals.reduce([x - s * y for x, y in zip(xs, ys)])

    @staticmethod
    def random(rng):
        return rng.randint(-BOX, BOX)


class _PrimeField:
    """F_p, with int entries in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p):
        if p < 2 or p >= MAX_PRIME:
            raise ValueError(f"modulus {p} out of range")
        if any(p % q == 0 for q in range(2, min(p, 1 + math.isqrt(p)))):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def coerce(self, x):
        """x in F_p: numerator times inverse denominator, never truncated."""
        p = self.p
        if type(x) is int:
            return x % p
        if type(x) is not Fraction:
            x = Fraction(x)
        if x.denominator == 1:
            return x.numerator % p
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def inv(self, x):
        return pow(x, -1, self.p)

    def reduce(self, xs):
        p = self.p
        return [x % p for x in xs]

    def scale(self, xs, s):
        p = self.p
        return [x * s % p for x in xs]

    def sub_scaled(self, xs, s, ys):
        p = self.p
        return [(x - s * y) % p for x, y in zip(xs, ys)]

    def random(self, rng):
        return rng.randrange(self.p)


@functools.lru_cache(maxsize=64)
def _field(p):
    """Q when ``p`` is None, else F_p; ``ValueError`` unless p is a prime
    below ``MAX_PRIME``."""
    return _Rationals() if p is None else _PrimeField(p)


class Mat:
    """Dense matrix over Q (p=None) or F_p."""

    __slots__ = ("rows", "cols", "data", "p")

    def __init__(self, rows, cols, data, p=None):
        if len(data) != rows * cols:
            raise ValueError("data length does not match shape")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.p = p

    @classmethod
    def from_rows(cls, rowlist, p=None):
        rows = len(rowlist)
        cols = len(rowlist[0]) if rows else 0
        flat = []
        for r in rowlist:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        coerce = _field(p).coerce
        return cls(rows, cols, [coerce(x) for x in flat], p)

    @classmethod
    def zero(cls, rows, cols, p=None):
        return cls(rows, cols, [_field(p).zero] * (rows * cols), p)

    @classmethod
    def identity(cls, n, p=None):
        m = cls.zero(n, n, p)
        one = _field(p).one
        for i in range(n):
            m.data[i * n + i] = one
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def rowlist(self):
        return [self.row(i) for i in range(self.rows)]

    def copy(self):
        return Mat(self.rows, self.cols, list(self.data), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.p, tuple(self.data)))

    def __repr__(self):
        return f"Mat({self.rowlist()!r}, p={self.p})"

    def _same_field(self, other):
        if self.p != other.p:
            raise ValueError("mixed fields")

    def __add__(self, other):
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        data = _field(self.p).reduce([a + b for a, b in zip(self.data, other.data)])
        return Mat(self.rows, self.cols, data, self.p)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        data = _field(self.p).reduce([-x for x in self.data])
        return Mat(self.rows, self.cols, data, self.p)

    def scale(self, s):
        F = _field(self.p)
        return Mat(self.rows, self.cols, F.scale(self.data, F.coerce(s)), self.p)

    def __mul__(self, other):
        self._same_field(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        if self.p is not None:
            data = fpkernel.matmul(
                self.data, other.data, self.rows, self.cols, other.cols, self.p
            )
            return Mat(self.rows, other.cols, data, self.p)
        n, k, m = self.rows, self.cols, other.cols
        data = [0] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                a = self.data[base + t]
                if a:
                    rowb = t * m
                    for j in range(m):
                        b = other.data[rowb + j]
                        if b:
                            data[i * m + j] += a * b
        return Mat(n, m, _Rationals.reduce(data), None)

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return _field(self.p).reduce(
            [sum(map(operator.mul, self.row(i), v)) for i in range(self.rows)]
        )

    def transpose(self):
        data = [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Mat(self.cols, self.rows, data, self.p)

    def power(self, k):
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        acc = Mat.identity(self.rows, self.p)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def hstack(self, other):
        self._same_field(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        data = []
        for i in range(self.rows):
            data.extend(self.row(i))
            data.extend(other.row(i))
        return Mat(self.rows, self.cols + other.cols, data, self.p)

    def is_zero(self):
        return all(x == 0 for x in self.data)

    def to_fp(self, p):
        """Reduce a rational matrix mod p; fails if a denominator vanishes."""
        if self.p is not None:
            raise ValueError("already over a prime field")
        coerce = _field(p).coerce
        return Mat(self.rows, self.cols, [coerce(x) for x in self.data], p)


class Echelon:
    """Reduced row echelon basis of a growing row space over Q (p=None) or
    F_p.

    ``rows`` maps each pivot column to its row, a sparse ``{column: entry}``
    dict with a leading 1 at the pivot and no entry in any other pivot
    column.  A reduced row echelon basis is unique, so it does not depend on
    the order in which rows were inserted.  ``Echelon(p, rows)`` starts from
    the span of the given rows."""

    __slots__ = ("p", "rows")

    def __init__(self, p=None, rows=()):
        self.p = p
        self.rows = {}
        for row in rows:
            self.insert(row)

    def reduce(self, row):
        """The residue of ``row`` (a sparse dict or a dense list) modulo the
        span, as a sparse dict with no entry in a pivot column."""
        coerce = _field(self.p).coerce
        items = row.items() if isinstance(row, dict) else enumerate(row)
        out = {j: y for j, x in items if x and (y := coerce(x))}
        # a stored row has no entry in another pivot column, so one pass suffices
        for c in [c for c in out if c in self.rows]:
            _sub_multiple(out, out[c], self.rows[c], self.p)
        return out

    def insert(self, row):
        """Add ``row`` to the span; ``False`` when it is already there."""
        new = self.reduce(row)
        if not new:
            return False
        F = _field(self.p)
        c = min(new)
        new = dict(zip(new, F.scale(new.values(), F.inv(new[c]))))
        for other in self.rows.values():
            if c in other:
                _sub_multiple(other, other[c], new, self.p)
        self.rows[c] = new
        return True

    def basis(self, ncols):
        """The basis as dense rows of length ``ncols``, in pivot order."""
        zero = _field(self.p).zero
        out = []
        for c in sorted(self.rows):
            dense = [zero] * ncols
            for j, x in self.rows[c].items():
                dense[j] = x
            out.append(dense)
        return out


def rref(M):
    """Reduced row echelon form (copy) and pivot column list."""
    if M.p is not None:
        a = list(M.data)
        pivots = fpkernel.rref(a, M.rows, M.cols, M.p)
        return Mat(M.rows, M.cols, a, M.p), pivots
    E = Echelon(None, M.rowlist())
    data = [x for r in E.basis(M.cols) for x in r]
    data += [_field(None).zero] * (M.rows * M.cols - len(data))
    return Mat(M.rows, M.cols, data, None), sorted(E.rows)


def rank(M):
    if M.p is not None:
        return len(fpkernel.rref(list(M.data), M.rows, M.cols, M.p))
    return len(Echelon(None, M.rowlist()).rows)


def solve(M, B):
    """X with MX = B for the matrix B of right-hand sides, or None when a
    column of B is outside the column space of M."""
    if B.rows != M.rows:
        raise ValueError("dimension mismatch")
    R, pivots = rref(M.hstack(B))
    if pivots and pivots[-1] >= M.cols:
        return None
    X = Mat.zero(M.cols, B.cols, M.p)
    for r, c in enumerate(pivots):
        X.data[c * B.cols : (c + 1) * B.cols] = R.row(r)[M.cols :]
    return X


def kernel_basis(M):
    """Basis of the right null space, each vector scaled so its first
    nonzero coordinate is 1."""
    R, pivots = rref(M)
    reduced = {c: enumerate(R.row(r)) for r, c in enumerate(pivots)}
    return _kernel_vectors(reduced, M.cols, _field(M.p))


def sparse_kernel_basis(rows, ncols, p=None):
    """``kernel_basis`` of the matrix with ``ncols`` columns whose rows are
    the sparse ``{column: entry}`` dicts ``rows``, entry for entry.

    Elimination in column order that takes the sparsest candidate row as
    each pivot, then back-substitution from the last pivot.  The reduced row
    echelon form of a row space is unique, so the pivot choice changes the
    cost only, never the result."""
    F = _field(p)
    active = [{j: y for j, x in r.items() if (y := F.coerce(x))} for r in rows]
    echelon = {}  # pivot column -> its row, scaled to a leading 1
    for c in range(ncols):
        hits = [r for r in active if c in r]
        if not hits:
            continue
        piv = min(hits, key=len)
        # scaled in place: hits and active track the row by identity
        piv.update(zip(list(piv), F.scale(piv.values(), F.inv(piv[c]))))
        for r in hits:
            if r is not piv:
                _sub_multiple(r, r[c], piv, p)
        echelon[c] = piv
        active = [r for r in active if r and r is not piv]
    # later rows are already reduced, so they hold no pivot column but their own
    for c in reversed(echelon):
        row = echelon[c]
        for j in [j for j in row if j != c and j in echelon]:
            _sub_multiple(row, row[j], echelon[j], p)
    return _kernel_vectors({c: r.items() for c, r in echelon.items()}, ncols, F)


def _sub_multiple(row, f, piv, p):
    """row -= f * piv on sparse rows, dropping the entries that vanish; each
    entry left is in the canonical form of its field (see ``_Rationals``)."""
    for j, x in piv.items():
        y = row.get(j, 0) - f * x
        if p is not None:
            y %= p
        elif type(y) is not int and y.denominator == 1:
            y = y.numerator
        if y:
            row[j] = y
        else:
            del row[j]


def _kernel_vectors(reduced, ncols, F):
    """One vector per free column over the field F from the reduced echelon
    rows, given as pivot column -> (column, entry) pairs; first nonzero
    coordinate 1."""
    basis = {f: {f: F.one} for f in range(ncols) if f not in reduced}
    for c, items in reduced.items():
        for j, x in items:
            if x and j != c:
                basis[j][c] = -x
    out = []
    for v in basis.values():
        # the free column's 1 is nonzero, so every vector has a leading
        # entry; scaling also reduces the -x into [0, p) over F_p
        dense = [F.zero] * ncols
        for j, x in zip(v, F.scale(v.values(), F.inv(v[min(v)]))):
            dense[j] = x
        out.append(dense)
    return out


# ---------------------------------------------------------------------------
# polynomials (coefficient lists, ascending degree)


def poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def poly_mul(f, g, p=None):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_trim(_field(p).reduce(out))


def poly_divmod(f, g, p=None):
    f = list(f)
    g = poly_trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    F = _field(p)
    inv = F.inv(g[-1])
    coerce, sub_scaled = F.coerce, F.sub_scaled
    q = [0] * max(0, len(f) - dg)
    f = poly_trim(f)
    while len(f) > dg:
        d = len(f) - 1 - dg
        c = q[d] = coerce(f[-1] * inv)
        f[d:] = sub_scaled(f[d:], c, g)
        f = poly_trim(f)
    return poly_trim(q), f


def poly_gcd(f, g, p=None):
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g:
        _, r = poly_divmod(f, g, p)
        f, g = g, r
    return poly_monic(f, p)


def poly_lcm(f, g, p=None):
    return poly_monic(poly_divmod(poly_mul(f, g, p), poly_gcd(f, g, p), p)[0], p)


def poly_monic(f, p=None):
    f = poly_trim(f)
    if not f:
        return f
    F = _field(p)
    return F.scale(f, F.inv(f[-1]))


def poly_pow_mod(f, e, mod, p):
    """f**e modulo the polynomial ``mod`` over F_p."""
    result = [1]
    f = poly_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, f, p), mod, p)[1]
        f = poly_divmod(poly_mul(f, f, p), mod, p)[1]
        e >>= 1
    return result


def poly_deriv(f, p=None):
    return poly_trim(_field(p).reduce([i * c for i, c in enumerate(f)][1:]))


def poly_eval_mat(f, M):
    """Evaluate a polynomial at a square matrix."""
    acc = Mat.zero(M.rows, M.rows, M.p)
    pw = Mat.identity(M.rows, M.p)
    for c in f:
        if c:
            acc = acc + pw.scale(c)
        pw = pw * M
    return acc


def minimal_polynomial(M):
    """Monic minimal polynomial via iterated Krylov spaces."""
    if M.rows != M.cols:
        raise ValueError("minimal polynomial of non-square matrix")
    n = M.rows
    p = M.p
    F = _field(p)
    if n == 0:
        return [1]
    m = [1]
    for seed in range(n):
        if len(m) - 1 == n:
            break
        v = [F.zero] * n
        v[seed] = F.one
        # local minimal polynomial of M relative to v
        span = Echelon(p)
        krylov = []
        vec = v
        while span.insert(vec):
            krylov.append(vec)
            vec = M.matvec(vec)
        # express vec in terms of the krylov vectors: K^T c = vec
        KT = Mat(len(krylov), n, [x for r in krylov for x in r], p).transpose()
        coeffs = solve(KT, Mat(n, 1, vec, p)).data
        local = F.reduce([-c for c in coeffs]) + [F.one]
        m = poly_lcm(m, local, p)
    return m


def _squarefree_decomposition(f, p):
    """Yield (factor, multiplicity) pairs with each factor squarefree."""
    out = []
    f = poly_monic(f, p)

    def sfd(f, mult):
        if len(f) <= 1:
            return
        df = poly_deriv(f, p)
        if not df:
            # f is a polynomial in x^p: take p-th root and recurse
            root = [f[i] for i in range(0, len(f), p)]
            sfd(root, mult * p)
            return
        g = poly_gcd(f, df, p)
        w = poly_divmod(f, g, p)[0]
        i = 1
        while len(w) > 1:
            y = poly_gcd(w, g, p)
            fac = poly_divmod(w, y, p)[0]
            if len(fac) > 1:
                out.append((fac, mult * i))
            w = y
            g = poly_divmod(g, y, p)[0]
            i += 1
        if len(g) > 1:
            sfd(g, mult)

    sfd(f, 1)
    return out


def _distinct_degree(f, p):
    """Split a squarefree monic f into products of equal-degree factors."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    f = list(f)
    while len(f) - 1 > 2 * d:
        d += 1
        h = poly_pow_mod(h, p, f, p)
        diff = poly_trim(
            [(a - b) % p for a, b in _zip_pad(h, x)]
        )
        g = poly_gcd(f, diff, p)
        if len(g) > 1:
            out.append((g, d))
            f = poly_divmod(f, g, p)[0]
            h = poly_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus splitting of f (product of degree-d irreducibles)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = poly_trim(r)
        if len(r) <= 1:
            continue
        g = poly_gcd(f, r, p)
        if 1 < len(g) < len(f):
            pass
        elif p == 2:
            # trace map splitting in characteristic 2
            t = list(r)
            acc = list(r)
            for _ in range(d * (n // d) - 1):
                acc = poly_pow_mod(acc, 2, f, p)
                t = poly_trim([(a + b) % p for a, b in _zip_pad(t, acc)])
            g = poly_gcd(f, t, p)
            if not 1 < len(g) < len(f):
                continue
        else:
            e = (p**d - 1) // 2
            h = poly_pow_mod(r, e, f, p)
            h = poly_trim([(a - b) % p for a, b in _zip_pad(h, [1])])
            g = poly_gcd(f, h, p)
            if not 1 < len(g) < len(f):
                continue
        rest = poly_divmod(f, g, p)[0]
        return _equal_degree_split(g, d, p, rng) + _equal_degree_split(rest, d, p, rng)


def factor_primefield(f, p, seed=0):
    """Complete factorization over F_p as a list of (irreducible, multiplicity),
    sorted for determinism.  The leading coefficient is dropped (factors are
    monic)."""
    import random

    f = poly_trim(_field(p).reduce(f))
    if not f:
        raise ValueError("zero polynomial")
    rng = random.Random((seed, p, tuple(f)).__repr__())
    factors = []
    for sf, mult in _squarefree_decomposition(f, p):
        for g, d in _distinct_degree(sf, p):
            for irr in _equal_degree_split(g, d, p, rng):
                factors.append((poly_monic(irr, p), mult))
    factors.sort(key=lambda fm: (len(fm[0]), fm[0], fm[1]))
    return factors


def nilpotent_block_profile(N):
    """Jordan block sizes of a nilpotent matrix, largest first, from the
    rank sequence rank(N^0), rank(N^1), ..."""
    if N.rows != N.cols:
        raise ValueError("non-square input")
    n = N.rows
    if n == 0:
        return []
    pw = N.power(n)
    if not pw.is_zero():
        raise ValueError("matrix is not nilpotent")
    ranks = [n]
    acc = Mat.identity(n, N.p)
    while ranks[-1] > 0:
        acc = acc * N
        ranks.append(rank(acc))
    # blocks of size >= k: ranks[k-1] - ranks[k]
    geq = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    profile = []
    for k in range(len(geq), 0, -1):
        exact = geq[k - 1] - (geq[k] if k < len(geq) else 0)
        profile.extend([k] * exact)
    return sorted(profile, reverse=True)
