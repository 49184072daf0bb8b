"""Exact complex-symplectic matrices, the form J, and substitution.

Matrices act on the variable vector z = (x_1 .. x_d, xi_1 .. xi_d); the
pullback of an element substitutes z -> Mz. This module knows nothing of
automorphisms: automorphism.pullback_automorphism is where a matrix
becomes one.

The symplectic form J is not hard-coded: it is computed once per
dimension from the Poisson bracket on the linear basis
(J[k][l] = {z_k, z_l}), so the two modules cannot drift apart. With this
engine's bracket convention J = [[0, -I], [I, 0]].
"""

from __future__ import annotations

from fractions import Fraction

from .elements import (
    Context, WeylElement, MIN_TRUNC, _acc_add, _gaussian_numerators)
from .errors import ContextError, NotSymplecticError, SingularMatrixError
from .scalars import (
    G_ONE, G_ZERO, GaussianRational, _coerce_gaussian, rational)
from .star import poisson

_J_CACHE = {}


def symplectic_form(d):
    """J as a tuple of rows of GaussianRational, J[k][l] = {z_k, z_l}."""
    rows = _J_CACHE.get(d)
    if rows is None:
        ctx = Context(d, MIN_TRUNC)
        zeros = (0,) * ctx.nvars
        basis = [WeylElement.variable(ctx, k) for k in range(ctx.nvars)]
        rows = tuple(
            tuple(poisson(zk, zl).coefficient(0, zeros) for zl in basis)
            for zk in basis)
        _J_CACHE[d] = rows
    return rows


class SympMatrix:
    """Complex-symplectic 2d x 2d matrix over the Gaussian rationals.

    M^T J M = J is decided once, when a matrix is built from rows: rows
    that fail raise SingularMatrixError if they are singular and
    NotSymplecticError otherwise. Products and inverses of symplectic
    matrices are symplectic, so `@` and inverse() skip the check.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce_gaussian(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0 or n % 2 or any(len(r) != n for r in rows):
            raise ContextError("matrix must be square of even size 2d")
        object.__setattr__(self, "dim", n // 2)
        object.__setattr__(self, "rows", rows)
        if not is_symplectic(self):
            _require_invertible(rows)
            raise NotSymplecticError("matrix does not satisfy M^T J M = J")

    @classmethod
    def _unchecked(cls, rows):
        """A SympMatrix of rows known to be symplectic."""
        m = object.__new__(cls)
        object.__setattr__(m, "dim", len(rows) // 2)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("SympMatrix is immutable")

    @classmethod
    def identity(cls, d):
        n = 2 * d
        return cls(tuple(
            tuple(G_ONE if i == j else G_ZERO for j in range(n))
            for i in range(n)))

    def inverse(self):
        """J^-1 M^T J, whose entries are those of M, moved and signed.

        If column c of J holds s_c in row b_c, then J^-1 = J^T and entry
        (r, c) is s_r s_c M[b_c][b_r].
        """
        j = symplectic_form(self.dim)
        n = len(j)
        src = [next((b, j[b][c]) for b in range(n) if j[b][c]) for c in range(n)]
        m = self.rows
        return SympMatrix._unchecked(tuple(
            tuple(m[bc][br] if sr == sc else -m[bc][br] for bc, sc in src)
            for br, sr in src))

    def __matmul__(self, other):
        if not isinstance(other, SympMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ContextError("matrix dimension mismatch")
        return SympMatrix._unchecked(_mul(self.rows, other.rows))

    def __eq__(self, other):
        if not isinstance(other, SympMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def is_identity(self):
        return all(
            self.rows[i][j] == (G_ONE if i == j else G_ZERO)
            for i in range(2 * self.dim) for j in range(2 * self.dim))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.rows)
        return f"<SympMatrix d={self.dim} [{body}]>"


def _dot(row, col):
    # J and most sampled matrices are sparse: skipping zero factors makes
    # is_symplectic, which every SympMatrix built from rows runs, about 3x
    # cheaper at d = 2 and 8x at d = 3
    acc = G_ZERO
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


def _mul(a, b):
    """Product of two matrices given as tuples of rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def _require_invertible(rows):
    """Exact forward elimination; raises SingularMatrixError on a rank drop."""
    n = len(rows)
    a = [list(r) for r in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col].inverse()
        for r in range(col + 1, n):
            f = a[r][col] * p
            if not f.is_zero():
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]


def is_symplectic(m):
    """M^T J M = J, exactly."""
    j = symplectic_form(m.dim)
    return _mul(_mul(tuple(zip(*m.rows)), j), m.rows) == j


def _require_matrix_dim(m, ctx):
    if 2 * m.dim != ctx.nvars:
        raise ContextError(
            f"matrix is for dim {m.dim}, context has dim {ctx.dim}")


def pullback(m, a):
    """The substitution a(Mz): a composed with z -> Mz, for a SympMatrix M.

    On a variable it gives (Mz)_k, the generator images from which
    automorphism.pullback_automorphism builds its automorphism. It
    equals that automorphism's apply(a), computed by the star
    recursion: under a linear symplectic map Weyl symbols transform
    by plain substitution (metaplectic covariance, Folland 1989, ch. 4).
    Each step of the recursion takes the symmetric product of a linear
    image (Mz)_k with an image known by induction, which is their plain
    product. The two algorithms are kept apart on purpose; tests hold
    this one against the recursion.

    The work is done on Gaussian integers. M is scaled by delta, the lcm of
    its entries' denominators, and a's coefficients are written as
    numerators over one common denominator D. Both go through
    elements._gaussian_numerators, the helper the Moyal kernel uses for
    its operands, so no coefficient costs a Fraction multiply.
    a(delta M z) is evaluated Horner-style: a = c + sum_k z_k a_k, with
    a_k free of z_0 .. z_{k-1}, so each node of the exponent trie costs
    one multiply by a linear form and the sums are shared. Each term of
    a's graded term map is packed into one int key, its grade in the top
    field above the exponents, with fields wide enough that adding two
    keys can never carry; the grade field keeps hbar^h z^e apart from
    z^e. Substitution keeps the hbar power and the z-degree, hence the
    grade, and an output term of z-degree m is divided once, by
    D * delta^m.
    """
    ctx = a.ctx
    _require_matrix_dim(m, ctx)
    n = ctx.nvars
    width = (2 * ctx.trunc).bit_length()
    gshift = width * n
    # row k of delta*M as (unit key of z_l, re, im) for the nonzero entries
    delta, forms = _gaussian_numerators({
        k: {1 << (width * l): (v.re, v.im)
            for l, v in enumerate(row) if not v.is_zero()}
        for k, row in enumerate(m.rows)})

    def subst(terms, lo):
        # terms: [exps list, grade, re, im], every exps zero below index lo
        acc = {}
        groups = {}
        for t in terms:
            e = t[0]
            k = lo
            while k < n and not e[k]:
                k += 1
            if k == n:
                _acc_add(acc, t[1] << gshift, t[2], t[3])
            else:
                e[k] -= 1
                groups.setdefault(k, []).append(t)
        for k, sub in groups.items():
            form = forms[k]
            for key, (re, im) in subst(sub, k).items():
                for unit, fre, fim in form:
                    _acc_add(acc, key + unit,
                             re * fre - im * fim, re * fim + im * fre)
        return acc

    den, groups = _gaussian_numerators(a._raw)
    terms = [[list(e), g, re, im]
             for g, items in groups.items() for e, re, im in items]
    mask = (1 << width) - 1
    scale = [den]
    out = {}
    for key, (re, im) in subst(terms, 0).items():
        exps = tuple((key >> (width * l)) & mask for l in range(n))
        deg = sum(exps)
        while len(scale) <= deg:
            scale.append(scale[-1] * delta)
        out.setdefault(key >> gshift, {})[exps] = (
            Fraction(re, scale[deg]), Fraction(im, scale[deg]))
    return WeylElement._from_acc(ctx, out)


# deterministic random generation

def _random_nonzero_rational(rng):
    num = rng.choice([n for n in range(-3, 4) if n])
    den = rng.randint(1, 3)
    return rational(num, den)


def _random_parameter(rng, complex_entries):
    re = _random_nonzero_rational(rng)
    if complex_entries and rng.random() < 0.5:
        return GaussianRational(re, _random_nonzero_rational(rng))
    return GaussianRational(re)


def _transvection(d, v, t):
    """I + t * outer(v, Jv): z -> z + t * omega(z, v) v, symplectic for any v, t."""
    j = symplectic_form(d)
    n = 2 * d
    jv = [_dot(j[r], v) for r in range(n)]
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            base = G_ONE if r == c else G_ZERO
            row.append(base + t * v[r] * jv[c])
        rows.append(tuple(row))
    return SympMatrix(rows)


def _pair_swap(d, p):
    """x_p -> xi_p, xi_p -> -x_p, identity elsewhere."""
    n = 2 * d
    rows = [[G_ONE if r == c else G_ZERO for c in range(n)] for r in range(n)]
    rows[p][p] = G_ZERO
    rows[p][d + p] = G_ONE
    rows[d + p][d + p] = G_ZERO
    rows[d + p][p] = GaussianRational(-1)
    return SympMatrix(rows)


def random_symplectic_rng(rng, d, steps, complex_entries=False):
    """Product of `steps` random symplectic shears and signed pair swaps."""
    m = SympMatrix.identity(d)
    n = 2 * d
    for _ in range(steps):
        if rng.random() < 0.2:
            g = _pair_swap(d, rng.randrange(d))
        else:
            support = rng.sample(range(n), rng.choice([1, 1, 2]) if n > 1 else 1)
            v = [G_ZERO] * n
            for idx in support:
                v[idx] = GaussianRational(rng.choice([-1, 1]))
            g = _transvection(d, tuple(v), _random_parameter(rng, complex_entries))
        m = g @ m
    return m


def random_symplectic(d, seed, steps=8, complex_entries=False):
    """Deterministic-in-seed random element of Sp(2d)."""
    import random as _random
    return random_symplectic_rng(_random.Random(seed), d, steps, complex_entries)
