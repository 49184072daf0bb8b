"""Exact complex-symplectic matrices, the form J, and substitution.

Matrices act on the variable vector z = (x_1 .. x_d, xi_1 .. xi_d); the
pullback of an element substitutes z -> Mz. This module knows nothing of
automorphisms: automorphism.pullback_automorphism is where a matrix
becomes one.

The substitution peels one variable at a time. Each matrix is factored
once, M = E_1 ... E_T P with T <= 2d, each E_t the identity but for one
row i (z_i -> l_t . z) and P a permutation; a(Mz) substitutes through
E_1, E_2, ... in turn, each a Horner scheme in z_i alone, and relabels
the variables by P. It runs on Gaussian integers: l_t = lam_t / delta_t,
step t scales every term by delta_t to the top power of z_i it meets,
and one denominator is divided once per output term.

The symplectic form J is not hard-coded: it is computed once per
dimension from the Poisson bracket on the linear basis
(J[k][l] = {z_k, z_l}), so the two modules cannot drift apart. With this
engine's bracket convention J = [[0, -I], [I, 0]].
"""

from __future__ import annotations

from fractions import Fraction

from .elements import (
    Context, WeylElement, MIN_TRUNC, _gaussian_numerators, _reduced)
from .errors import ContextError, NotSymplecticError, SingularMatrixError
from .scalars import (
    G_ONE, G_ZERO, QZERO, GaussianRational, _coerce_gaussian, rational)
from .star import poisson

_J_CACHE = {}
_J_COLUMNS = {}   # d -> [(b_c, s_c == 1)]: column c of J holds s_c in row b_c


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

    __slots__ = ("dim", "rows", "_factors")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce_gaussian(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0 or n % 2 or any(len(r) != n for r in rows):
            raise ContextError("matrix must be square of even size 2d")
        object.__setattr__(self, "dim", n // 2)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_factors", None)
        if not is_symplectic(self):
            _require_invertible(rows)
            raise NotSymplecticError("matrix does not satisfy M^T J M = J")

    @classmethod
    def _unchecked(cls, rows):
        """A SympMatrix of rows known to be symplectic."""
        m = object.__new__(cls)
        object.__setattr__(m, "dim", len(rows) // 2)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "_factors", None)
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
        src = _J_COLUMNS.get(self.dim)
        if src is None:
            j = symplectic_form(self.dim)
            n = len(j)
            src = _J_COLUMNS[self.dim] = [
                next((b, j[b][c].is_one()) for b in range(n) if j[b][c])
                for c in range(n)]
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


def _row_factors(m):
    """M = E_1 ... E_T P, computed once per matrix and kept on it.

    Returns (steps, perm). Step t is (i, delta, lam): E_t is the identity
    with row i replaced by l = lam / delta in lowest terms, lam given by
    its nonzero entries {k: (re, im)} as Gaussian integers and delta > 0.
    perm[i] = j says (Pz)_i = z_j. No E_t is the identity, so T <= 2d.

    X = C^-1, for C = E_t^-1 ... E_1^-1 M the part of M not yet factored,
    starts as M^-1, which for a symplectic matrix is free. Each step
    picks an undone row i and an unused row j of X with X[j][i] != 0,
    preferring a sparse row j and then i == j, sets l from c = X[j]
    (l_i = 1/c_i, l_k = -c_k/c_i) and updates X <- X E_t, which turns row
    j of X into e_i and leaves the rows already done alone. When every
    row is done X is a permutation, and C = X^-1 is P. Such a pair always
    exists: the unused rows of X, read in the undone columns, form an
    invertible block. Each row of X is kept sparse, as Gaussian integers
    over a scale of its own, so zeros cost nothing and no step does
    Fraction arithmetic; the peel's M^-1 has about 2 nonzeros a row.
    """
    factors = m._factors
    if factors is not None:
        return factors
    n = 2 * m.dim
    # row r of X is (s, {k: (re, im)}): Gaussian integers over s
    s, rows = _gaussian_numerators({
        r: {k: (v.re, v.im) for k, v in enumerate(row) if v}
        for r, row in enumerate(m.inverse().rows)})
    x = [(s, rows[r]) for r in range(n)]
    todo = set(range(n))
    free = set(range(n))
    perm = [None] * n
    steps = []
    for _ in range(n):
        _, _, i, j = min((len(x[j][1]), i != j, i, j)
                         for i in todo for j in free if i in x[j][1])
        todo.remove(i)
        free.remove(j)
        perm[i] = j
        s, c = x[j]
        a, b = c[i]
        x[j] = (1, {i: (1, 0)})
        if len(c) == 1 and a == s and not b:
            continue
        # l = lam / delta: l_i = s / c_i and l_k = -c_k / c_i, over |c_i|^2
        lam = {k: (-(re * a + im * b), re * b - im * a)
               for k, (re, im) in c.items()}
        lam[i] = (s * a, -s * b)
        delta, lam = _reduced(a * a + b * b, {i: lam})
        lam = lam[i]
        # X <- X E_t: column k gains column i times (l_k - [k = i])
        shift = dict(lam)
        shift[i] = (lam[i][0] - delta, lam[i][1])
        for r, (sr, row) in enumerate(x):
            xi = row.get(i)
            if xi is None or r == j:
                continue
            xr, xm = xi
            row = {k: (delta * re, delta * im) for k, (re, im) in row.items()}
            for k, (lr, lm) in shift.items():
                re, im = row.get(k, (0, 0))
                row[k] = (re + xr * lr - xm * lm, im + xr * lm + xm * lr)
            sr, row = _reduced(sr * delta, {r: row})
            x[r] = (sr, row[r])
        steps.append((i, delta, lam))
    factors = (tuple(steps), tuple(perm))
    object.__setattr__(m, "_factors", factors)
    return factors


def _add_scaled(acc, terms, unit, c):
    """acc + z^unit * c * terms, on packed keys and int coefficients.

    Fills acc in place and returns it, or a new dict if acc is empty.
    """
    if not acc:
        return {key + unit: v * c for key, v in terms.items()}
    get = acc.get
    for key, v in terms.items():
        key += unit
        acc[key] = get(key, 0) + v * c
    return acc


def _substitute_variable(re, im, shift, mask, form, delta):
    """re + i*im with z_i -> lam . z, every term times delta^R.

    z_i sits in the key field at shift, form maps the unit key of each of
    lam's nonzero entries to its (re, im), and R is the top power of z_i
    present. With b = sum_r z_i^r b_r, Horner runs
    H <- H * lam + delta^(R-r) b_r for r = R .. 0, so every term carries
    the same delta^R. Returns the two int maps, entries that cancelled
    dropped, and R.
    """
    split = {}
    for part, terms in enumerate((re, im)):
        for key, v in terms.items():
            r = (key >> shift) & mask
            split.setdefault(r, ({}, {}))[part][key - (r << shift)] = v
    top = max(split, default=0)
    if not top:
        return re, im, 0
    hre, him = split[top]
    for r in range(top - 1, -1, -1):
        nre, nim = {}, {}
        for unit, (lre, lim) in form.items():
            if lre:
                nre = _add_scaled(nre, hre, unit, lre)
                nim = _add_scaled(nim, him, unit, lre)
            if lim:
                nim = _add_scaled(nim, hre, unit, lim)
                nre = _add_scaled(nre, him, unit, -lim)
        low = split.get(r)
        if low is not None:
            scale = delta ** (top - r)
            nre = _add_scaled(nre, low[0], 0, scale)
            nim = _add_scaled(nim, low[1], 0, scale)
        hre, him = nre, nim
    return ({k: v for k, v in hre.items() if v},
            {k: v for k, v in him.items() if v}, top)


def pullback(m, a):
    """The substitution a(Mz): a composed with z -> Mz, for a SympMatrix M.

    It equals automorphism.pullback_automorphism(M)'s apply(a), computed
    by the star recursion: under a linear symplectic map Weyl symbols
    transform by plain substitution (metaplectic covariance, Folland
    1989, ch. 4). Each step of the recursion takes the symmetric product
    of a linear image (Mz)_k with an image known by induction, which is
    their plain product. The two algorithms are kept apart on purpose;
    tests hold this one against the recursion.

    M is factored once, M = E_1 ... E_T P with T <= 2d (_row_factors):
    each E_t differs from the identity in one row i only, z_i -> l_t . z,
    and P permutes the variables. a(Mz) is a substituted through E_1,
    E_2, ... in turn, each step a Horner scheme in the one variable z_i,
    so no intermediate is a product of forms in all 2d variables, and
    then relabelled by P, which costs nothing.

    The work is done on Gaussian integers, the real and the imaginary
    parts in two int maps, so real inputs do no imaginary work. a's
    coefficients are numerators over one common denominator D
    (elements._gaussian_numerators), and l_t = lam_t / delta_t with lam_t
    Gaussian integers. Step t scales every term by delta_t^R_t, R_t the
    top power of z_i it meets, so one denominator,
    D * prod_t delta_t^R_t, is divided once per output term. Each term
    of a's graded term map is packed into one int key, its grade in the
    top field above the exponents, with fields wide enough that no
    exponent carries into the next; the grade field keeps hbar^h z^e
    apart from z^e. Substitution keeps the hbar power and the z-degree,
    hence the grade.
    """
    ctx = a.ctx
    _require_matrix_dim(m, ctx)
    n = ctx.nvars
    width = (2 * ctx.trunc).bit_length()
    gshift = width * n
    mask = (1 << width) - 1
    steps, perm = _row_factors(m)
    den, groups = _gaussian_numerators(a._raw)
    re, im = {}, {}
    for g, items in groups.items():
        for e, (nre, nim) in items.items():
            key = g << gshift
            for l, v in enumerate(e):
                key += v << (width * l)
            if nre:
                re[key] = nre
            if nim:
                im[key] = nim
    for i, delta, lam in steps:
        form = {1 << (width * k): v for k, v in lam.items()}
        re, im, top = _substitute_variable(
            re, im, width * i, mask, form, delta)
        den *= delta ** top
    # P: field i of a key is the exponent of z_perm[i]
    shifts = [0] * n
    for i, j in enumerate(perm):
        shifts[j] = width * i
    # every entry left is nonzero, and most terms are real
    out = {}
    for key in [*re, *(k for k in im if k not in re)]:
        vre, vim = re.get(key), im.get(key)
        out.setdefault(key >> gshift, {})[
            tuple([(key >> s) & mask for s in shifts])] = (
            Fraction(vre, den) if vre else QZERO,
            Fraction(vim, den) if vim else QZERO)
    return WeylElement._from_raw(ctx, out)


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
