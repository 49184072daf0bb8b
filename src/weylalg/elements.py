"""Graded truncated polynomials in hbar and the phase-space variables.

A context fixes the dimension d and the truncation grade N. Elements are
finite sums of monomials hbar^j * z^alpha over the 2d variables
z = (x_1 .. x_d, xi_1 .. xi_d), with Gaussian-rational coefficients. The
grade of hbar^j z^alpha is 2j + |alpha|; everything of grade above N is
dropped, i.e. all arithmetic happens in the quotient by the ideal X_{N+1}
of elements of grade >= N+1.

Internally a term map is a plain dict keyed by (hpow, exps) with values
(re, im) pairs of Fractions; the hot loops in the star-product and
automorphism modules work on these raw dicts directly. They sum into an
accumulator with _acc_add and turn it into an element with
WeylElement._from_acc, which drops the entries that cancelled to zero.
The kernels that run on integers, the Moyal product and the substitution
pullback, write their inputs over one common denominator with
_gaussian_numerators and divide once per output term.
The public surface exposes Monomial keys and GaussianRational coefficients.

Variable indexing is 0-based: index k < d is x_{k+1}, index k >= d is
xi_{k-d+1} (printed as p{k-d+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

from .errors import ContextError
from .scalars import GaussianRational, QONE, QZERO, _coerce

MIN_TRUNC = 4


@dataclass(frozen=True)
class Context:
    """Shared computation parameters: dimension d >= 1, truncation N >= 4."""

    dim: int
    trunc: int

    def __post_init__(self):
        # bool is an int, but True would act as dim 1 (a bool trunc is < 4)
        if (not isinstance(self.dim, int) or isinstance(self.dim, bool)
                or self.dim < 1):
            raise ContextError(f"dim must be a positive int, got {self.dim!r}")
        if not isinstance(self.trunc, int) or self.trunc < MIN_TRUNC:
            raise ContextError(
                f"trunc must be an int >= {MIN_TRUNC}, got {self.trunc!r}")

    @property
    def nvars(self):
        return 2 * self.dim

    def lifted(self):
        """Same dimension, truncation raised by one grade."""
        return Context(self.dim, self.trunc + 1)

    def variable_name(self, k):
        if not 0 <= k < self.nvars:
            raise IndexError(f"variable index {k} out of range for dim {self.dim}")
        return f"x{k + 1}" if k < self.dim else f"p{k - self.dim + 1}"


class Monomial(NamedTuple):
    """hbar^hpow * z^exps; exps has length 2d."""

    hpow: int
    exps: tuple

    def grade(self):
        return 2 * self.hpow + sum(self.exps)


def _key_grade(key):
    return 2 * key[0] + sum(key[1])


def _require_same_ctx(a, b):
    if a.ctx != b.ctx:
        raise ContextError(
            f"context mismatch: {a.ctx} vs {b.ctx}")


def _require_same_dim(a, b):
    if a.ctx.dim != b.ctx.dim:
        raise ContextError(
            f"dimension mismatch: {a.ctx.dim} vs {b.ctx.dim}")


class WeylElement:
    """Immutable truncated element. Use the classmethod constructors."""

    __slots__ = ("ctx", "_raw", "_buckets_cache")

    def __new__(cls, ctx, terms=None):
        """Element of {Monomial or (hpow, exps): coefficient}, truncated."""
        acc = {}
        n = ctx.nvars
        for key, coeff in dict(terms or {}).items():
            if isinstance(key, Monomial):
                hpow, exps = key.hpow, key.exps
            else:
                hpow, exps = key
            exps = tuple(exps)
            if hpow < 0 or len(exps) != n or any(e < 0 for e in exps):
                raise ContextError(f"bad monomial {(hpow, exps)} for dim {ctx.dim}")
            if 2 * hpow + sum(exps) > ctx.trunc:
                continue
            if isinstance(coeff, GaussianRational):
                re, im = coeff.re, coeff.im
            else:
                re, im = _coerce(coeff), QZERO
            _acc_add(acc, (hpow, exps), re, im)
        return cls._from_acc(ctx, acc)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    # construction helpers

    @classmethod
    def _from_raw(cls, ctx, raw):
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_buckets_cache", None)
        return self

    @classmethod
    def _from_acc(cls, ctx, acc):
        """Element of an accumulator's entries, those that cancelled dropped."""
        return cls._from_raw(ctx, {k: v for k, v in acc.items() if v[0] or v[1]})

    @classmethod
    def zero(cls, ctx):
        return cls._from_raw(ctx, {})

    @classmethod
    def one(cls, ctx):
        return cls._from_raw(ctx, {(0, (0,) * ctx.nvars): (QONE, QZERO)})

    @classmethod
    def scalar(cls, ctx, c):
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        if c.is_zero():
            return cls.zero(ctx)
        return cls._from_raw(ctx, {(0, (0,) * ctx.nvars): (c.re, c.im)})

    @classmethod
    def variable(cls, ctx, k):
        if not 0 <= k < ctx.nvars:
            raise IndexError(f"variable index {k} out of range for dim {ctx.dim}")
        exps = tuple(1 if j == k else 0 for j in range(ctx.nvars))
        return cls._from_raw(ctx, {(0, exps): (QONE, QZERO)})

    @classmethod
    def hbar(cls, ctx, power=1):
        if power < 0:
            raise ContextError("hbar power must be a natural number")
        if 2 * power > ctx.trunc:
            return cls.zero(ctx)
        return cls._from_raw(ctx, {(power, (0,) * ctx.nvars): (QONE, QZERO)})

    @classmethod
    def monomial(cls, ctx, hpow, exps, coeff=1):
        return cls(ctx, {(hpow, tuple(exps)): coeff})

    # inspection

    def terms(self):
        """Term map as {Monomial: GaussianRational}, a fresh dict."""
        return {Monomial(h, e): GaussianRational._wrap(re, im)
                for (h, e), (re, im) in self._raw.items()}

    def coefficient(self, hpow, exps):
        v = self._raw.get((hpow, tuple(exps)))
        if v is None:
            return GaussianRational(0)
        return GaussianRational._wrap(*v)

    def is_zero(self):
        return not self._raw

    def __len__(self):
        return len(self._raw)

    def lowest_grade(self):
        """Smallest grade present, or None for the zero element."""
        if not self._raw:
            return None
        return min(_key_grade(k) for k in self._raw)

    def max_grade(self):
        if not self._raw:
            return None
        return max(_key_grade(k) for k in self._raw)

    def grades(self):
        return sorted({_key_grade(k) for k in self._raw})

    def _buckets(self):
        """Terms grouped by grade: {grade: [(key, (re, im)), ...]}. Cached."""
        b = self._buckets_cache
        if b is None:
            b = {}
            for k, v in self._raw.items():
                b.setdefault(_key_grade(k), []).append((k, v))
            object.__setattr__(self, "_buckets_cache", b)
        return b

    # ring operations

    def _sum(self, other, negate):
        if not isinstance(other, WeylElement):
            return NotImplemented
        _require_same_ctx(self, other)
        acc = dict(self._raw)
        for k, (re, im) in other._raw.items():
            if negate:
                re, im = -re, -im
            _acc_add(acc, k, re, im)
        return WeylElement._from_acc(self.ctx, acc)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return WeylElement._from_raw(
            self.ctx, {k: (-re, -im) for k, (re, im) in self._raw.items()})

    def scale(self, c):
        """Scalar multiple; c is anything GaussianRational accepts."""
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        if c.is_zero():
            return WeylElement.zero(self.ctx)
        cre, cim = c.re, c.im
        if not cim:
            raw = {k: (re * cre, im * cre) for k, (re, im) in self._raw.items()}
        else:
            raw = {k: (re * cre - im * cim, re * cim + im * cre)
                   for k, (re, im) in self._raw.items()}
        return WeylElement._from_raw(self.ctx, raw)

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            _require_same_ctx(self, other)
            return WeylElement._from_acc(
                self.ctx,
                _cmul_raw(self._buckets(), other._buckets(), self.ctx.trunc))
        if isinstance(other, (GaussianRational, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (GaussianRational, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ContextError("element powers take natural exponents")
        out = WeylElement.one(self.ctx)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def hbar_shift(self, j):
        """Multiply by hbar^j (hpow += j), truncating; no power may go negative."""
        if j == 0:
            return self
        trunc = self.ctx.trunc
        raw = {}
        for (h, e), v in self._raw.items():
            if h + j < 0:
                raise ContextError("hbar power must be a natural number")
            if 2 * (h + j) + sum(e) <= trunc:
                raw[(h + j, e)] = v
        return WeylElement._from_raw(self.ctx, raw)

    def partial(self, k):
        """Partial derivative in variable index k (0-based)."""
        if not 0 <= k < self.ctx.nvars:
            raise IndexError(f"variable index {k} out of range for dim {self.ctx.dim}")
        raw = {}
        for (h, e), (re, im) in self._raw.items():
            ek = e[k]
            if ek:
                ne = e[:k] + (ek - 1,) + e[k + 1:]
                raw[(h, ne)] = (re * ek, im * ek)
        return WeylElement._from_raw(self.ctx, raw)

    # comparison: term-map equality; trunc is precision, not identity

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.ctx.dim == other.ctx.dim and self._raw == other._raw

    __hash__ = None

    def __str__(self):
        from .exprio import format_element
        return format_element(self)

    def __repr__(self):
        return f"<WeylElement dim={self.ctx.dim} trunc={self.ctx.trunc} {self}>"


def _acc_add(acc, key, re, im):
    """Add re + i*im into the accumulator entry at key; zero sums stay."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = (re, im)
    else:
        acc[key] = (cur[0] + re, cur[1] + im)


def _gaussian_numerators(groups):
    """Groups of raw terms written over one denominator, as Gaussian integers.

    groups maps a label to a list of (key, (re, im)) with rational parts.
    Returns (den, {label: [(key, nre, nim), ...]}), den the lcm of every
    denominator, re = nre / den and im = nim / den: one int multiply per
    part, no Fraction arithmetic.
    """
    den = 1
    for items in groups.values():
        for _key, (re, im) in items:
            den = lcm(den, re.denominator, im.denominator)
    return den, {
        label: [(key, re.numerator * (den // re.denominator),
                 im.numerator * (den // im.denominator))
                for key, (re, im) in items]
        for label, items in groups.items()}


def _cmul_raw(buckets_a, buckets_b, cutoff):
    """Commutative product of bucketed raw term maps, grades > cutoff dropped.

    Returns the accumulator, zero entries included.
    """
    acc = {}
    for ga, items_a in buckets_a.items():
        for gb, items_b in buckets_b.items():
            if ga + gb > cutoff:
                continue
            for (h1, e1), (re1, im1) in items_a:
                for (h2, e2), (re2, im2) in items_b:
                    _acc_add(acc, (h1 + h2, tuple(map(int.__add__, e1, e2))),
                             re1 * re2 - im1 * im2, re1 * im2 + im1 * re2)
    return acc


def compositions(total, parts):
    """All tuples of `parts` naturals summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials_of_grade(ctx, n):
    """All monomial keys (hpow, exps) of grade exactly n, deterministic order."""
    out = []
    for h in range(n // 2 + 1):
        zdeg = n - 2 * h
        for exps in compositions(zdeg, ctx.nvars):
            out.append((h, exps))
    return out
