"""Graded truncated polynomials in hbar and the phase-space variables.

A context fixes the dimension d and the truncation grade N. Elements are
finite sums of monomials hbar^j * z^alpha over the 2d variables
z = (x_1 .. x_d, xi_1 .. xi_d), with Gaussian-rational coefficients. The
grade of hbar^j z^alpha is 2j + |alpha|; everything of grade above N is
dropped, i.e. all arithmetic happens in the quotient by the ideal X_{N+1}
of elements of grade >= N+1.

Internally an element's terms are kept by grade: a graded term map
{grade: {exps: (re, im)}} with (re, im) a pair of Fractions. A term's
hbar power is not stored; it is (grade - |exps|) // 2, worked out only
where a caller needs it (terms(), coefficient(), printing). Two
invariants hold for every element:

  - no grade is empty, and no entry is zero, so term-map equality is
    element equality;
  - a grade's dict is never mutated once an element holds it, because
    elements share them (hbar_shift).

The hot loops in the star-product and automorphism modules work a whole
grade at a time: a product of grades m and n fills grade m + n. They sum
into an accumulator, a graded term map of fresh dicts, with _acc_add or
_acc_merge. Three of them run on integers: the Moyal kernel, the
star-recursion memo with the apply that reads it, and the substitution
pullback. Their operands are in numerator form, (den, {label: {key:
(re, im)}}): Gaussian-integer numerators over one denominator, nested as
in a graded term map. _gaussian_numerators writes it from term maps and
_reduced from an integer accumulator, dividing out the gcd (the
package's one reduction), both canonical: den > 0, gcd(den, every
numerator) = 1, no zero entry and no empty label. Each engine sums into
an integer accumulator divided once per output part, by
_from_numerators or, in pullback, as its packed keys are unpacked. The
memo's images share no dict with any element. The commutative
product, the log's merges and the sums of the exp and inner series run
on Fractions and end in WeylElement._from_acc. Both constructors drop
the entries that cancelled to zero and the grades left empty.
The public surface exposes Monomial keys and GaussianRational coefficients.

Variable indexing is 0-based: index k < d is x_{k+1}, index k >= d is
xi_{k-d+1} (printed as p{k-d+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from .errors import ContextError
from .scalars import GaussianRational, QONE, QZERO, _coerce, _coerce_gaussian

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

    __slots__ = ("ctx", "_raw")

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
            grade = 2 * hpow + sum(exps)
            if grade > ctx.trunc:
                continue
            if isinstance(coeff, GaussianRational):
                re, im = coeff.re, coeff.im
            else:
                re, im = _coerce(coeff), QZERO
            _acc_add(acc.setdefault(grade, {}), exps, re, im)
        return cls._from_acc(ctx, acc)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    # construction helpers

    @classmethod
    def _from_raw(cls, ctx, raw):
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_raw", raw)
        return self

    @classmethod
    def _from_acc(cls, ctx, acc):
        """Element of an accumulator's entries, those that cancelled dropped."""
        raw = {}
        for g, terms in acc.items():
            terms = {e: v for e, v in terms.items() if v[0] or v[1]}
            if terms:
                raw[g] = terms
        return cls._from_raw(ctx, raw)

    @classmethod
    def zero(cls, ctx):
        return cls._from_raw(ctx, {})

    @classmethod
    def one(cls, ctx):
        return cls._from_raw(ctx, {0: {(0,) * ctx.nvars: (QONE, QZERO)}})

    @classmethod
    def scalar(cls, ctx, c):
        c = _coerce_gaussian(c)
        if c.is_zero():
            return cls.zero(ctx)
        return cls._from_raw(ctx, {0: {(0,) * ctx.nvars: (c.re, c.im)}})

    @classmethod
    def variable(cls, ctx, k):
        if not 0 <= k < ctx.nvars:
            raise IndexError(f"variable index {k} out of range for dim {ctx.dim}")
        exps = tuple(1 if j == k else 0 for j in range(ctx.nvars))
        return cls._from_raw(ctx, {1: {exps: (QONE, QZERO)}})

    @classmethod
    def hbar(cls, ctx, power=1):
        if power < 0:
            raise ContextError("hbar power must be a natural number")
        if 2 * power > ctx.trunc:
            return cls.zero(ctx)
        return cls._from_raw(
            ctx, {2 * power: {(0,) * ctx.nvars: (QONE, QZERO)}})

    @classmethod
    def monomial(cls, ctx, hpow, exps, coeff=1):
        return cls(ctx, {(hpow, tuple(exps)): coeff})

    # inspection

    def terms(self):
        """Term map as {Monomial: GaussianRational}, a fresh dict."""
        return {Monomial((g - sum(e)) // 2, e): GaussianRational._wrap(re, im)
                for g, terms in self._raw.items()
                for e, (re, im) in terms.items()}

    def coefficient(self, hpow, exps):
        exps = tuple(exps)
        v = self._raw.get(2 * hpow + sum(exps), {}).get(exps)
        if v is None:
            return GaussianRational(0)
        return GaussianRational._wrap(*v)

    def is_zero(self):
        return not self._raw

    def __len__(self):
        return sum(map(len, self._raw.values()))

    def lowest_grade(self):
        """Smallest grade present, or None for the zero element."""
        return min(self._raw, default=None)

    def max_grade(self):
        return max(self._raw, default=None)

    def grades(self):
        return sorted(self._raw)

    # ring operations

    def _sum(self, other, negate):
        if not isinstance(other, WeylElement):
            return NotImplemented
        _require_same_ctx(self, other)
        acc = {}
        _acc_merge(acc, self._raw)
        _acc_merge(acc, other._raw, -1 if negate else None)
        return WeylElement._from_acc(self.ctx, acc)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return WeylElement._from_raw(self.ctx, {
            g: {e: (-re, -im) for e, (re, im) in terms.items()}
            for g, terms in self._raw.items()})

    def scale(self, c):
        """Scalar multiple; c is anything GaussianRational accepts."""
        c = _coerce_gaussian(c)
        if c.is_zero():
            return WeylElement.zero(self.ctx)
        cre, cim = c.re, c.im
        return WeylElement._from_raw(self.ctx, {
            g: {e: (re * cre - im * cim, re * cim + im * cre) if cim
                else (re * cre, im * cre) for e, (re, im) in terms.items()}
            for g, terms in self._raw.items()})

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            _require_same_ctx(self, other)
            return WeylElement._from_acc(
                self.ctx,
                _cmul_raw(self._raw, other._raw, self.ctx.trunc))
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
        """Multiply by hbar^j, truncating; no power may go negative.

        Each grade moves up by 2j, and the shifted element shares its
        grades' dicts with this one.
        """
        if j == 0:
            return self
        raw = {}
        for g, terms in self._raw.items():
            if j < 0 and any(sum(e) > g + 2 * j for e in terms):
                raise ContextError("hbar power must be a natural number")
            if g + 2 * j <= self.ctx.trunc:
                raw[g + 2 * j] = terms
        return WeylElement._from_raw(self.ctx, raw)

    def partial(self, k):
        """Partial derivative in variable index k (0-based)."""
        if not 0 <= k < self.ctx.nvars:
            raise IndexError(f"variable index {k} out of range for dim {self.ctx.dim}")
        # distinct exponents stay distinct, so no two terms meet
        acc = {g - 1: {e[:k] + (e[k] - 1,) + e[k + 1:]: (re * e[k], im * e[k])
                       for e, (re, im) in terms.items() if e[k]}
               for g, terms in self._raw.items()}
        return WeylElement._from_acc(self.ctx, acc)

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


def _acc_add(terms, key, re, im):
    """Add re + i*im into the entry at key of a term dict; zero sums stay."""
    cur = terms.get(key)
    if cur is None:
        terms[key] = (re, im)
    else:
        terms[key] = (cur[0] + re, cur[1] + im)


def _acc_merge(acc, raw, q=None):
    """Add a graded term map, each term times the rational q if given,
    into the graded accumulator acc, grade by grade."""
    for g, terms in raw.items():
        out = acc.setdefault(g, {})
        for e, (re, im) in terms.items():
            if q is not None:
                re, im = re * q, im * q
            _acc_add(out, e, re, im)


def _gaussian_numerators(groups):
    """Term maps written over one denominator, as Gaussian integers.

    groups maps a label (a grade, say) to a term map {key: (re, im)} with
    rational parts. Returns the numerator form (den, {label: {key: (nre,
    nim)}}), den the lcm of every denominator, re = nre / den and
    im = nim / den: one int multiply per part, no Fraction arithmetic.
    """
    den = 1
    for terms in groups.values():
        for re, im in terms.values():
            den = lcm(den, re.denominator, im.denominator)
    return den, {
        label: {key: (re.numerator * (den // re.denominator),
                      im.numerator * (den // im.denominator))
                for key, (re, im) in terms.items()}
        for label, terms in groups.items()}


def _reduced(den, acc):
    """An integer accumulator over den in numerator form, the gcd of den
    and every numerator divided out, so that denominators do not grow;
    zero entries and empty labels are dropped."""
    g = den
    for terms in acc.values():
        for re, im in terms.values():
            g = gcd(g, re, im)
    groups = {}
    for label, terms in acc.items():
        terms = {e: (re // g, im // g) for e, (re, im) in terms.items()
                 if re or im}
        if terms:
            groups[label] = terms
    return den // g, groups


def _from_numerators(ctx, den, acc):
    """Element of an integer accumulator over den, the inverse of
    _gaussian_numerators: one Fraction per nonzero part, and the entries
    that cancelled and the grades left empty dropped."""
    raw = {}
    for g, terms in acc.items():
        terms = {e: (Fraction(re, den) if re else QZERO,
                     Fraction(im, den) if im else QZERO)
                 for e, (re, im) in terms.items() if re or im}
        if terms:
            raw[g] = terms
    return WeylElement._from_raw(ctx, raw)


def _cmul_raw(raw_a, raw_b, cutoff):
    """Commutative product of graded term maps, grades > cutoff dropped.

    Returns the accumulator, zero entries included.
    """
    acc = {}
    for ga, terms_a in raw_a.items():
        for gb, terms_b in raw_b.items():
            if ga + gb > cutoff:
                continue
            out = acc.setdefault(ga + gb, {})
            for e1, (re1, im1) in terms_a.items():
                for e2, (re2, im2) in terms_b.items():
                    _acc_add(out, tuple(map(add, e1, e2)),
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
