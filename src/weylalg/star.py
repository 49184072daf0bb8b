"""Star product and brackets.

The star product is the Moyal product

    a * b = sum_j (1/j!) (hbar/2i)^j a P^j b,

with P = sum_p (left d_xi_p right d_x_p - left d_x_p right d_xi_p). The
Poisson bracket convention is pinned to match the j = 1 term:

    {a, b} = sum_p (d_xi_p a * d_x_p b  -  d_x_p a * d_xi_p b),

so {xi_p, x_p} = 1 and the commutator of linear generators is
[z_k, z_l] = (hbar/i) {z_k, z_l}.

Swapping the factors signs the j-th term by (-1)^j. The even-j terms are
therefore the symmetric (Jordan) product a o b = (a * b + b * a)/2, and
the commutator [a, b] = a * b - b * a is twice the odd-j terms; the kernel
takes the parity of j to keep, so either costs one pass.

The scaled bracket (i/hbar)[a, b] lowers grade by two, so unlike the star
product it is not well defined on the truncated quotient; it is computed
here with an internal cutoff two grades above the result truncation, which
makes it exact whenever the inputs are exactly known polynomials (the only
way the engine uses it). Its operands may therefore carry different
truncations; the result uses the smaller one.

P^j is expanded per term pair by multinomial enumeration over the 2d
derivative directions; each surviving combination contributes

    (-1)^{|l|} (-i/2)^{|k|+|l|} / (k! l!) *
    perm(a_xi, k) perm(b_x, k) perm(a_x, l) perm(b_xi, l)

with perm the falling factorial and k+l subtracted from both paired
exponents: the z-degree drops by 2j, j = |k|+|l|, and the hbar power,
which the grade implies, rises by j. The rational part is
num / (k! l! 2^j); (-i)^j is a quarter turn of the pair's coefficient,
applied as signs and a swap of its real and imaginary parts. Every term
of a grade-m times grade-n product has grade m+n, so the kernel works a
grade pair at a time, fills grade m+n of the result, and truncation
prunes whole grade pairs, never single combinations.

The arithmetic runs on integers. Operands arrive in numerator form,
(D_a, {grade: {exps: (re, im)}}) with Gaussian-integer numerators over
one denominator D_a (D_b), the layout elements._gaussian_numerators
writes: moyal, commutator and scaled_bracket write their elements so,
and the star-recursion memo keeps its images so. Only the grades of an
operand that meet some grade of the other within the cutoff take part.
Every weight is scaled by L = jtop! 2^jtop to the integer
num * (L / (k! l! 2^j)): k! l! divides j!, which divides jtop!. An
order j takes j from the z-degree of both factors, which a term's grade
bounds, and needs 2j <= cutoff, so jtop is the least of cutoff // 2 and
the two operands' top grades; a huge truncation leaves L small when the
operands are small. The kernel makes no Fraction: it returns the
accumulated numerators over D_a * D_b * L, and the public products
divide once per output part (elements._from_numerators), while the memo
only puts them in lowest terms (elements._reduced). The odd half, over
that denominator, is the commutator over half of it: L is even once an
odd order can occur, and the odd half is empty otherwise.

Every term pair takes the same rule. The orders j of a pair are bounded by
jmax = sum_p (kmax_p + lmax_p), and the rule stops after the j = 0 term
when no order of the kept parity can occur: jmax = 0, or only even orders
kept and jmax <= 1. The same stop is first tested once per grade pair: a
term of grade g has z-degree at most g, so jmax <= min(ga, gb). When that
bound already stops the rule, min(ga, gb) = 0, or 1 with only even orders
kept, the grade pair holds the j = 0 products alone and is summed as one
integer product per term pair; with only odd orders kept and a grade-0
side it holds nothing. So z_k o b, the step of the star recursion with a
linear image on the left, costs one product and one key per term.
"""

from __future__ import annotations

from itertools import product as _iproduct
from math import factorial, perm
from operator import add

from .elements import (
    WeylElement, _acc_add, _from_numerators, _gaussian_numerators,
    _require_same_ctx, _require_same_dim)
from .errors import InternalError


def _moyal_raw(num_a, num_b, d, cutoff, parity):
    """Star product of operands in numerator form, keeping grades <= cutoff.

    Each operand is (den, {grade: {exps: (re, im)}}), Gaussian-integer
    numerators over one denominator as _gaussian_numerators writes them.
    parity None keeps every order j of the series, 0 only the even j (the
    symmetric product (a*b + b*a)/2) and 1 only the odd j ((a*b - b*a)/2).
    Returns (den, acc), acc an integer accumulator over den, zero entries
    and empty grades included.
    """
    den_a, ints_a = num_a
    den_b, ints_b = num_b
    # the grades that meet some grade of the other operand within the
    # cutoff; either both operands keep some or neither does
    if not ints_a or not ints_b:
        return 1, {}
    top_a, top_b = cutoff - min(ints_b), cutoff - min(ints_a)
    live_a = [g for g in ints_a if g <= top_a]
    if not live_a:
        return 1, {}
    live_b = [g for g in ints_b if g <= top_b]
    # L = jtop! 2^jtop, jtop bounded by the operands (module docstring)
    jtop = min(cutoff // 2, max(live_a), max(live_b))
    scale = factorial(jtop) << jtop
    acc = {}
    for ga in live_a:
        items_a = ints_a[ga]
        for gb in live_b:
            if ga + gb > cutoff:
                continue
            # jmax <= min(ga, gb): the pair rule's stop, once per grade pair
            low = ga if ga < gb else gb
            settled = low == 0 or (low == 1 and parity == 0)
            if settled and parity == 1:
                continue
            out = acc.setdefault(ga + gb, {})
            items_b = ints_b[gb]
            if settled:
                for e1, (re1, im1) in items_a.items():
                    re1, im1 = re1 * scale, im1 * scale
                    for e2, (re2, im2) in items_b.items():
                        _acc_add(out, tuple(map(add, e1, e2)),
                                 re1 * re2 - im1 * im2, re1 * im2 + im1 * re2)
                continue
            for e1, (re1, im1) in items_a.items():
                for e2, (re2, im2) in items_b.items():
                    _moyal_pair(out, d, e1, e2, re1 * re2 - im1 * im2,
                                re1 * im2 + im1 * re2, parity, scale)
    return den_a * den_b * scale, acc


def _moyal_pair(out, d, e1, e2, pre, pim, parity, scale):
    """Adds one term pair's orders of the kept parity into out, the term
    dict of the pair's grade, keyed by exponents."""
    base = tuple(map(add, e1, e2))
    if parity != 1:
        _acc_add(out, base, pre * scale, pim * scale)

    active = []
    jmax = 0
    for p in range(d):
        kmax = e1[d + p] if e1[d + p] < e2[p] else e2[p]
        lmax = e1[p] if e1[p] < e2[d + p] else e2[d + p]
        if kmax or lmax:
            active.append((p, kmax, lmax))
            jmax += kmax + lmax
    # no order j >= 1 of the kept parity can occur
    if not jmax or (parity == 0 and jmax == 1):
        return

    # per dimension: (jp, denominator kp! lp!, dimension, signed numerator)
    # with jp = kp + lp, which is also the drop on both paired exponents
    lists = []
    for p, kmax, lmax in active:
        a_x, a_xi = e1[p], e1[d + p]
        b_x, b_xi = e2[p], e2[d + p]
        lst = []
        for kp in range(kmax + 1):
            fk = perm(a_xi, kp) * perm(b_x, kp)
            for lp in range(lmax + 1):
                num = fk * perm(a_x, lp) * perm(b_xi, lp)
                if lp & 1:
                    num = -num
                lst.append((kp + lp, factorial(kp) * factorial(lp), p, num))
        lists.append(lst)

    # the parity of j that is dropped; j & 1 is never None
    skip = None if parity is None else 1 - parity
    for combo in _iproduct(*lists):
        j = 0
        num = 1
        den = 1
        for jp, dn, _p, nm in combo:
            if jp:
                j += jp
                num *= nm
                den *= dn
        if not j or j & 1 == skip:
            continue
        w = num * (scale // (den << j))
        # (pre + i*pim) * (-i)^j: (-i)^2 = -1, and (-i) maps (re, im) to (im, -re)
        tre, tim = (-pre, -pim) if j & 2 else (pre, pim)
        if j & 1:
            tre, tim = tim, -tre
        es = list(base)
        for jp, _dn, p, _nm in combo:
            if jp:
                es[p] -= jp
                es[d + p] -= jp
        _acc_add(out, tuple(es), tre * w, tim * w)


def _numerator_product(a, b, cutoff, parity):
    return _moyal_raw(_gaussian_numerators(a._raw),
                      _gaussian_numerators(b._raw), a.ctx.dim, cutoff, parity)


def moyal(a, b):
    """Star product in the shared context."""
    _require_same_ctx(a, b)
    return _from_numerators(
        a.ctx, *_numerator_product(a, b, a.ctx.trunc, None))


def poisson(a, b):
    """Poisson bracket, {xi_p, x_p} = 1 convention."""
    _require_same_ctx(a, b)
    d = a.ctx.dim
    out = WeylElement.zero(a.ctx)
    for p in range(d):
        out = out + a.partial(d + p) * b.partial(p) - a.partial(p) * b.partial(d + p)
    return out


def commutator(a, b):
    """Star commutator a * b - b * a.

    b * a is a * b with each order j signed (-1)^j, so the commutator is
    twice the odd-j terms of a * b: one kernel pass, read over den // 2.
    """
    _require_same_ctx(a, b)
    den, acc = _numerator_product(a, b, a.ctx.trunc, 1)
    return _from_numerators(a.ctx, den // 2, acc)


def scaled_bracket(a, b):
    """(i/hbar)[a, b]: exact, grade m+n-2, result trunc = min of operands."""
    _require_same_dim(a, b)
    ctx = a.ctx if a.ctx.trunc <= b.ctx.trunc else b.ctx
    # the bracket peeks two grades above the quotient; each term of the
    # commutator, the odd orders over den // 2, is multiplied by i and
    # divided by one power of hbar, which lowers its grade by 2
    den, acc = _numerator_product(a, b, ctx.trunc + 2, 1)
    out = _from_numerators(ctx, den // 2, {
        g - 2: {e: (-im, re) for e, (re, im) in terms.items()}
        for g, terms in acc.items()})
    if any(sum(e) > g for g, terms in out._raw.items() for e in terms):
        raise InternalError(
            "commutator produced a term without an hbar factor (a term "
            "with |exps| > grade); star-product kernel is broken")
    return out
