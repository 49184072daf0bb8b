"""A Moyal product computed apart from weylalg, with sympy.

The program expands P^j term pair by term pair over multinomial indices.
Here the two factors get disjoint variables, a(x, p) b(y, q), and the
bidifferential operator

    P = sum_k (d/dp_k d/dy_k - d/dx_k d/dq_k)

is applied j times to their product as one sympy polynomial. Setting
y = x and q = p afterwards gives a P^j b, and

    a * b = sum_j (1/j!) (hbar / 2i)^j a P^j b,

cut at grade (z-degree + 2 * hbar power) <= trunc. Only the element's
public term map is read, at the boundary.
"""

from __future__ import annotations

from fractions import Fraction

import sympy


def _coeff(c):
    return sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im))


def moyal_oracle(a, b):
    """{(hbar power, exponents): (re, im)} of a * b, as Fractions."""
    d, trunc = a.ctx.dim, a.ctx.trunc
    xs = sympy.symbols(f"x1:{d + 1}")
    ps = sympy.symbols(f"p1:{d + 1}")
    ys = sympy.symbols(f"y1:{d + 1}")
    qs = sympy.symbols(f"q1:{d + 1}")
    hbar = sympy.Symbol("hbar")
    gens = (*xs, *ps, *ys, *qs, hbar)

    def poly(e, variables):
        expr = sympy.Integer(0)
        for mono, c in e.terms().items():
            term = _coeff(c) * hbar ** mono.hpow
            for v, k in zip(variables, mono.exps):
                term *= v ** k
            expr += term
        return sympy.Poly(expr, *gens, domain="QQ_I")

    term = poly(a, xs + ps) * poly(b, ys + qs)
    weight = sympy.Integer(1)            # (hbar / 2i)^j / j! without hbar
    h = sympy.Poly(hbar, *gens, domain="QQ_I")
    total = term
    j = 0
    while 2 * (j + 1) <= trunc:
        j += 1
        nxt = sympy.Poly(0, *gens, domain="QQ_I")
        for k in range(d):
            nxt += term.diff(ps[k]).diff(ys[k]) - term.diff(xs[k]).diff(qs[k])
        term = nxt
        if term.is_zero:
            break
        weight = weight / (2 * sympy.I) / j
        total += term * h ** j * sympy.Poly(weight, *gens, domain="QQ_I")

    out = {}
    n = 2 * d
    for exps, c in total.terms():
        z = tuple(exps[k] + exps[n + k] for k in range(n))
        hp = exps[-1]
        if sum(z) + 2 * hp > trunc:
            continue
        re, im = c.as_real_imag()
        key = (hp, z)
        pre, pim = out.get(key, (Fraction(0), Fraction(0)))
        out[key] = (pre + Fraction(int(re.p), int(re.q)),
                    pim + Fraction(int(im.p), int(im.q)))
    return {k: v for k, v in out.items() if v[0] or v[1]}


def terms_of(e):
    """The same map for a weylalg element, from its public term map."""
    return {(m.hpow, tuple(m.exps)): (Fraction(str(c.re)), Fraction(str(c.im)))
            for m, c in e.terms().items()}
