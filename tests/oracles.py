"""Independent reference implementations used to check the engine.

The star product goes through sympy with a completely different algorithm
shape: it is computed by iterating the bidifferential operator on (left,
right) expression pairs and truncating a sympy Poly by inspecting
exponents. No code is shared with the package beyond the term conversion
at the boundary.

The reference apply of a star-recursion map runs on the package's public
element arithmetic and its public moyal, which star_oracle checks, and
shares none of the recursion's integer memo or accumulation.
"""

from fractions import Fraction

import sympy

from weylalg import WeylElement, moyal

HBAR = sympy.Symbol("hbar")


def _symbols(dim):
    xs = [sympy.Symbol(f"x{i+1}") for i in range(dim)]
    ps = [sympy.Symbol(f"p{i+1}") for i in range(dim)]
    return xs, ps


def to_sympy(e):
    """Engine element -> sympy expression."""
    xs, ps = _symbols(e.ctx.dim)
    gens = xs + ps
    total = sympy.Integer(0)
    for mono, c in e.terms().items():
        coeff = sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im))
        term = coeff * HBAR ** mono.hpow
        for g, ek in zip(gens, mono.exps):
            if ek:
                term *= g ** ek
        total += term
    return total


def truncate_sympy(expr, dim, trunc):
    """Drop monomials of grade (z-degree + 2 * hbar-degree) above trunc."""
    xs, ps = _symbols(dim)
    gens = xs + ps + [HBAR]
    poly = sympy.Poly(sympy.expand(expr), *gens, domain="QQ_I")
    out = sympy.Integer(0)
    for exps, coeff in poly.terms():
        grade = sum(exps[:-1]) + 2 * exps[-1]
        if grade <= trunc:
            term = coeff
            for g, ek in zip(gens, exps):
                if ek:
                    term *= g ** ek
            out += term
    return out


def star_oracle(a_expr, b_expr, dim, trunc):
    """Moyal product via iterated bidifferential pairs, then truncation.

    Maintains a list of (coefficient, left, right) triples; applying the
    Poisson bidifferential once maps each triple to 2 * dim new ones. The
    j-th order term is (1/j!) (hbar / 2i)^j times the contracted sum.
    """
    xs, ps = _symbols(dim)
    total = sympy.Integer(0)
    pairs = [(sympy.Integer(1), a_expr, b_expr)]
    factor = sympy.Integer(1)
    j = 0
    while True:
        contracted = sum(c * l * r for c, l, r in pairs)
        total += factor * contracted
        j += 1
        if 2 * j > trunc:
            break
        nxt = []
        for c, l, r in pairs:
            for x, p in zip(xs, ps):
                dl = sympy.diff(l, p)
                if dl != 0:
                    dr = sympy.diff(r, x)
                    if dr != 0:
                        nxt.append((c, dl, dr))
                dl = sympy.diff(l, x)
                if dl != 0:
                    dr = sympy.diff(r, p)
                    if dr != 0:
                        nxt.append((-c, dl, dr))
        if not nxt:
            break
        pairs = nxt
        factor = factor * HBAR / (2 * sympy.I) / j
    return truncate_sympy(total, dim, trunc)


def poisson_oracle(a_expr, b_expr, dim, trunc):
    xs, ps = _symbols(dim)
    total = sympy.Integer(0)
    for x, p in zip(xs, ps):
        total += sympy.diff(a_expr, p) * sympy.diff(b_expr, x)
        total -= sympy.diff(a_expr, x) * sympy.diff(b_expr, p)
    return truncate_sympy(total, dim, trunc)


def assert_matches(engine_elem, oracle_expr):
    diff = sympy.expand(to_sympy(engine_elem) - oracle_expr)
    assert diff == 0, f"engine disagrees with oracle by {diff}"


def apply_reference(images, a, c=1, derivation=False):
    """The map fixed by generator images, extended by the star recursion.

    z^alpha = z_k o z^beta with k the first variable of alpha and
    u o v = (moyal(u, v) + moyal(v, u)) / 2. An automorphism maps 1 to 1
    and z_k o z^beta to phi(z_k) o phi(z^beta); a derivation maps 1 to 0
    and z_k o z^beta to D(z_k) o z^beta + z_k o D(z^beta). A term
    hbar^h z^e goes to c^h hbar^h phi(z^e).
    """
    ctx = a.ctx
    half = Fraction(1, 2)
    memo = {}

    def sym(u, v):
        return (moyal(u, v) + moyal(v, u)).scale(half)

    def image(e):
        if e not in memo:
            if not any(e):
                memo[e] = (WeylElement.zero(ctx) if derivation
                           else WeylElement.one(ctx))
            else:
                k = next(i for i, v in enumerate(e) if v)
                beta = e[:k] + (e[k] - 1,) + e[k + 1:]
                if derivation:
                    memo[e] = (
                        sym(images[k], WeylElement.monomial(ctx, 0, beta))
                        + sym(WeylElement.variable(ctx, k), image(beta)))
                else:
                    memo[e] = sym(images[k], image(beta))
        return memo[e]

    out = WeylElement.zero(ctx)
    for mono, coeff in a.terms().items():
        out = out + image(mono.exps).hbar_shift(mono.hpow).scale(
            coeff * c ** mono.hpow)
    return out
