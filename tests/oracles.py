"""Independent reference implementations used to check the engine.

Everything here goes through sympy with a completely different algorithm
shape: the star product is computed by iterating the bidifferential
operator on (left, right) expression pairs and truncating a sympy Poly by
inspecting exponents. No code is shared with the package beyond the term
conversion at the boundary.
"""

import sympy

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
