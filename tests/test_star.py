"""Star product, Poisson bracket, commutator and scaled bracket.

Golden values below were derived by hand from the defining series and are
frozen; randomized cases are checked against the independent sympy oracle
in oracles.py.
"""

from fractions import Fraction

import pytest
import sympy

from weylalg import (
    Context,
    ContextError,
    GaussianRational,
    WeylElement,
    commutator,
    moyal,
    parse_element,
    poisson,
    scaled_bracket,
)
from weylalg.elements import _from_numerators, _gaussian_numerators
from weylalg.sampling import random_element
from weylalg.star import _moyal_raw

from oracles import (
    HBAR, assert_matches, poisson_oracle, star_oracle, to_sympy, truncate_sympy)


def _parse(text, ctx):
    return parse_element(text, ctx)


# frozen hand-derived values

@pytest.mark.parametrize("a,b,want", [
    ("x1", "p1", "x1*p1 + (1/2)*i*h"),
    ("p1", "x1", "x1*p1 - (1/2)*i*h"),
    ("x1^2", "p1^2", "x1^2*p1^2 + 2*i*h*x1*p1 - (1/2)*h^2"),
    ("x1^3", "p1", "x1^3*p1 + (3/2)*i*h*x1^2"),
    ("h", "x1", "h*x1"),
    ("2", "3", "6"),
    ("x1", "x2", "x1*x2"),
    ("x1 + p1", "x1 - p1", "x1^2 - p1^2 - i*h"),  # cross terms leave [x,p]
])
def test_star_goldens(a, b, want):
    ctx = Context(2, 8)
    got = moyal(_parse(a, ctx), _parse(b, ctx))
    assert got == _parse(want, ctx)


@pytest.mark.parametrize("a,b,want", [
    ("x1^2", "p1^2", "-4*x1*p1"),
    ("p1", "x1", "1"),
    ("x1", "p1", "-1"),
    ("x1", "x1", "0"),
    ("x1*p2", "x2*p1", "x1*p1 - x2*p2"),
])
def test_poisson_goldens(a, b, want):
    ctx = Context(2, 8)
    assert poisson(_parse(a, ctx), _parse(b, ctx)) == _parse(want, ctx)


def test_commutator_golden(ctx1):
    got = commutator(_parse("x1^3", ctx1), _parse("p1", ctx1))
    assert got == _parse("3*i*h*x1^2", ctx1)
    # canonical relation [x, p] = i h
    assert commutator(_parse("x1", ctx1), _parse("p1", ctx1)) == \
        _parse("i*h", ctx1)


def test_scaled_bracket_golden(ctx1):
    got = scaled_bracket(_parse("x1^3", ctx1), _parse("p1", ctx1))
    assert got == _parse("-3*x1^2", ctx1)


# randomized oracle comparison

def test_star_matches_oracle(rng):
    for d in (1, 2):
        ctx = Context(d, 8)
        for _ in range(8):
            a = random_element(rng, ctx, 3, max_grade=5, complex_scalars=True)
            b = random_element(rng, ctx, 3, max_grade=5, complex_scalars=True)
            assert_matches(moyal(a, b),
                           star_oracle(to_sympy(a), to_sympy(b), d, 8))


def test_poisson_matches_oracle(rng):
    ctx = Context(2, 8)
    for _ in range(8):
        a = random_element(rng, ctx, 3, max_grade=5, complex_scalars=True)
        b = random_element(rng, ctx, 3, max_grade=5, complex_scalars=True)
        assert_matches(poisson(a, b),
                       poisson_oracle(to_sympy(a), to_sympy(b), 2, 8))


# structural properties

def test_star_is_homogeneous_on_homogeneous_inputs(ctx2):
    from weylalg import monomials_of_grade
    for m in range(0, 5):
        for n in range(0, 5):
            for hu, eu in monomials_of_grade(ctx2, m)[:4]:
                for hv, ev in monomials_of_grade(ctx2, n)[:4]:
                    r = moyal(WeylElement.monomial(ctx2, hu, eu),
                              WeylElement.monomial(ctx2, hv, ev))
                    assert r.grades() in ([], [m + n])


def test_linear_left_factor_agrees_with_bracket_identity(rng, ctx2):
    # x star b = x b + (h/2i) {x, b}
    half_over_i = GaussianRational(0, "-1/2")
    for k in range(4):
        z = WeylElement.variable(ctx2, k)
        for _ in range(5):
            b = random_element(rng, ctx2, 4, max_grade=6, complex_scalars=True)
            want = z * b + poisson(z, b).scale(half_over_i).hbar_shift(1)
            assert moyal(z, b) == want


def test_star_associative_sample(rng):
    ctx = Context(2, 9)
    for _ in range(10):
        a = random_element(rng, ctx, 3, max_grade=5)
        b = random_element(rng, ctx, 3, max_grade=5)
        c = random_element(rng, ctx, 3, max_grade=5)
        assert moyal(moyal(a, b), c) == moyal(a, moyal(b, c))


def test_scaled_bracket_is_derivation(rng, ctx1):
    s = random_element(rng, ctx1.lifted(), 3, min_grade=3,
                       max_grade=9, require_z=True)
    for _ in range(5):
        a = random_element(rng, ctx1, 3, max_grade=4)
        b = random_element(rng, ctx1, 3, max_grade=4)
        lhs = scaled_bracket(s, moyal(a, b))
        rhs = moyal(scaled_bracket(s, a), b) + moyal(a, scaled_bracket(s, b))
        assert lhs == rhs


def test_scaled_bracket_antisymmetric(rng, ctx2):
    for _ in range(10):
        a = random_element(rng, ctx2, 3, max_grade=4)
        b = random_element(rng, ctx2, 3, max_grade=4)
        assert scaled_bracket(a, b) == -scaled_bracket(b, a)


def test_scaled_bracket_reduces_to_poisson_at_low_order(rng, ctx2):
    # hbar-free slice of the scaled bracket is the Poisson bracket
    for _ in range(10):
        a = random_element(rng, ctx2, 3, max_grade=4, allow_h=False)
        b = random_element(rng, ctx2, 3, max_grade=4, allow_h=False)
        got = scaled_bracket(a, b)
        slice0 = WeylElement(
            ctx2, {k: v for k, v in got.terms().items() if k.hpow == 0})
        assert slice0 == poisson(a, b)


def test_scaled_bracket_mixed_truncations(ctx1):
    s = _parse("x1^3", Context(1, 9))
    z = _parse("p1", ctx1)
    got = scaled_bracket(s, z)
    assert got.ctx.trunc == 8
    assert got == _parse("-3*x1^2", ctx1)
    # grade N+1 generator terms still act exactly on grade-1 elements
    s_top = _parse("x1^9", Context(1, 9))
    assert scaled_bracket(s_top, z) == _parse("-9*x1^8", ctx1)


def _parity_half(a, b, cutoff, parity):
    # the kernel on its own, its operands and result in numerator form
    return _from_numerators(a.ctx, *_moyal_raw(
        _gaussian_numerators(a._raw), _gaussian_numerators(b._raw),
        a.ctx.dim, cutoff, parity))


def test_commutator_is_difference_of_products(rng):
    # the one-pass kernel against its definition a * b - b * a, and each
    # parity half of the kernel against (a * b +- b * a)/2. Bare variables
    # and linear forms meet the order bound that ends a pair after its
    # j = 0 term; constants, linear forms and mixed grade-0/1/>=2
    # operands, on either side, meet the grade pairs that the kernel
    # settles at once (a grade-0 side, or a grade-1 side in the even half)
    half = Fraction(1, 2)
    for d in (1, 2):
        ctx = Context(d, 8)

        def draw(terms, lo, hi):
            return random_element(rng, ctx, terms, min_grade=lo, max_grade=hi,
                                  complex_scalars=True)

        constants = [WeylElement.scalar(ctx, GaussianRational("2/3", "-1/5")),
                     draw(1, 0, 0), draw(2, 0, 0)]
        linear = [WeylElement.variable(ctx, k) for k in range(ctx.nvars)]
        linear += [random_element(rng, ctx, 3, min_grade=1, max_grade=1,
                                  complex_scalars=True, allow_h=False)
                   for _ in range(2)]
        mixed = [draw(1, 0, 0) + draw(2, 1, 1) + draw(3, 2, 6)
                 for _ in range(3)]
        low = constants + linear + mixed
        pairs = [(a, draw(4, 0, 6)) for a in low]
        pairs += [(draw(4, 0, 6), b) for b in low]
        pairs += [(a, b) for a in low[::2] for b in low[1::2]]
        pairs += [(draw(4, 0, 6), draw(4, 0, 6)) for _ in range(8)]
        for a, b in pairs:
            ab, ba = moyal(a, b), moyal(b, a)
            assert commutator(a, b) == ab - ba
            for parity, want in ((None, ab), (0, (ab + ba).scale(half)),
                                 (1, (ab - ba).scale(half))):
                assert _parity_half(a, b, ctx.trunc, parity) == want
        # moyal itself on the settled grade pairs, against the oracle
        for a, b in [(low[0], mixed[0]), (mixed[1], low[1]),
                     (linear[-1], mixed[2]), (mixed[2], linear[-1])]:
            assert_matches(moyal(a, b),
                           star_oracle(to_sympy(a), to_sympy(b), d, 8))
        # a constant commutes, and drops out of a bracket
        b = draw(4, 0, 6)
        for c in constants:
            assert commutator(c, b).is_zero() and commutator(b, c).is_zero()
            assert scaled_bracket(c, b).is_zero()
            assert scaled_bracket(b, c).is_zero()
        for m, c in zip(mixed, constants):
            assert scaled_bracket(m + c, b) == scaled_bracket(m, b)
            assert scaled_bracket(b, m + c) == scaled_bracket(b, m)


def test_scaled_bracket_is_lifted_commutator(rng):
    # (i/hbar)[a, b] by definition: the commutator taken two grades above
    # the smaller truncation, divided by hbar and cut back to it
    i = GaussianRational(0, 1)
    for d in (1, 2):
        for ta, tb in ((8, 8), (8, 9), (9, 8), (8, 11)):
            a = random_element(rng, Context(d, ta), 5, complex_scalars=True)
            b = random_element(rng, Context(d, tb), 5, complex_scalars=True)
            trunc = min(ta, tb)
            lifted = Context(d, trunc + 2)
            la = WeylElement(lifted, a.terms())
            lb = WeylElement(lifted, b.terms())
            want = WeylElement(
                Context(d, trunc),
                commutator(la, lb).hbar_shift(-1).scale(i).terms())
            got = scaled_bracket(a, b)
            assert got.ctx == Context(d, trunc)
            assert got == want


def test_large_truncation_costs_nothing_on_linear_factors():
    # the kernel's integer scale comes from the operands' grades, not from
    # the cutoff, so a huge truncation leaves x1 * p1 instant
    ctx = Context(1, 10**8)
    x, p = WeylElement.variable(ctx, 0), WeylElement.variable(ctx, 1)
    half_ih = WeylElement.monomial(ctx, 1, (0, 0), GaussianRational(0, "1/2"))
    assert moyal(x, p) == x * p + half_ih
    assert moyal(p, x) == x * p - half_ih
    assert commutator(x, p) == half_ih.scale(2)
    assert scaled_bracket(x, p) == WeylElement.scalar(ctx, -1)
    assert scaled_bracket(p, x) == WeylElement.one(ctx)


# Non-dyadic Gaussian coefficients on both sides: a wrong integer scale
# or a dropped division by the common denominators would leave a factor
# of 3, 5, 7 or 9 behind.
_C = ["(1/3)", "(2/7 + (1/5)*i)", "(-5/9)*i"]


def _edge_element(ctx, monomials):
    return _parse(" + ".join(
        f"{_C[n % 3]}*{mono}" for n, mono in enumerate(monomials)), ctx)


@pytest.mark.parametrize("d,left,right", [
    # grades 4 + 4 at trunc 8: j up to 4
    (1, ["x1^4", "x1^2*p1^2", "p1^4"], ["p1^4", "x1*p1^3", "x1^3*p1"]),
    # d = 2, orders that take derivatives in both dimensions at once
    (2, ["x1^2*x2*p2", "p1*x2^2*p2", "h*x1*p2"],
     ["p1^2*x2*p2", "x1*p1*p2^2", "h*p1*x2"]),
])
def test_product_at_the_cutoff_matches_oracle(d, left, right):
    ctx = Context(d, 8)
    a, b = _edge_element(ctx, left), _edge_element(ctx, right)
    sa, sb = to_sympy(a), to_sympy(b)
    ab, ba = star_oracle(sa, sb, d, 8), star_oracle(sb, sa, d, 8)
    assert_matches(moyal(a, b), ab)
    assert_matches(moyal(b, a), ba)
    for parity, want in ((0, ab + ba), (1, ab - ba)):
        got = _parity_half(a, b, 8, parity)
        assert_matches(got, want / 2)


@pytest.mark.parametrize("d,left,right", [
    # grades 5 + 5 at the bracket's internal cutoff trunc + 2 = 10: j up to 5
    (1, ["x1^5", "x1^3*p1^2", "x1*p1^4"], ["p1^5", "x1^2*p1^3", "x1^4*p1"]),
    (2, ["x1^3*p2^2", "p1^2*x2^2*p2", "h*x1*x2*p2"],
     ["p1^3*x2^2", "x1^2*x2*p2^2", "h*p1*x2*p2"]),
])
def test_scaled_bracket_at_the_cutoff_matches_oracle(d, left, right):
    ctx = Context(d, 8)
    a, b = _edge_element(ctx, left), _edge_element(ctx, right)
    sa, sb = to_sympy(a), to_sympy(b)
    comm = star_oracle(sa, sb, d, 10) - star_oracle(sb, sa, d, 10)
    assert_matches(scaled_bracket(a, b),
                   truncate_sympy(sympy.I * comm / HBAR, d, 8))


def test_star_context_mismatch(ctx1, ctx2):
    with pytest.raises(ContextError):
        moyal(WeylElement.one(ctx1), WeylElement.one(ctx2))
    with pytest.raises(ContextError):
        moyal(WeylElement.one(ctx1), WeylElement.one(Context(1, 6)))
    # scaled_bracket only needs matching dimension
    assert scaled_bracket(
        WeylElement.variable(Context(1, 9), 0),
        WeylElement.variable(ctx1, 1)).ctx.trunc == 8
