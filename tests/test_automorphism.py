"""Automorphism application, verification, derivations, exp and log."""

import random
from fractions import Fraction
from math import gcd

import pytest

from weylalg import (
    AutomorphismData,
    AutomorphismError,
    Context,
    ContextError,
    DerivationData,
    GaussianRational,
    InnerGeneratorError,
    InvalidImageError,
    KernelPreconditionError,
    SympMatrix,
    WeylElement,
    compose,
    exp_derivation,
    identity_automorphism,
    inner_automorphism,
    linear_part,
    log_automorphism,
    moyal,
    parse_element,
    pullback,
    pullback_automorphism,
    scaled_bracket,
    verify_morphism,
)
from weylalg.elements import _gaussian_numerators, monomials_of_grade
from weylalg.sampling import (
    random_element, random_inner_generator, random_instance,
    random_monomial_key)
from weylalg.symplectic import random_symplectic_rng

from oracles import apply_reference


def _parse(text, ctx):
    return parse_element(text, ctx)


def _x(ctx, k=0):
    return WeylElement.variable(ctx, k)


def _cubic_inner(ctx):
    return inner_automorphism(_parse("x1^3", ctx.lifted()), ctx)


def random_kernel_derivation(rng, ctx, terms=3, complex_scalars=False):
    """The bracket derivation (i/hbar)[S, .] of a random generator in X_3.

    Images land in X_2 with grades <= trunc - 1. Arbitrary image
    assignments would not satisfy the Leibniz constraint on the canonical
    relations; bracket derivations always do, so exp and log round-trip
    exactly on these.
    """
    s = random_inner_generator(rng, ctx, rng.randint(1, terms),
                               complex_scalars)
    images = [scaled_bracket(s, _x(ctx, k)) for k in range(ctx.nvars)]
    return DerivationData(ctx, images)


def test_identity_automorphism(rng, ctx2):
    ident = identity_automorphism(ctx2)
    for _ in range(5):
        a = random_element(rng, ctx2, 4, complex_scalars=True)
        assert ident.apply(a) == a


def test_image_validation(ctx1):
    with pytest.raises(InvalidImageError):
        AutomorphismData(ctx1, [_parse("x1 + 1", ctx1), _parse("p1", ctx1)])
    with pytest.raises(InvalidImageError):
        AutomorphismData(ctx1, [_parse("x1", ctx1)])  # wrong count
    with pytest.raises(ContextError):
        AutomorphismData(ctx1, [_x(Context(1, 6), 0), _x(ctx1, 1)])
    with pytest.raises(AutomorphismError):
        AutomorphismData(ctx1, [_x(ctx1, 0), _x(ctx1, 1)], 0)
    # a zero image is degenerate but representable
    AutomorphismData(ctx1, [WeylElement.zero(ctx1), _x(ctx1, 1)])


def test_inner_cubic_golden(ctx1):
    phi = _cubic_inner(ctx1)
    assert phi.images[0] == _parse("x1", ctx1)
    assert phi.images[1] == _parse("p1 - 3*x1^2", ctx1)
    assert phi.apply(_parse("x1*p1", ctx1)) == _parse("x1*p1 - 3*x1^3", ctx1)


def test_inner_generator_gate(ctx1):
    with pytest.raises(InnerGeneratorError):
        inner_automorphism(_parse("x1^2", ctx1.lifted()), ctx1)
    # zero generator gives the identity
    phi = inner_automorphism(WeylElement.zero(ctx1.lifted()), ctx1)
    assert phi.images[0] == _x(ctx1, 0)
    assert phi.images[1] == _x(ctx1, 1)


def test_inner_automorphism_is_morphism(rng):
    for d in (1, 2):
        ctx = Context(d, 8)
        s = random_inner_generator(rng, ctx, 3, complex_scalars=True)
        assert verify_morphism(inner_automorphism(s, ctx), 4)


def test_hbar_scale_action(ctx1):
    two = GaussianRational(2)
    phi = AutomorphismData(ctx1, [_x(ctx1, 0), _parse("2*p1", ctx1)], two)
    h = WeylElement.hbar(ctx1)
    assert phi.apply(h) == h.scale(2)
    assert phi.apply(WeylElement.hbar(ctx1, 3)) == WeylElement.hbar(ctx1, 3).scale(8)
    assert verify_morphism(phi, 4)
    # a non-real scale: hbar^3 picks up c^3
    c = GaussianRational(1, 1)
    phi = AutomorphismData(ctx1, [_x(ctx1, 0), _parse("(1+i)*p1", ctx1)], c)
    h3 = WeylElement.hbar(ctx1, 3)
    assert phi.apply(h3) == h3.scale(c * c * c)
    assert verify_morphism(phi, 6)


@pytest.mark.parametrize("c", [
    GaussianRational(6), GaussianRational(1, 1), GaussianRational("1/2", -2)])
def test_conformal_linear_map_is_scaled_substitution(rng, c):
    # M = diag(cI, I) S with S symplectic has M^T J M = c J, so z -> Mz with
    # hbar -> c*hbar is an automorphism. M is not a SympMatrix: substituting
    # z -> Mz is substituting z -> Sz after scaling each hbar^h x^a p^b
    # by c^(h + |a|)
    for d in (1, 2):
        ctx = Context(d, 8)
        s = random_symplectic_rng(rng, d, 6, complex_entries=True)
        images = [pullback(s, _x(ctx, k)) for k in range(ctx.nvars)]
        phi = AutomorphismData(
            ctx, [im.scale(c) if k < d else im for k, im in enumerate(images)],
            c)
        assert verify_morphism(phi, 4)
        for _ in range(4):
            a = random_element(rng, ctx, 6, complex_scalars=True)
            scaled = WeylElement(ctx, {
                mono: coeff * c ** (mono.hpow + sum(mono.exps[:d]))
                for mono, coeff in a.terms().items()})
            assert phi.apply(a) == pullback(s, scaled)


def test_apply_is_linear_and_memo_stable(rng, ctx2):
    phi, _m, _s = random_instance(rng, ctx2)
    a = random_element(rng, ctx2, 4, complex_scalars=True)
    b = random_element(rng, ctx2, 4, complex_scalars=True)
    first = phi.apply(a + b)
    assert first == phi.apply(a) + phi.apply(b)
    assert phi.apply(a + b) == first  # memoized second pass identical


def _mixed_element(rng, ctx, terms, min_grade=0):
    # coefficients over 3, 5 and 7, about half of them complex
    def part():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 6),
                        rng.choice([3, 5, 7]))
    return WeylElement(ctx, {
        random_monomial_key(rng, ctx, min_grade, ctx.trunc):
            GaussianRational(part(), part() if rng.random() < 0.5 else 0)
        for _ in range(terms)})


def _assert_canonical(el):
    # no zero entry and no empty grade: equality compares the term maps,
    # and rebuilding from the terms drops both
    assert el == WeylElement(el.ctx, el.terms())


@pytest.mark.parametrize("c", [GaussianRational(1), GaussianRational(2),
                               GaussianRational(1, 1),
                               GaussianRational("1/2", -2)])
def test_apply_matches_reference(rng, c):
    for d, trunc in ((1, 7), (2, 6)):
        ctx = Context(d, trunc)
        # images with a term at every other variable, so sums can cancel
        w = _mixed_element(rng, ctx, 2, min_grade=2)
        cancelling = [_x(ctx, k) + (w if k % 2 == 0 else -w)
                      for k in range(ctx.nvars)]
        mixed = [_mixed_element(rng, ctx, 3, min_grade=1)
                 for _ in range(ctx.nvars)]
        h = WeylElement.hbar(ctx)
        top = trunc // 2
        args = [
            WeylElement.zero(ctx),
            WeylElement.one(ctx),
            # whole grades of the images cancel
            _x(ctx, 0) + _x(ctx, 1),
            (_x(ctx, 0) + _x(ctx, 1)) * h,
            # a term that lands on the truncation, and terms whose image
            # is shifted past it in part or in whole
            WeylElement.hbar(ctx, top) * _x(ctx, 0) ** (trunc - 2 * top),
            WeylElement.hbar(ctx, top - 1) * _x(ctx, 0),
            h * _x(ctx, 1) ** (trunc - 2),
        ] + [_mixed_element(rng, ctx, 4) for _ in range(4)]
        maps = [(AutomorphismData(ctx, images, c), images, False)
                for images in (cancelling, mixed)]
        if c.is_one():
            maps += [(DerivationData(ctx, images), images, True)
                     for images in (cancelling, mixed)]
        for phi, images, derivation in maps:
            for a in args:
                got = phi.apply(a)
                assert got == apply_reference(images, a, c, derivation)
                _assert_canonical(got)
            assert phi.apply(args[0]).is_zero()
            if derivation:
                assert phi.apply(args[1]).is_zero()


def _assert_numerator_form(num):
    # canonical: den > 0, gcd(den, every part) = 1, no (0, 0) entry and
    # no empty label
    den, groups = num
    pairs = [v for terms in groups.values() for v in terms.values()]
    assert den > 0
    assert all(groups.values())
    assert (0, 0) not in pairs
    assert gcd(den, *(part for pair in pairs for part in pair)) == 1


def test_memo_images_are_canonical():
    # the memo holds literals, _gaussian_numerators' generator images and
    # _reduced's products; check all of it after verify's compose on the
    # first C08 instances per dimension, and after a basis sweep of a C07
    # logarithm in each dimension
    rng = random.Random(108)
    forms = []
    for d in (1, 2, 3):
        ctx = Context(d, 8)
        for i in range(3):
            phi, m, s = random_instance(rng, ctx, steps=8, generator_terms=10,
                                        complex_scalars=(i == 0))
            lin = pullback_automorphism(m, ctx)
            compose(lin, inner_automorphism(s, ctx))
            forms += lin._memo.values()
            forms += [_gaussian_numerators(im._raw) for im in phi.images]
    rng = random.Random(107)
    for i in range(2):
        ctx = Context(1 + i % 2, 8)
        s = random_element(rng, ctx, terms=3, min_grade=3,
                           max_grade=ctx.trunc, require_z=True,
                           complex_scalars=(i % 5 == 0))
        dv = log_automorphism(exp_derivation(DerivationData(ctx, [
            scaled_bracket(s, _x(ctx, k)) for k in range(ctx.nvars)])))
        for g in range(ctx.trunc + 1):
            for h, e in monomials_of_grade(ctx, g):
                dv.apply(WeylElement.monomial(ctx, h, e))
        forms += dv._memo.values()
    assert len(forms) > 500
    for num in forms:
        _assert_numerator_form(num)


def test_memo_denominators_do_not_grow():
    # each step of the recursion is a kernel call with L = 2; the memo
    # divides the gcd back out, so the image of x1^8 under a matrix over 3
    # keeps a denominator that divides 3^8
    ctx = Context(1, 8)
    third = Fraction(1, 3)
    m = SympMatrix([[third, 2 * third], [third, 11 * third]])
    phi = pullback_automorphism(m, ctx)
    den, _image = phi._image((8, 0))
    assert 3 ** 8 % den == 0
    x8 = WeylElement.monomial(ctx, 0, (8, 0))
    assert phi.apply(x8) == phi.images[0] ** 8


def test_compose_is_pointwise_composition(rng, ctx2):
    phi, _, _ = random_instance(rng, ctx2)
    psi, _, _ = random_instance(rng, ctx2)
    both = compose(phi, psi)
    for _ in range(3):
        a = random_element(rng, ctx2, 3, complex_scalars=True)
        assert both.apply(a) == phi.apply(psi.apply(a))
    assert both.hbar_scale.is_one()


def test_verify_morphism_accepts_shear(ctx1):
    shear = AutomorphismData(ctx1, [_parse("x1", ctx1), _parse("p1 + x1", ctx1)])
    report = verify_morphism(shear, 4)
    assert report and report.passed
    assert report.pairs_checked > 0


def test_verify_morphism_rejects_scaling_with_fixed_hbar(ctx1):
    stretch = AutomorphismData(ctx1, [_parse("x1", ctx1), _parse("2*p1", ctx1)])
    report = verify_morphism(stretch, 4)
    assert not report
    assert report.failures[0][0] == "relation"


def test_verify_morphism_rejects_nonmultiplicative_images(ctx1):
    bad = AutomorphismData(ctx1, [_parse("x1 + x1^3", ctx1), _parse("p1", ctx1)])
    assert not verify_morphism(bad, 4)
    # product failure without a relation failure: dilate one variable pair
    sneaky = AutomorphismData(
        ctx1, [_parse("x1 + x1^2", ctx1), _parse("p1", ctx1)])
    assert not verify_morphism(sneaky, 4)


def test_verify_morphism_grade_bound_validation(ctx1):
    with pytest.raises(ContextError):
        verify_morphism(identity_automorphism(ctx1), 99)


def test_linear_part_reads_grade_one(ctx1):
    phi = _cubic_inner(ctx1)
    rows = linear_part(phi)
    assert rows[0][0].is_one() and rows[1][1].is_one()
    assert rows[0][1].is_zero() and rows[1][0].is_zero()


def test_derivation_validation(ctx1):
    with pytest.raises(InvalidImageError):
        DerivationData(ctx1, [_parse("1", ctx1), _parse("p1", ctx1)])
    dv = DerivationData(ctx1, [_parse("x1^2", ctx1), WeylElement.zero(ctx1)])
    assert dv.apply(_parse("x1", ctx1)) == _parse("x1^2", ctx1)
    assert dv.apply(WeylElement.hbar(ctx1)).is_zero()
    assert dv.apply(WeylElement.one(ctx1)).is_zero()


def test_bracket_derivation_images(ctx1):
    s = _parse("x1^3", ctx1.lifted())
    images = [scaled_bracket(s, _x(ctx1, 0)), scaled_bracket(s, _x(ctx1, 1))]
    assert images[0].is_zero()
    assert images[1] == _parse("-3*x1^2", ctx1)


def test_derivation_leibniz_exhaustive_low_grades(rng, ctx1):
    dv = random_kernel_derivation(rng, ctx1)
    keys = []
    for g in range(0, 6):
        keys.extend((g, k) for k in monomials_of_grade(ctx1, g))
    for gu, (hu, eu) in keys:
        u = WeylElement.monomial(ctx1, hu, eu)
        for gv, (hv, ev) in keys:
            if gu + gv > 6:
                continue
            v = WeylElement.monomial(ctx1, hv, ev)
            assert dv.apply(moyal(u, v)) == \
                moyal(dv.apply(u), v) + moyal(u, dv.apply(v))


def test_exp_log_golden(ctx1):
    phi = _cubic_inner(ctx1)
    dv = log_automorphism(phi)
    assert dv.images[0].is_zero()
    assert dv.images[1] == _parse("-3*x1^2", ctx1)
    back = exp_derivation(dv)
    assert back.images[0] == phi.images[0]
    assert back.images[1] == phi.images[1]


def test_exp_log_roundtrip_random(rng):
    for d in (1, 2):
        ctx = Context(d, 8)
        for _ in range(5):
            dv = random_kernel_derivation(rng, ctx, complex_scalars=True)
            back = log_automorphism(exp_derivation(dv))
            assert all(a == b for a, b in zip(back.images, dv.images))


def test_exp_of_log_reproduces_any_kernel_images(rng):
    # log reads only phi's images: exp(log(phi)) gives them back whether
    # or not they define an automorphism
    for d in (1, 2):
        for trunc in (4, 6, 8):
            ctx = Context(d, trunc)
            for i in range(8):
                phi = AutomorphismData(ctx, [
                    _x(ctx, k) + random_element(
                        rng, ctx, 3, min_grade=2, complex_scalars=i % 3 == 0)
                    for k in range(ctx.nvars)])
                assert exp_derivation(log_automorphism(phi)).images \
                    == phi.images
    ident = identity_automorphism(Context(2, 6))
    assert all(im.is_zero() for im in log_automorphism(ident).images)


def test_log_preconditions(ctx1):
    shear = AutomorphismData(ctx1, [_parse("x1", ctx1), _parse("p1 + x1", ctx1)])
    with pytest.raises(KernelPreconditionError):
        log_automorphism(shear)
    scaled = AutomorphismData(
        ctx1, [_parse("x1", ctx1), _parse("2*p1", ctx1)], 2)
    with pytest.raises(KernelPreconditionError):
        log_automorphism(scaled)


def test_exp_preconditions(ctx1):
    bad = DerivationData(ctx1, [_parse("x1", ctx1), WeylElement.zero(ctx1)])
    with pytest.raises(KernelPreconditionError):
        exp_derivation(bad)


def test_apply_context_checks(rng, ctx1, ctx2):
    phi, _, _ = random_instance(rng, ctx1)
    with pytest.raises(ContextError):
        phi.apply(WeylElement.one(ctx2))
    with pytest.raises(ContextError):
        phi.apply(WeylElement.one(Context(1, 6)))
