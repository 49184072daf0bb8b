"""Factorization pipeline: gradient, integration, factor, verification."""

import random
import re
from fractions import Fraction

import pytest

import weylalg.automorphism as automorphism_module
import weylalg.factorization as factorization_module
import weylalg.star as star_module
import weylalg.symplectic as symplectic_module
from weylalg import (
    MIN_TRUNC,
    AutomorphismData,
    ClosednessError,
    Context,
    DerivationData,
    GaussianRational,
    HbarScaleError,
    LinearPartNotInvertibleError,
    LinearPartNotSymplecticError,
    NotSymplecticError,
    ResidualMismatchError,
    SympMatrix,
    WeylElement,
    automorphism_record,
    compose,
    dual_gradient,
    exp_derivation,
    factor,
    identity_automorphism,
    inner_automorphism,
    kernel_check,
    log_automorphism,
    parse_element,
    poincare_integrate,
    pullback,
    pullback_automorphism,
    save_record,
    verify_factorization,
    verify_morphism,
)
from weylalg.cli import main
from weylalg.sampling import random_element, random_inner_generator, random_instance
from weylalg.symplectic import random_symplectic_rng


def _parse(text, ctx):
    return parse_element(text, ctx)


def _auto(ctx, ximg, pimg, scale=1):
    return AutomorphismData(ctx, [_parse(ximg, ctx), _parse(pimg, ctx)], scale)


def test_factor_inner_cubic_golden(ctx1):
    s = _parse("x1^3", ctx1.lifted())
    res = factor(inner_automorphism(s, ctx1))
    assert res.matrix.is_identity()
    assert res.generator == s
    assert res.generator.ctx.trunc == 9
    assert res.report.passed
    assert res.trunc == 8 and res.dim == 1


def test_factor_pure_pullback_gives_zero_generator(rng):
    for d in (1, 2):
        ctx = Context(d, 8)
        m = random_symplectic_rng(rng, d, 5)
        res = factor(pullback_automorphism(m, ctx))
        assert res.matrix == m
        assert res.generator.is_zero()
        assert res.report.passed


def test_factor_roundtrip_random(rng):
    for d in (1, 2):
        ctx = Context(d, 8)
        for _ in range(5):
            phi, m, s = random_instance(rng, ctx, complex_scalars=True)
            res = factor(phi)
            assert res.matrix == m
            assert res.generator == s
            assert res.report.passed


def test_factor_error_taxonomy(ctx1):
    with pytest.raises(HbarScaleError):
        factor(_auto(ctx1, "x1", "2*p1", 2))
    with pytest.raises(LinearPartNotInvertibleError):
        factor(_auto(ctx1, "x1 + p1", "x1 + p1"))
    with pytest.raises(LinearPartNotSymplecticError):
        factor(_auto(ctx1, "x1", "2*p1"))
    with pytest.raises(ClosednessError, match="at variable x1$"):
        factor(_auto(ctx1, "x1 + x1^3", "p1"))


def test_closedness_error_names_the_generator_grade(ctx1):
    # S_3 = x1^3 solves grade 2 exactly; the x1^4 left at grade 4 is not
    # a gradient, so the solve stops at grade 5 of S
    with pytest.raises(ClosednessError,
                       match="generator grade 5 at variable x1$"):
        factor(_auto(ctx1, "x1 + x1^4", "p1 - 3*x1^2"))
    # on a whole derivation the lowest failing grade is named
    dv = log_automorphism(_auto(ctx1, "x1 + x1^3 + x1^5", "p1 + x1^6"))
    with pytest.raises(ClosednessError,
                       match="generator grade 4 at variable x1$"):
        poincare_integrate(dv)


def test_top_grade_change_is_a_morphism_that_does_not_factor(
        ctx1, tmp_path, capsys):
    # in A/X_9 a change of an image at grade 8 keeps every relation, since
    # [f, z_l] of a grade-8 f has grade >= 9; the log still finds it, but
    # it is not the dual gradient of a closed S_9
    top = _auto(ctx1, "x1 + x1^8", "p1")
    report = verify_morphism(top, 8)
    assert report.passed and report.pairs_checked == 1190
    with pytest.raises(ClosednessError,
                       match="generator grade 9 at variable x1$"):
        factor(top)
    path = tmp_path / "top.json"
    save_record(automorphism_record(top), path)
    assert main(["factor", str(path)]) == 14
    assert "generator grade 9 at variable x1" in capsys.readouterr().err
    # one grade lower the same change breaks the relations
    below = _auto(ctx1, "x1 + x1^7", "p1")
    assert not verify_morphism(below, 8)
    with pytest.raises(ClosednessError,
                       match="generator grade 8 at variable x1$"):
        factor(below)


def test_factor_commutes_with_projection():
    # the quotient map A/X_9 -> A/X_{N'+1} carries pullback(M) o inner(S)
    # to pullback(M) o inner(S mod X_{N'+2}), so factoring the projected
    # images gives M again and S cut two grades above N'
    rng = random.Random(2026)
    for d in (1, 2, 3):
        for _ in range(4):
            phi, m, s = random_instance(rng, Context(d, 8), steps=6,
                                        generator_terms=6,
                                        complex_scalars=rng.random() < 0.3)
            for low in range(MIN_TRUNC, 8):
                ctx = Context(d, low)
                res = factor(AutomorphismData(ctx, [
                    WeylElement(ctx, im.terms()) for im in phi.images]))
                assert res.matrix == m
                assert res.generator == WeylElement(ctx.lifted(), s.terms())


def _series_log(phi):
    """log(phi) as the series sum_m (-1)^(m+1) (phi - id)^m / m on each
    generator, finite because phi - id raises the grade."""
    ctx = phi.ctx
    images = []
    for k in range(ctx.nvars):
        total = cur = phi.images[k] - WeylElement.variable(ctx, k)
        m = 1
        while not cur.is_zero():
            m += 1
            cur = phi.apply(cur) - cur
            total = total + cur.scale(Fraction((-1) ** (m + 1), m))
        images.append(total)
    return DerivationData(ctx, images)


def test_log_matches_the_series_logarithm(rng):
    # the grade-by-grade log against the series, on inner automorphisms
    # and on perturbations of them that are not closed
    hbar_terms = 0
    for d in (1, 2, 3):
        for trunc in (4, 6, 8, 10):
            ctx = Context(d, trunc)
            for complex_scalars in (False, True):
                s = random_inner_generator(rng, ctx, 6 if d < 3 else 4,
                                           complex_scalars=complex_scalars)
                hbar_terms += sum(mono.hpow > 0 for mono in s.terms())
                psi = inner_automorphism(s, ctx)
                dv = log_automorphism(psi)
                assert dv.images == _series_log(psi).images
                solved = poincare_integrate(dv)
                assert solved == s
                assert solved.ctx == ctx.lifted()
                # x1^j (times hbar^h) in the image of x1 is no gradient
                j = rng.randint(1, trunc - 2)
                h = rng.randint(0, (trunc - j) // 2) if j > 1 else 1
                images = list(psi.images)
                images[0] = images[0] + WeylElement.monomial(
                    ctx, h, (j,) + (0,) * (2 * d - 1), 2)
                bad = AutomorphismData(ctx, images)
                with pytest.raises(ClosednessError) as by_series:
                    poincare_integrate(_series_log(bad))
                with pytest.raises(ClosednessError) as by_grade:
                    poincare_integrate(log_automorphism(bad))
                assert str(by_grade.value) == str(by_series.value)
                assert f"generator grade {j + 2 * h + 1} " \
                    in str(by_grade.value)
    assert hbar_terms


def _shear_generator(rng, lifted, grade, on_p, complex_scalars):
    """Two terms of one grade in hbar and x_1..x_d only (p_1..p_d if on_p).

    The bracket with such an S maps the variables it is made of to 0, so
    D = (i/hbar) ad_S has D^2 = 0 and inner(S) = id + D: every image is
    z_k plus terms of grade `grade - 1` alone.
    """
    d = lifted.dim
    terms = {}
    for _ in range(2):
        h = rng.randint(0, (grade - 1) // 2)
        exps = [0] * (2 * d)
        for _ in range(grade - 2 * h):
            exps[d * on_p + rng.randrange(d)] += 1
        re = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        terms[h, tuple(exps)] = GaussianRational(
            re, rng.randint(-3, 3) if complex_scalars else 0)
    return WeylElement(lifted, terms)


def test_log_of_images_whose_logarithm_skips_grades(rng):
    # D with pieces at one grade, or at two grades not next to each other,
    # leaves most entries of the table of graded powers empty
    for d in (1, 2, 3):
        for trunc in (4, 5, 9):
            ctx = Context(d, trunc)
            lifted = ctx.lifted()
            cases = []
            for i, grades in enumerate(((2,), (trunc,), (2, 4), (2, trunc))):
                on_p = i % 2 == 1
                s = sum((_shear_generator(rng, lifted, g + 1, on_p, i >= 2)
                         for g in grades), WeylElement.zero(lifted))
                cases.append((grades, inner_automorphism(s, ctx)))
            # one grade of D, but its powers fill the grades above it
            for g in (2, 3):
                s = random_element(rng, lifted, 2, min_grade=g + 1,
                                   max_grade=g + 1, require_z=True)
                cases.append(((g,), inner_automorphism(s, ctx)))
            for grades, psi in cases:
                dv = log_automorphism(psi)
                assert {g for im in dv.images for g in im.grades()} \
                    == set(grades)
                assert dv.images == _series_log(psi).images
                assert exp_derivation(dv).images == psi.images
            for grades, psi in cases[:4]:
                assert all(
                    set((im - WeylElement.variable(ctx, k)).grades())
                    <= set(grades) for k, im in enumerate(psi.images))
        ident = identity_automorphism(Context(d, MIN_TRUNC))
        dv = log_automorphism(ident)
        assert all(im.is_zero() for im in dv.images)
        assert dv.images == _series_log(ident).images
        assert exp_derivation(dv).images == ident.images


def test_log_builds_no_exponential_series(monkeypatch):
    # the log solves on graded powers of its pieces, not through exp
    rng = random.Random(108)
    ctx = Context(2, 8)
    phi, m, s = random_instance(rng, ctx, steps=8, generator_terms=10)
    minv = m.inverse()
    psi = AutomorphismData(ctx, [pullback(minv, im) for im in phi.images])
    want = _series_log(psi).images

    def no_exp(dv):
        raise AssertionError("log_automorphism called exp_derivation")

    with monkeypatch.context() as patch:
        patch.setattr(automorphism_module, "exp_derivation", no_exp)
        dv = log_automorphism(psi)
    assert dv.images == want
    assert poincare_integrate(dv) == s
    assert exp_derivation(dv).images == psi.images


def test_verify_runs_no_substitution(monkeypatch):
    # verify certifies through the star recursion alone: it builds its
    # automorphism from M's rows and never substitutes
    ctx = Context(2, 8)
    phi, m, s = random_instance(random.Random(108), ctx, steps=8,
                                generator_terms=10)

    def no_pullback(*args):
        raise AssertionError("verify_factorization substituted")

    with monkeypatch.context() as patch:
        for name in ("pullback", "_row_factors", "_substitute_variable"):
            patch.setattr(symplectic_module, name, no_pullback)
        patch.setattr(factorization_module, "pullback", no_pullback)
        report = verify_factorization(phi, m, s)
    assert report.passed


def test_verify_compose_takes_no_pair_rule(monkeypatch):
    # every left factor of verify's recomposition is a linear image, so
    # the kernel settles each of its grade pairs with the j = 0 product
    # and never reaches the per-pair rule
    rng = random.Random(125)
    calls = []
    real_pair = star_module._moyal_pair

    def counted(*args):
        calls.append(args)
        return real_pair(*args)

    for d in (1, 2, 3):
        ctx = Context(d, 8)
        for i in range(2):
            phi, m, s = random_instance(rng, ctx, steps=8, generator_terms=10,
                                        complex_scalars=(i == 0))
            linear = pullback_automorphism(m, ctx)
            inner = inner_automorphism(s, ctx)
            with monkeypatch.context() as patch:
                patch.setattr(star_module, "_moyal_pair", counted)
                got = compose(linear, inner)
            assert got.images == phi.images
    assert not calls


def test_top_grade_rejections_are_the_only_morphisms_rejected():
    # one-term perturbations of known answers: factor accepts only
    # morphisms, a generator grade <= N that is not closed means a
    # non-morphism, and one at N + 1 a morphism that does not lift
    rng = random.Random(8)
    seen = {}
    for d, trunc, draws in [(1, 4, 8), (1, 5, 8), (1, 6, 8), (2, 4, 6),
                            (2, 5, 4), (2, 6, 2)]:
        ctx = Context(d, trunc)
        for _ in range(draws):
            phi, _m, _s = random_instance(rng, ctx, steps=3, generator_terms=2)
            images = list(phi.images)
            k = rng.randrange(ctx.nvars)
            images[k] = images[k] + random_element(rng, ctx, 1, min_grade=2)
            phi = AutomorphismData(ctx, images)
            morphism = verify_morphism(phi, trunc).passed
            try:
                factor(phi)
                outcome = "accepted"
            except ClosednessError as exc:
                grade = int(re.search(r"generator grade (\d+) ",
                                      str(exc)).group(1))
                outcome = "top" if grade == trunc + 1 else (
                    "grade N" if grade == trunc else "below N")
            assert morphism == (outcome in ("accepted", "top")), outcome
            seen[outcome] = seen.get(outcome, 0) + 1
    assert sorted(seen) == ["accepted", "below N", "grade N", "top"], seen


def test_factor_raises_on_forced_residual_failure(ctx1, monkeypatch):
    # the pipeline cannot produce a failing report for genuine inputs, so
    # force one to cover the final gate
    phi = inner_automorphism(_parse("x1^3", ctx1.lifted()), ctx1)
    real_verify = factorization_module.verify_factorization

    def sabotaged(phi_, m_, s_):
        return real_verify(phi_, m_, s_ + _parse("x1^4", s_.ctx))

    monkeypatch.setattr(factorization_module, "verify_factorization", sabotaged)
    with pytest.raises(ResidualMismatchError):
        factor(phi)


def test_kernel_check(rng, ctx1):
    assert kernel_check(inner_automorphism(_parse("x1^3", ctx1.lifted()), ctx1))
    m = random_symplectic_rng(rng, 1, 5)
    phi = pullback_automorphism(m, ctx1)
    assert kernel_check(phi) == m.is_identity()
    assert not kernel_check(_auto(ctx1, "x1", "2*p1", 2))


def test_dual_gradient_and_closedness(rng, ctx2):
    s = random_inner_generator(rng, ctx2, 4, complex_scalars=True)
    phi = inner_automorphism(s, ctx2)
    dv = log_automorphism(phi)
    g = dual_gradient(dv)
    # defining relations: g matches the partials of the integrated S
    integrated = poincare_integrate(dv)
    for k in range(4):
        assert integrated.partial(k) == g[k]
    assert integrated == s


def test_closedness_detects_asymmetry(ctx1):
    dv = log_automorphism(_auto(ctx1, "x1 + x1^3", "p1"))
    with pytest.raises(ClosednessError):
        poincare_integrate(dv)


def test_poincare_lives_one_order_up(rng, ctx1):
    s = random_inner_generator(rng, ctx1, 3)
    dv = log_automorphism(inner_automorphism(s, ctx1))
    out = poincare_integrate(dv)
    assert out.ctx.trunc == ctx1.trunc + 1
    if not out.is_zero():
        assert out.lowest_grade() >= 3


def test_verify_factorization_reports_perturbation_grade(rng, ctx1):
    phi, m, s = random_instance(rng, ctx1, steps=4, generator_terms=4)
    clean = verify_factorization(phi, m, s)
    assert clean.passed and clean.first_failure() is None
    for junk, grade in [("x1^4", 4), ("h*x1^2*p1^2", 6), ("h^3*x1^2*p1", 9)]:
        rep = verify_factorization(phi, m, s + _parse(junk, s.ctx))
        bad = rep.first_failure()
        assert not rep.passed
        assert bad.first_mismatch_grade == grade - 1
        assert bad.max_grade_checked == ctx1.trunc
    # a key on one side only, and one image perturbed at grades 5 and 3:
    # the lowest differing grade is reported, as (recomposed - phi) gives
    mono, c = max(phi.images[1].terms().items())
    dropped = phi.images[1] - WeylElement.monomial(ctx1, *mono, c)
    twice = phi.images[0] + _parse("x1^3*p1^2 - h*p1", ctx1)
    recomposed = compose(pullback_automorphism(m, ctx1),
                         inner_automorphism(s, ctx1))
    for images, k, grade in [([phi.images[0], dropped], 1, mono.grade()),
                             ([twice, phi.images[1]], 0, 3)]:
        bad = verify_factorization(AutomorphismData(ctx1, images), m, s)
        assert [g.index for g in bad.generators if not g.passed] == [k]
        assert bad.first_failure().first_mismatch_grade == grade
        assert (recomposed.images[k] - images[k]).lowest_grade() == grade


def test_verify_factorization_wrong_matrix(rng, ctx1):
    phi, m, s = random_instance(rng, ctx1, steps=3, generator_terms=2)
    other = m @ SympMatrix([[1, 0], [1, 1]])
    rep = verify_factorization(phi, other, s)
    assert not rep.passed
    assert rep.first_failure().first_mismatch_grade == 1
    with pytest.raises(NotSymplecticError):
        verify_factorization(phi, SympMatrix([[1, 0], [0, 2]]), s)


def test_factor_composed_order_conjugates_generator(rng, ctx1):
    # inner(S) o pullback(M) = pullback(M) o inner(S') with S' the
    # generator transported by the inverse substitution
    from weylalg import pullback
    m = random_symplectic_rng(rng, 1, 4)
    s = random_inner_generator(rng, ctx1, 3)
    flipped = compose(inner_automorphism(s, ctx1),
                      pullback_automorphism(m, ctx1))
    res = factor(flipped)
    assert res.matrix == m
    assert res.report.passed
    assert res.generator == pullback(m.inverse(), s)


def test_factor_d3_smoke(rng):
    ctx = Context(3, 8)
    phi, m, s = random_instance(rng, ctx, steps=6, generator_terms=6)
    res = factor(phi)
    assert res.matrix == m and res.generator == s and res.report.passed
