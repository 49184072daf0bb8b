"""Symplectic matrices, the form J, and linear pullbacks."""

import random

import pytest

from weylalg import (
    Context,
    ContextError,
    GaussianRational,
    NotSymplecticError,
    SingularMatrixError,
    SympMatrix,
    WeylElement,
    compose,
    factor,
    inner_automorphism,
    is_symplectic,
    linear_part,
    moyal,
    pullback,
    pullback_automorphism,
    random_symplectic,
    symplectic,
    symplectic_form,
)
from weylalg.sampling import random_element, random_instance
from weylalg.symplectic import random_symplectic_rng


def test_form_has_standard_block_shape():
    for d in (1, 2, 3):
        j = symplectic_form(d)
        for k in range(2 * d):
            for l in range(2 * d):
                if k < d and l == d + k:
                    want = GaussianRational(-1)
                elif k >= d and l == k - d:
                    want = GaussianRational(1)
                else:
                    want = GaussianRational(0)
                assert j[k][l] == want


def test_matrix_validation():
    with pytest.raises(ContextError):
        SympMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # odd size
    with pytest.raises(ContextError):
        SympMatrix([[1, 0], [0]])
    with pytest.raises(SingularMatrixError):
        SympMatrix([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        SympMatrix([[0, 0], [0, 1]])


def test_identity_inverse_product():
    i2 = SympMatrix.identity(2)
    assert i2.is_identity()
    m = SympMatrix([[1, 2], [1, 3]])
    assert (m @ m.inverse()).is_identity()
    assert (m.inverse() @ m).is_identity()
    with pytest.raises(ContextError):
        m @ i2


def test_symplectic_matrices_are_never_eliminated(monkeypatch):
    # a symplectic matrix is never eliminated: its inverse is J^-1 M^T J
    def eliminate(rows):
        raise AssertionError("a symplectic matrix was eliminated")

    monkeypatch.setattr(symplectic, "_require_invertible", eliminate)
    m = SympMatrix([[1, 2], [1, 3]])
    assert m.inverse().rows == ((3, -2), (-1, 1))
    assert m.inverse().inverse() == m
    # the first instance of the C08 corpus
    phi, m, s = random_instance(random.Random(108), Context(1, 8), steps=8,
                                generator_terms=10, complex_scalars=True)
    res = factor(phi)
    assert res.matrix == m and res.generator == s


def test_symplectic_detection():
    # d=1: symplectic == determinant one
    assert is_symplectic(SympMatrix([[1, 2], [1, 3]]))
    with pytest.raises(NotSymplecticError):
        SympMatrix([[1, 0], [0, 2]])
    # shear is symplectic
    assert is_symplectic(SympMatrix([[1, 0], [1, 1]]))


def test_random_symplectic_members(rng):
    for d in (1, 2, 3):
        for steps in (0, 1, 5, 10):
            m = random_symplectic_rng(rng, d, steps,
                                      complex_entries=steps % 2 == 0)
            assert is_symplectic(m)
            if steps == 0:
                assert m.is_identity()


def test_random_symplectic_seed_determinism():
    a = random_symplectic(2, 7, steps=6)
    b = random_symplectic(2, 7, steps=6)
    c = random_symplectic(2, 8, steps=6)
    assert a == b
    assert a != c


def test_pullback_is_star_morphism(rng):
    for d in (1, 2):
        ctx = Context(d, 8)
        for _ in range(8):
            m = random_symplectic_rng(rng, d, rng.randint(1, 6),
                                      complex_entries=True)
            a = random_element(rng, ctx, 3, max_grade=5, complex_scalars=True)
            b = random_element(rng, ctx, 3, max_grade=5, complex_scalars=True)
            assert pullback(m, moyal(a, b)) == \
                moyal(pullback(m, a), pullback(m, b))


def test_pullback_group_law(rng, ctx2):
    # substituting along M1 after M2 composes the maps: M2 @ M1
    for _ in range(10):
        m1 = random_symplectic_rng(rng, 2, rng.randint(1, 5))
        m2 = random_symplectic_rng(rng, 2, rng.randint(1, 5))
        a = random_element(rng, ctx2, 4, max_grade=6, complex_scalars=True)
        assert pullback(m1, pullback(m2, a)) == pullback(m2 @ m1, a)


def test_pullback_matches_automorphism_recursion(rng, ctx2):
    # two independent code paths: direct substitution vs star recursion.
    # Complex matrix entries exercise the D * delta^m reduction; the lifted
    # context (trunc 9, grade-9 terms, a ninth power) the packed-key width.
    lifted = ctx2.lifted()
    cases = [(ctx2, False)] * 6 + [(ctx2, True), (lifted, True)]
    for ctx, complex_entries in cases:
        m = random_symplectic_rng(rng, 2, rng.randint(1, 6),
                                  complex_entries=complex_entries)
        a = random_element(rng, ctx, 4, max_grade=6, complex_scalars=True)
        if ctx.trunc == 9:
            a = a + random_element(rng, ctx, 3, min_grade=9,
                                   complex_scalars=True) \
                + WeylElement.monomial(ctx, 0, (0, 9, 0, 0), "1/3")
        assert pullback(m, a) == pullback_automorphism(m, ctx).apply(a)


def test_random_instance_substitution_matches_recursion(rng):
    # random_instance substitutes pullback(M, .) into inner(S)'s images;
    # the star recursion verify_factorization recomposes with must agree
    for d, draws in [(1, 4), (2, 3), (3, 2)]:
        ctx = Context(d, 8)
        with_hbar = 0
        for _ in range(draws):
            phi, m, s = random_instance(rng, ctx, steps=6, generator_terms=6,
                                        complex_scalars=True)
            with_hbar += any(mono.hpow for mono in s.terms())
            recomposed = compose(pullback_automorphism(m, ctx),
                                 inner_automorphism(s, ctx))
            assert phi.images == recomposed.images
        assert with_hbar


def test_pullback_automorphism_linear_part(rng, ctx2):
    m = random_symplectic_rng(rng, 2, 5)
    phi = pullback_automorphism(m, ctx2)
    assert SympMatrix(linear_part(phi)) == m
    assert phi.hbar_scale.is_one()
    # hbar itself is fixed
    h = WeylElement.hbar(ctx2)
    assert phi.apply(h) == h


def test_pullback_dimension_mismatch(ctx2):
    m = SympMatrix([[1, 2], [1, 3]])
    with pytest.raises(ContextError):
        pullback(m, WeylElement.one(ctx2))


def test_pullback_on_scalars_and_hbar(rng, ctx1):
    m = random_symplectic_rng(rng, 1, 4)
    one = WeylElement.one(ctx1)
    h3 = WeylElement.hbar(ctx1, 3)
    assert pullback(m, one) == one
    assert pullback(m, h3) == h3


def test_transvection_coverage():
    # a swap shows up with positive probability and is symplectic
    seen_swap = False
    for seed in range(30):
        m = random_symplectic(1, seed, steps=1)
        if m.rows[0][0].is_zero():
            seen_swap = True
            assert m.rows[0][1].is_one()
            assert m.rows[1][0] == GaussianRational(-1)
    assert seen_swap
