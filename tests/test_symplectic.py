"""Symplectic matrices, the form J, and linear pullbacks."""

import random
from fractions import Fraction

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
from weylalg.symplectic import _pair_swap, random_symplectic_rng


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


def _special_matrices(d):
    """J, a product of pair swaps, and a matrix whose inverse has a zero
    diagonal (so P != I): the inverse is [[0, B], [-B^-T, 0]] with B the
    unit upper bidiagonal matrix."""
    n = 2 * d
    inv = [[GaussianRational(0)] * n for _ in range(n)]
    for r in range(d):
        inv[r][d + r] = GaussianRational(1)
        if r + 1 < d:
            inv[r][d + r + 1] = GaussianRational(1)
        for c in range(r + 1):
            inv[d + r][c] = GaussianRational(-(-1) ** (r - c))
    return [SympMatrix(symplectic_form(d)),
            _pair_swap(d, 0) @ _pair_swap(d, d - 1),
            SympMatrix(inv).inverse()]


def _factor_cases(rng):
    for d in (1, 2, 3):
        for complex_entries in (False, True):
            for _ in range(3):
                yield random_symplectic_rng(rng, d, rng.randint(1, 8),
                                            complex_entries=complex_entries)
        yield from _special_matrices(d)


def _identity_rows(n):
    return [[GaussianRational(int(r == c)) for c in range(n)]
            for r in range(n)]


def _matmul(a, b):
    return [[sum((a[r][k] * b[k][c] for k in range(len(b))),
                 GaussianRational(0)) for c in range(len(b[0]))]
            for r in range(len(a))]


def test_row_factors_multiply_back(rng):
    # M = E_1 ... E_T P exactly, each E_t the identity but for one row
    for m in _factor_cases(rng):
        n = 2 * m.dim
        eye = _identity_rows(n)
        factors = symplectic._row_factors(m)
        assert symplectic._row_factors(m) is factors   # once per matrix
        steps, perm = factors
        assert sorted(perm) == list(range(n)) and len(steps) <= n
        product = eye
        for i, delta, lam in steps:
            e = _identity_rows(n)
            e[i] = [GaussianRational(0)] * n
            for k, (re, im) in lam.items():
                e[i][k] = GaussianRational(Fraction(re, delta),
                                           Fraction(im, delta))
            assert [r for r in range(n) if e[r] != eye[r]] == [i]
            product = _matmul(product, e)
        p = [[GaussianRational(int(perm[r] == c)) for c in range(n)]
             for r in range(n)]
        assert tuple(map(tuple, _matmul(product, p))) == m.rows
    # J, and the matrix whose inverse has a zero diagonal, need P
    for d in (1, 2, 3):
        j, _swaps, zero_diagonal = _special_matrices(d)
        for m in (j, zero_diagonal):
            assert symplectic._row_factors(m)[1] != tuple(range(2 * d))


def test_pullback_matches_automorphism_recursion(rng):
    # two independent code paths: one-row substitution vs star recursion,
    # on real and complex matrices, the special ones, hbar terms, zero and
    # grade-9 terms with a ninth power in the lifted context
    for d in (1, 2, 3):
        ctx = Context(d, 8)
        lifted = ctx.lifted()
        mats = [random_symplectic_rng(rng, d, rng.randint(1, 6)),
                random_symplectic_rng(rng, d, rng.randint(1, 6),
                                      complex_entries=True)]
        for m in mats + _special_matrices(d):
            real = all(v.is_real() for row in m.rows for v in row)
            a = random_element(rng, ctx, 4, max_grade=6,
                               complex_scalars=not real)
            a = a + WeylElement.monomial(ctx, 1, (1,) + (0,) * (2 * d - 1),
                                         "2/3") \
                + WeylElement.hbar(ctx, 2)
            pa = pullback_automorphism(m, ctx)
            assert pullback(m, a) == pa.apply(a)
            zero = WeylElement.zero(ctx)
            assert pullback(m, zero) == zero
        a = random_element(rng, lifted, 4, max_grade=6, complex_scalars=True) \
            + random_element(rng, lifted, 3, min_grade=9, complex_scalars=True) \
            + WeylElement.monomial(lifted, 0, (0, 9) + (0,) * (2 * d - 2), "1/3")
        assert pullback(mats[1], a) == \
            pullback_automorphism(mats[1], lifted).apply(a)


def test_pullback_automorphism_reads_images_off_rows(rng):
    # verify's automorphism has the substitution's images, read off M
    for d in (1, 2, 3):
        ctx = Context(d, 8)
        for m in [random_symplectic_rng(rng, d, 6, complex_entries=True)] \
                + _special_matrices(d):
            phi = pullback_automorphism(m, ctx)
            assert list(phi.images) == [
                pullback(m, WeylElement.variable(ctx, k))
                for k in range(ctx.nvars)]


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
