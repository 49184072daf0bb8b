"""Deterministic random generation of elements, generators and instances.

Everything draws from a caller-supplied random.Random so the same seed
reproduces the same objects on any platform; no global RNG state is used.
Coefficients are small rationals (optionally Gaussian) to keep the exact
arithmetic fast while still exercising carries and sign interplay.
"""

from __future__ import annotations

from .automorphism import AutomorphismData, inner_automorphism
from .elements import WeylElement
from .scalars import GaussianRational, rational
from .symplectic import pullback, random_symplectic_rng


def random_rational(rng):
    """A nonzero rational, numerator and denominator at most 4 in size."""
    num = rng.choice([-1, 1]) * rng.randint(1, 4)
    return rational(num, rng.randint(1, 4))


def random_scalar(rng, complex_scalars=False):
    re = random_rational(rng)
    if complex_scalars and rng.random() < 0.5:
        return GaussianRational(re, random_rational(rng))
    return GaussianRational(re)


def random_monomial_key(rng, ctx, min_grade, max_grade, require_z=False,
                        allow_h=True):
    """A key (hpow, exps) with grade in [min_grade, max_grade]."""
    if min_grade > max_grade:
        raise ValueError("empty grade range")
    grade = rng.randint(min_grade, max_grade)
    hmax = grade // 2 if allow_h else 0
    if require_z and 2 * hmax == grade:
        hmax = max(hmax - 1, 0)
    hpow = rng.randint(0, hmax) if hmax else 0
    zdeg = grade - 2 * hpow
    exps = [0] * ctx.nvars
    for _ in range(zdeg):
        exps[rng.randrange(ctx.nvars)] += 1
    return hpow, tuple(exps)


def random_element(rng, ctx, terms, min_grade=0, max_grade=None,
                   complex_scalars=False, require_z=False, allow_h=True):
    """Sum of `terms` random monomials with random small coefficients."""
    if max_grade is None:
        max_grade = ctx.trunc
    raw = {}
    for _ in range(terms):
        key = random_monomial_key(
            rng, ctx, min_grade, max_grade, require_z, allow_h)
        c = random_scalar(rng, complex_scalars)
        prev = raw.get(key)
        raw[key] = c if prev is None else prev + c
    return WeylElement(ctx, raw)


def random_inner_generator(rng, ctx, terms, complex_scalars=False):
    """A generator in X_3: grades 3 .. trunc+1, every term depends on z.

    Lives one truncation order above ctx, as inner_automorphism expects.
    """
    lifted = ctx.lifted()
    return random_element(
        rng, lifted, terms, min_grade=3, max_grade=lifted.trunc,
        complex_scalars=complex_scalars, require_z=True)


def random_instance(rng, ctx, steps=8, generator_terms=6,
                    complex_scalars=False):
    """A known-answer factorization problem, built by substitution.

    Returns (phi, m, s) with phi = pullback(M) o inner(S), its images
    pullback(M, inner(S)(z_k)); factor(phi) must give m and s exactly.
    The star recursion recomposes only in verify_factorization, to certify.
    """
    m = random_symplectic_rng(rng, ctx.dim, rng.randint(0, steps),
                              complex_entries=complex_scalars)
    s = random_inner_generator(rng, ctx, rng.randint(0, generator_terms),
                               complex_scalars=complex_scalars)
    phi = AutomorphismData(
        ctx, [pullback(m, im) for im in inner_automorphism(s, ctx).images])
    return phi, m, s
