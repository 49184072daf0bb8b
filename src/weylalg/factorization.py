"""Factoring a grading-preserving automorphism into linear x inner parts.

Any automorphism that fixes hbar and preserves the grading splits as

    phi = pullback(M) o inner(S)

with M the (necessarily symplectic) linear part and S a generator in X_3,
determined up to truncation. The constructive direction implemented here:

  1. read off M from the grade-1 part of the images and invert it,
  2. peel it off: psi = pullback(M^-1) o phi has identity linear part;
     its images are the substitutions phi(z_k)(M^-1 z), which is exact
     because M has just been checked to be symplectic, and a symplectic
     linear map acts on Weyl symbols by plain substitution. M^-1 is
     factored once into 2d or fewer maps that each change one variable,
     z_i -> l . z, and a permutation; each image is substituted through
     them in turn, one Horner scheme in one variable per map
     (symplectic.pullback),
  3. take D = log(psi), a derivation with images in X_2, solved one
     grade at a time: the grade-g part of D(z_k) is the grade-g part of
     psi(z_k) - exp(D_<g)(z_k). The piece D_h of grade h raises grades by
     exactly h - 1, so exp(D_<g) at grade g is read from graded powers
     [D^m(z_k)]_g of the pieces found so far, each piece one derivation
     with one memo,
  4. integrate D's dual gradient to S by the radial (Euler) formula, one
     extra grade of truncation; the integration checks that the gradient
     is exact, which for a polynomial 1-form is the same as closed, and
     names the lowest grade of S that is not. Up to the truncation
     order N a grade that is not closed means phi is not a morphism; at
     grade N + 1 phi may be an automorphism of the truncated algebra
     whose top-grade part does not lift to linear o inner (in A/X_{N+1}
     every change of a generator image at grade N keeps the relations),
  5. recompose through the star recursion, which only certifies (known
     answers are built by substitution), and compare to phi term by term.

Each step is exact; the final comparison either certifies the answer on
every generator or pinpoints the first failing grade.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .automorphism import (
    AutomorphismData,
    compose,
    inner_automorphism,
    linear_part,
    log_automorphism,
    pullback_automorphism,
)
from .elements import WeylElement, _acc_add
from .errors import (
    ClosednessError,
    HbarScaleError,
    LinearPartNotInvertibleError,
    LinearPartNotSymplecticError,
    NotSymplecticError,
    OutputLimitError,
    ResidualMismatchError,
    SingularMatrixError,
)
from .symplectic import SympMatrix, pullback


def dual_gradient(dv):
    """Components g_k = -D(zeta_k) of the candidate gradient of S.

    zeta is the dual basis under the scaled bracket: zeta_k = xi_p for
    z_k = x_p and zeta_k = -x_p for z_k = xi_p. If D comes from an inner
    generator then g_k = dS/dz_k.
    """
    d = dv.ctx.dim
    return [-dv.images[d + p] for p in range(d)] + \
        [dv.images[p] for p in range(d)]


def poincare_integrate(dv):
    """Radial integration of the dual gradient to a generator S.

    S is homogeneous-degree-weighted: a gradient term of z-degree m
    contributes with weight 1/(m+1) after multiplication by z_k. The
    result lives one truncation order above the derivation's context.
    Raises ClosednessError if the candidate is not an exact gradient; the
    message names the lowest grade of S that fails and the first variable
    that fails there.
    """
    ctx = dv.ctx
    g = dual_gradient(dv)
    n = ctx.nvars
    lifted = ctx.lifted()
    acc = {}
    for k in range(n):
        for grade, terms in g[k]._raw.items():
            out = acc.setdefault(grade + 1, {})
            for e, (re, im) in terms.items():
                q = Fraction(1, sum(e) + 1)
                _acc_add(out, e[:k] + (e[k] + 1,) + e[k + 1:], re * q, im * q)
    s = WeylElement._from_acc(lifted, acc)
    bad = None
    for k in range(n):
        grade = _lowest_differing_grade(s.partial(k), g[k])
        if grade is not None and (bad is None or grade < bad[0]):
            bad = (grade, k)
    if bad is not None:
        grade, k = bad
        raise ClosednessError(
            f"gradient candidate is not closed in generator grade "
            f"{grade + 1} at variable {ctx.variable_name(k)}")
    return s


def _lowest_differing_grade(a, b):
    """Lowest grade at which the term maps of a and b differ, or None."""
    ra, rb = a._raw, b._raw
    return min((g for g in ra.keys() | rb.keys() if ra.get(g) != rb.get(g)),
               default=None)


def kernel_check(phi):
    """True iff phi fixes hbar and has identity linear part."""
    return (phi.hbar_scale.is_one()
            and linear_part(phi) == SympMatrix.identity(phi.ctx.dim).rows)


@dataclass(frozen=True)
class GeneratorResidual:
    index: int
    passed: bool
    first_mismatch_grade: int | None
    max_grade_checked: int


@dataclass(frozen=True)
class ResidualReport:
    generators: tuple

    @property
    def passed(self):
        return all(g.passed for g in self.generators)

    def __bool__(self):
        return self.passed

    def first_failure(self):
        for g in self.generators:
            if not g.passed:
                return g
        return None


@dataclass(frozen=True)
class FactorizationResult:
    matrix: SympMatrix
    generator: WeylElement
    report: ResidualReport

    @property
    def trunc(self):
        return self.generator.ctx.trunc - 1

    @property
    def dim(self):
        return self.matrix.dim


def verify_factorization(phi, m, s):
    """Recompose pullback(M) o inner(S) and compare to phi, per generator.

    No judgement calls: the report lists, for each generator, whether the
    images agree on the nose and otherwise the lowest grade that differs.
    Only here does the star recursion recompose, to certify: the peel and
    random_instance substitute, so the check does not rest on their code.
    """
    ctx = phi.ctx
    recomposed = compose(pullback_automorphism(m, ctx),
                         inner_automorphism(s, ctx))
    gens = []
    for k in range(ctx.nvars):
        lg = _lowest_differing_grade(recomposed.images[k], phi.images[k])
        gens.append(GeneratorResidual(
            index=k,
            passed=lg is None,
            first_mismatch_grade=lg,
            max_grade_checked=ctx.trunc))
    return ResidualReport(tuple(gens))


def factor(phi):
    """Split phi into (matrix, generator) with a verification report.

    The linear part M is read off and peeled by substitution, and the
    generator S of the remaining kernel automorphism psi is the radial
    integral of log(psi), which log_automorphism solves grade by grade
    from the graded powers of the pieces D_h of D already found;
    verify_factorization then recomposes pullback(M) o inner(S) through
    the bracket series and the star recursion and compares it to phi.

    Raises HbarScaleError, LinearPartNotInvertibleError,
    LinearPartNotSymplecticError or ClosednessError when phi is not of the
    required form; the error identifies the first obstruction encountered,
    for ClosednessError the lowest grade of S that cannot be solved.
    ResidualMismatchError means the recomposition disagrees with phi,
    which exp(log(psi)) = psi rules out once S integrates, unless the
    code is at fault.
    """
    if not phi.hbar_scale.is_one():
        try:
            scale = f"is {phi.hbar_scale}"
        except OutputLimitError:
            scale = f"has more than {sys.get_int_max_str_digits()} digits"
        raise HbarScaleError(f"cannot factor: hbar scale {scale}, need 1")
    try:
        m = SympMatrix(linear_part(phi))
    except SingularMatrixError as exc:
        raise LinearPartNotInvertibleError(
            "linear part of the automorphism is singular") from exc
    except NotSymplecticError as exc:
        raise LinearPartNotSymplecticError(
            "linear part does not preserve the symplectic form") from exc
    # M is symplectic, so pullback(M^-1) acts on each image by substitution
    minv = m.inverse()
    psi = AutomorphismData(phi.ctx, [pullback(minv, im) for im in phi.images])
    s = poincare_integrate(log_automorphism(psi))
    report = verify_factorization(phi, m, s)
    if not report.passed:
        bad = report.first_failure()
        raise ResidualMismatchError(
            f"recomposition differs from input on generator {bad.index} "
            f"at grade {bad.first_mismatch_grade}")
    return FactorizationResult(matrix=m, generator=s, report=report)
