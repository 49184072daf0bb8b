"""Grading-preserving automorphisms and derivations of the truncated algebra.

Both are linear maps fixed by their images of the 2d generators; the images
must lie in the ideal of positive grade, so the maps respect the grading
filtration. An automorphism also carries a scalar c with hbar -> c*hbar;
a derivation kills hbar and commutes with multiplication by it (c = 1).

Both extend from generators to monomials by one recursion,

    z^alpha = z_k o z^beta,

with k the smallest index present in alpha and o the symmetric product
a o b = (a * b + b * a)/2, the even-order half of the Moyal series. With a
linear left factor the only even order left is 0, so z_k o z^beta is the
plain product z^alpha. An automorphism respects o and a derivation obeys
the Leibniz rule for it, because both do so for the star product. The two
maps differ only in the image of 1 (1 or 0) and in the product rule
applied to z_k o z^beta: phi(z_k) o phi(z^beta) for an automorphism, the
Leibniz rule D(z_k) o z^beta + z_k o D(z^beta) for a derivation. The scale
c enters only where apply maps hbar to c*hbar. Images are memoized per
exponent tuple, so repeated applications (composition, logarithms,
verification sweeps) stay cheap. The memo holds each image in numerator
form, (den, {grade: {exps: (re, im)}}), which the Moyal kernel takes as
it is; elements._reduced puts each new image in lowest terms, so that
denominators do not grow down the recursion. apply writes its argument,
each hbar^h already scaled by c^h, over one denominator, scales every
image it reaches to the lcm of their denominators and sums plain
integers, a whole grade at a time: hbar^h z^e maps to hbar^h phi(z^e),
each grade of phi(z^e) moved up by 2h. It makes one Fraction per output
part.

exp/log convert between derivations with images in X_2 and automorphisms
with identity linear part. exp, and inner(S) = exp((i/hbar) ad_S), are
series that terminate exactly because each step raises the lowest grade.
log is no series: it reads D off one grade at a time, each grade the part
of phi(z_k) that exp of the lower grades does not yet produce. o adds
grades, so the piece D_h of D with images of grade h raises every grade by
exactly h - 1; log keeps each piece as one derivation, with one memo, and
grows a table of graded powers [D^m(z_k)]_g by one grade per step.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .elements import (
    Context, WeylElement, _acc_add, _acc_merge, _from_numerators,
    _gaussian_numerators, _reduced, monomials_of_grade)
from .errors import (
    AutomorphismError,
    ContextError,
    InnerGeneratorError,
    InternalError,
    InvalidImageError,
    KernelPreconditionError,
)
from .scalars import G_MINUS_I, G_ONE, _coerce_gaussian
from .star import _moyal_raw, commutator, moyal, scaled_bracket
from .symplectic import SympMatrix, _require_matrix_dim, symplectic_form


class _StarRecursionMap:
    """A linear map fixed by generator images, extended by the star recursion.

    Subclasses set `_kind` (for messages), `_one` (the image of 1, 1 or
    0) and `_product(unit, beta)`, the image of z^alpha = z_k o z^beta,
    the symmetric product, with unit the exponents of z_k; it returns an
    integer accumulator over a denominator, (den, acc). apply scales each
    hbar of its argument by c.
    """

    __slots__ = ("ctx", "images", "_c", "_memo")

    def __init__(self, ctx, images, c):
        if not isinstance(ctx, Context):
            raise ContextError("first argument must be a Context")
        images = tuple(images)
        if len(images) != ctx.nvars:
            raise InvalidImageError(
                f"need {ctx.nvars} generator images, got {len(images)}")
        for k, im in enumerate(images):
            if not isinstance(im, WeylElement):
                raise InvalidImageError(
                    f"image of {ctx.variable_name(k)} is not an element")
            if im.ctx != ctx:
                raise ContextError(
                    f"image of {ctx.variable_name(k)} lives in {im.ctx}, expected {ctx}")
            lg = im.lowest_grade()
            if lg is not None and lg < 1:
                raise InvalidImageError(
                    f"image of {ctx.variable_name(k)} has a grade-0 term; "
                    "images must lie in the positive-grade ideal")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _image(self, e):
        """Image of the plain monomial z^e in numerator form,
        (den, {grade: {exps: (re, im)}}), in lowest terms."""
        memo = self._memo
        num = memo.get(e)
        if num is not None:
            return num
        deg = sum(e)
        if deg == 0:
            num = (1, {0: {e: (1, 0)}} if self._one else {})
        elif deg == 1:
            num = _gaussian_numerators(self.images[e.index(1)]._raw)
        else:
            k = next(i for i, v in enumerate(e) if v)
            unit = e[:k] + (1,) + (0,) * (len(e) - k - 1)
            beta = e[:k] + (e[k] - 1,) + e[k + 1:]
            num = _reduced(*self._product(unit, beta))
        memo[e] = num
        return num

    def apply(self, a):
        if a.ctx != self.ctx:
            raise ContextError(
                f"element context {a.ctx} != {self._kind} context {self.ctx}")
        trunc = self.ctx.trunc
        c = self._c
        raw = a._raw
        if not c.is_one():
            raw = {}
            for ga, terms in a._raw.items():
                out = raw[ga] = {}
                for e, (re, im) in terms.items():
                    ch = c ** ((ga - sum(e)) // 2)  # h the term's hbar power
                    out[e] = (re * ch.re - im * ch.im, re * ch.im + im * ch.re)
        den_a, groups = _gaussian_numerators(raw)
        # the images that reach the truncation, over the lcm of their dens
        parts = []
        den = 1
        for ga, items in groups.items():
            for e, (re, im) in items.items():
                shift = ga - sum(e)     # 2h, h the term's hbar power
                den_e, image = self._image(e)
                if image and min(image) + shift <= trunc:
                    parts.append((shift, re, im, den_e, image))
                    den = lcm(den, den_e)
        acc = {}
        for shift, re, im, den_e, image in parts:
            q = den // den_e
            re, im = re * q, im * q
            for g, items in image.items():
                if g + shift > trunc:
                    continue
                out = acc.setdefault(g + shift, {})
                if im:
                    for e2, (r2, i2) in items.items():
                        _acc_add(out, e2,
                                 re * r2 - im * i2, re * i2 + im * r2)
                else:
                    for e2, (r2, i2) in items.items():
                        _acc_add(out, e2, re * r2, re * i2)
        return _from_numerators(self.ctx, den_a * den, acc)

    def __repr__(self):
        ims = ", ".join(
            f"{self.ctx.variable_name(k)} -> {im}"
            for k, im in enumerate(self.images))
        scale = "" if self._c.is_one() else f" c={self._c}"
        return f"<{self._kind.capitalize()} {self.ctx}{scale} [{ims}]>"


class AutomorphismData(_StarRecursionMap):
    """Generator images plus the hbar scale factor; apply() is memoized."""

    __slots__ = ()
    _kind = "automorphism"
    _one = 1

    def __init__(self, ctx, images, hbar_scale=G_ONE):
        c = _coerce_gaussian(hbar_scale)
        if c.is_zero():
            raise AutomorphismError("hbar scale factor must be nonzero")
        super().__init__(ctx, images, c)

    @property
    def hbar_scale(self):
        return self._c

    def _product(self, unit, beta):
        # phi(z_k) o phi(z^beta)
        ctx = self.ctx
        return _moyal_raw(self._image(unit), self._image(beta),
                          ctx.dim, ctx.trunc, 0)


def pullback_automorphism(m, ctx):
    """The automorphism z_k -> (Mz)_k of a SympMatrix M.

    The only place a matrix becomes an automorphism: image k is read off
    row k of M, sum_l M[k][l] z_l, with no substitution, and apply runs
    the star recursion. verify_factorization builds its certificate
    here, so it runs none of symplectic.pullback's code.
    """
    _require_matrix_dim(m, ctx)
    n = ctx.nvars
    units = [tuple(int(i == l) for i in range(n)) for l in range(n)]
    return AutomorphismData(ctx, [
        WeylElement._from_acc(ctx, {1: {
            unit: (v.re, v.im) for unit, v in zip(units, row)}})
        for row in m.rows])


def identity_automorphism(ctx):
    return pullback_automorphism(SympMatrix.identity(ctx.dim), ctx)


def linear_part(phi):
    """Rows of the matrix of the grade-1 component of the generator images.

    Plain nested tuples of GaussianRational; no invertibility or
    symplecticity is implied or checked here.
    """
    ctx = phi.ctx
    n = ctx.nvars
    rows = []
    for k in range(n):
        row = []
        for l in range(n):
            exps = tuple(1 if i == l else 0 for i in range(n))
            row.append(phi.images[k].coefficient(0, exps))
        rows.append(tuple(row))
    return tuple(rows)


def compose(phi, psi):
    """The automorphism a -> phi(psi(a))."""
    if phi.ctx != psi.ctx:
        raise ContextError("cannot compose automorphisms over different contexts")
    return AutomorphismData(
        phi.ctx,
        [phi.apply(im) for im in psi.images],
        phi.hbar_scale * psi.hbar_scale)


class MorphismReport:
    """Outcome of verify_morphism; truthy iff every check passed."""

    __slots__ = ("passed", "failures", "pairs_checked")

    def __init__(self, passed, failures, pairs_checked):
        self.passed = passed
        self.failures = failures
        self.pairs_checked = pairs_checked

    def __bool__(self):
        return self.passed

    def __repr__(self):
        if self.passed:
            return f"<MorphismReport ok, {self.pairs_checked} pairs>"
        kind, detail = self.failures[0]
        return (f"<MorphismReport FAILED {kind} {detail}, "
                f"{len(self.failures)} failure(s)>")


def verify_morphism(phi, max_grade):
    """Check star-multiplicativity of phi on basis monomials.

    Tests the canonical commutation relations on generator pairs, then
    phi(u star v) == phi(u) star phi(v) for all basis monomials u, v with
    grade(u) + grade(v) <= max_grade. Exhaustive over that range, so on a
    true morphism this is a proof up to the stated grade.
    """
    ctx = phi.ctx
    if not 0 <= max_grade <= ctx.trunc:
        raise ContextError("max_grade must lie between 0 and the truncation order")
    n = ctx.nvars
    max_failures = 5
    failures = []
    # generator relations: [G_k, G_l] = c * (hbar/i) {z_k, z_l}, read from J
    j = symplectic_form(ctx.dim)
    zeros = (0,) * n
    c = phi.hbar_scale
    for k in range(n):
        for l in range(k + 1, n):
            want_scalar = G_MINUS_I * c * j[k][l]  # (1/i) = -i
            want = WeylElement.zero(ctx) if want_scalar.is_zero() else \
                WeylElement.monomial(ctx, 1, zeros, want_scalar)
            got = commutator(phi.images[k], phi.images[l])
            if got != want:
                failures.append(("relation", (k, l)))
                if len(failures) >= max_failures:
                    return MorphismReport(False, failures, 0)
    keys = []
    for g in range(0, max_grade + 1):
        keys.extend((g, key) for key in monomials_of_grade(ctx, g))
    pairs = 0
    for gu, (hu, eu) in keys:
        u = WeylElement.monomial(ctx, hu, eu)
        fu = phi.apply(u)
        for gv, (hv, ev) in keys:
            if gu + gv > max_grade:
                continue
            v = WeylElement.monomial(ctx, hv, ev)
            pairs += 1
            if phi.apply(moyal(u, v)) != moyal(fu, phi.apply(v)):
                failures.append(("product", ((hu, eu), (hv, ev))))
                if len(failures) >= max_failures:
                    return MorphismReport(False, failures, pairs)
    return MorphismReport(not failures, failures, pairs)


def _series(start, step):
    """start + sum_{m >= 1} step^m(start) / m!, up to the first zero term.

    Every caller's step raises the lowest grade, so the terms vanish in the
    truncated algebra after at most trunc + 2 steps.
    """
    total = cur = start
    m = 0
    while not cur.is_zero():
        m += 1
        if m > start.ctx.trunc + 2:
            raise InternalError("series failed to terminate")
        cur = step(cur)
        total = total + cur.scale(Fraction(1, factorial(m)))
    return total


def inner_automorphism(s, ctx):
    """exp((i/hbar) ad_S) as an automorphism of the target context.

    S must lie in X_3 (every term of grade >= 3); it may be truncated one
    order above the target so grade-(N+1) generator terms act on grade-1
    variables without loss. hbar is fixed (scale 1).
    """
    if s.ctx.dim != ctx.dim:
        raise ContextError("generator dimension differs from target context")
    lg = s.lowest_grade()
    if lg is not None and lg < 3:
        raise InnerGeneratorError(
            f"inner generator has a term of grade {lg}; all terms must have grade >= 3")
    images = [_series(WeylElement.variable(ctx, k),
                      lambda cur: scaled_bracket(s, cur))
              for k in range(ctx.nvars)]
    return AutomorphismData(ctx, images, G_ONE)


class DerivationData(_StarRecursionMap):
    """A derivation of the truncated algebra, stored by generator images.

    Linear, kills hbar, and satisfies the Leibniz rule over the star
    product. Images must lie in the positive-grade ideal.
    """

    __slots__ = ()
    _kind = "derivation"
    _one = 0

    def __init__(self, ctx, images):
        super().__init__(ctx, images, G_ONE)

    def _product(self, unit, beta):
        # D(z_k) o z^beta + z_k o D(z^beta), over the lcm of their dens
        ctx = self.ctx
        d, trunc = ctx.dim, ctx.trunc
        den_a, acc_a = _moyal_raw(self._image(unit),
                                  (1, {sum(beta): {beta: (1, 0)}}),
                                  d, trunc, 0)
        den_b, acc_b = _moyal_raw((1, {1: {unit: (1, 0)}}),
                                  self._image(beta), d, trunc, 0)
        den = lcm(den_a, den_b)
        acc = {}
        _acc_merge(acc, acc_a, den // den_a)
        _acc_merge(acc, acc_b, den // den_b)
        return den, acc


def _require_kernel_images(ctx, images, what):
    for k, im in enumerate(images):
        lg = im.lowest_grade()
        if lg is not None and lg < 2:
            raise KernelPreconditionError(
                f"{what}: image of {ctx.variable_name(k)} has a grade-{lg} term; "
                "all terms must have grade >= 2")


def exp_derivation(dv):
    """exp(D) as an automorphism; D's images must lie in X_2.

    The grade-raising hypothesis makes the exponential series finite.
    """
    ctx = dv.ctx
    _require_kernel_images(ctx, dv.images, "exp")
    images = [_series(WeylElement.variable(ctx, k), dv.apply)
              for k in range(ctx.nvars)]
    return AutomorphismData(ctx, images, G_ONE)


def log_automorphism(phi):
    """log of an automorphism with identity linear part and fixed hbar.

    Returns the derivation D with exp(D) = phi, solved one grade at a time.
    D_h, the grade-h part of D's images, raises every grade by h - 1, so
    the graded powers P[m][g] = [D^m(z_k)]_g obey
    P[m][g] = sum_h D_h(P[m-1][g-h+1]) and need only D_h with h < g for
    m >= 2. At grade g, exp(D)(z_k) is D_g(z_k) + sum_{m=2}^{g-1}
    P[m][g] / m!, which gives D_g(z_k) from phi(z_k)'s grade-g part. Each
    nonzero D_h is one DerivationData whose memo serves every later grade.
    Only phi's images are read, so exp_derivation(log_automorphism(phi))
    has phi's images for any images in z_k + X_2, whether or not they
    define an automorphism.
    """
    ctx = phi.ctx
    if not phi.hbar_scale.is_one():
        raise KernelPreconditionError("log requires hbar scale 1")
    diffs = [phi.images[k] - WeylElement.variable(ctx, k)
             for k in range(ctx.nvars)]
    _require_kernel_images(ctx, diffs, "log (phi - id)")
    pieces = {}   # h -> D_h, nonzero pieces only
    powers = {}   # (m, g) -> [D^m(z_k)]_g for every k, nonzero rows only
    for g in range(2, ctx.trunc + 1):
        accs = [{g: dict(diff._raw.get(g, {}))} for diff in diffs]
        for m in range(2, g):
            row = [{} for _ in diffs]
            for h, dv in pieces.items():
                low = powers.get((m - 1, g - h + 1))
                for acc, el in zip(row, low or ()):
                    _acc_merge(acc, dv.apply(el)._raw)
            row = [WeylElement._from_acc(ctx, acc) for acc in row]
            if any(row):
                powers[m, g] = row
                q = Fraction(-1, factorial(m))
                for acc, el in zip(accs, row):
                    _acc_merge(acc, el._raw, q)
        images = [WeylElement._from_acc(ctx, acc) for acc in accs]
        if any(images):
            pieces[g] = DerivationData(ctx, images)
            powers[1, g] = images
    zero = WeylElement.zero(ctx)
    return DerivationData(ctx, [sum((dv.images[k] for dv in pieces.values()), zero)
                                for k in range(ctx.nvars)])
