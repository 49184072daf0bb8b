"""Acceptance gate: twelve exact, property-based criteria.

Every comparison below is exact Gaussian-rational equality; there are no
numerical tolerances anywhere. Each criterion prints one ACCEPTANCE line
(visible without -s) and then asserts, so a plain pytest run shows the
scoreboard even on failure.

Sampling parameters that the criteria leave open (dimensions, term counts,
coefficient pools, seeds) are pinned here as constants so reruns are
reproducible.
"""

import itertools
import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

import weylalg.exprio as exprio_module
from weylalg import (
    AutomorphismData,
    Context,
    DerivationData,
    GaussianRational,
    SympMatrix,
    WeylElement,
    compose,
    exp_derivation,
    factor,
    format_element,
    identity_automorphism,
    inner_automorphism,
    is_symplectic,
    kernel_check,
    linear_part,
    log_automorphism,
    moyal,
    monomials_of_grade,
    parse_element,
    poisson,
    pullback,
    pullback_automorphism,
    scaled_bracket,
    verify_morphism,
)
from weylalg.sampling import (
    random_element,
    random_inner_generator,
    random_instance,
)
from weylalg.scalars import BACKEND
from weylalg.symplectic import random_symplectic_rng

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

HALF_OVER_I = GaussianRational(0, "-1/2")  # 1/(2i)


def report(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE C{num:02d} {name}: {verdict} ({detail})")
    assert ok, f"C{num:02d} {name} failed: {detail}"


def test_c01_moyal_associativity(capsys):
    # 200 random triples, d in {1,2}, term grades <= 6, truncation order 10
    rng = random.Random(101)
    t0 = time.perf_counter()
    bad = 0
    for i in range(200):
        ctx = Context(1 + i % 2, 10)
        a, b, c = (random_element(rng, ctx, terms=4, max_grade=6,
                                  complex_scalars=(i % 5 == 0))
                   for _ in range(3))
        if moyal(moyal(a, b), c) != moyal(a, moyal(b, c)):
            bad += 1
    dt = time.perf_counter() - t0
    report(capsys, 1, "moyal-associativity", bad == 0 and dt < 60.0,
           f"200 triples, {bad} violations, {dt:.1f}s (< 60s)")


def test_c02_grading_laws(capsys):
    # exhaustive homogeneous basis-monomial pairs with m+n <= 8, d <= 2:
    # star stays in grade m+n, the scaled bracket drops to grade m+n-2
    pairs = 0
    bad = 0
    for d in (1, 2):
        ctx = Context(d, 8)
        basis = {g: [WeylElement.monomial(ctx, h, e)
                     for h, e in monomials_of_grade(ctx, g)]
                 for g in range(9)}
        for m in range(9):
            for n in range(9 - m):
                for a in basis[m]:
                    for b in basis[n]:
                        pairs += 1
                        prod = moyal(a, b)
                        if not (prod.is_zero() or prod.grades() == [m + n]):
                            bad += 1
                        br = scaled_bracket(a, b)
                        if not (br.is_zero() or br.grades() == [m + n - 2]):
                            bad += 1
    report(capsys, 2, "grading-laws", bad == 0,
           f"{pairs} basis pairs exhaustive, {bad} violations")


def test_c03_leading_order(capsys):
    # a*b - ab - (hbar/2i){a,b} starts at hbar power 2; grades <= 4 at
    # truncation 8 so nothing is cut and the identity is exact
    rng = random.Random(103)
    bad = 0
    for i in range(200):
        ctx = Context(1 + i % 2, 8)
        a = random_element(rng, ctx, terms=4, max_grade=4,
                           complex_scalars=(i % 3 == 0))
        b = random_element(rng, ctx, terms=4, max_grade=4,
                           complex_scalars=(i % 7 == 0))
        first = poisson(a, b).scale(HALF_OVER_I).hbar_shift(1)
        rem = moyal(a, b) - a * b - first
        if any(h < 2 for (h, _) in rem.terms()):
            bad += 1
    report(capsys, 3, "leading-order-law", bad == 0,
           f"200 pairs, {bad} with terms below hbar^2")


def test_c04_bracket_axioms(capsys):
    # antisymmetry and Jacobi for the scaled bracket; grades <= 4 keep the
    # deepest nesting at grade <= 8, so no truncation interferes
    rng = random.Random(104)
    bad = 0
    for i in range(100):
        ctx = Context(1 + i % 2, 8)
        a, b, c = (random_element(rng, ctx, terms=3, max_grade=4,
                                  complex_scalars=(i % 4 == 0))
                   for _ in range(3))
        if scaled_bracket(a, b) != -scaled_bracket(b, a):
            bad += 1
        jac = (scaled_bracket(a, scaled_bracket(b, c))
               + scaled_bracket(b, scaled_bracket(c, a))
               + scaled_bracket(c, scaled_bracket(a, b)))
        if not jac.is_zero():
            bad += 1
    report(capsys, 4, "bracket-axioms", bad == 0,
           f"100 triples, {bad} antisymmetry/Jacobi violations")


def test_c05_pullback_morphism(capsys):
    # 100 random symplectic matrices (<= 8 transvection/swap steps):
    # substitution commutes with the star product
    rng = random.Random(105)
    dims = (1, 2, 1, 2, 1, 2, 1, 2, 1, 3)
    bad = 0
    for i in range(100):
        d = dims[i % 10]
        ctx = Context(d, 8)
        m = random_symplectic_rng(rng, d, rng.randint(0, 8),
                                  complex_entries=(i % 4 == 0))
        a = random_element(rng, ctx, terms=3, max_grade=4,
                           complex_scalars=(i % 6 == 0))
        b = random_element(rng, ctx, terms=3, max_grade=4)
        if pullback(m, moyal(a, b)) != moyal(pullback(m, a), pullback(m, b)):
            bad += 1
    report(capsys, 5, "pullback-morphism", bad == 0,
           f"100 matrices, {bad} morphism violations")


def test_c06_morphism_implies_symplectic(capsys):
    rng = random.Random(106)
    ctx1 = Context(1, 8)
    ctx2 = Context(2, 8)

    def bracket_derivation(ctx, terms):
        s = random_element(rng, ctx, terms, min_grade=3, require_z=True)
        return DerivationData(ctx, [
            scaled_bracket(s, WeylElement.variable(ctx, k))
            for k in range(ctx.nvars)])

    genuine = [
        identity_automorphism(ctx1),
        identity_automorphism(ctx2),
        inner_automorphism(parse_element("x1^3", ctx1.lifted()), ctx1),
        inner_automorphism(random_inner_generator(rng, ctx1, 3), ctx1),
        inner_automorphism(random_inner_generator(rng, ctx2, 3), ctx2),
        pullback_automorphism(random_symplectic_rng(rng, 1, 5), ctx1),
        pullback_automorphism(random_symplectic_rng(rng, 2, 5), ctx2),
        compose(pullback_automorphism(random_symplectic_rng(rng, 1, 4), ctx1),
                inner_automorphism(random_inner_generator(rng, ctx1, 2),
                                   ctx1)),
        compose(inner_automorphism(random_inner_generator(rng, ctx2, 2),
                                   ctx2),
                pullback_automorphism(random_symplectic_rng(rng, 2, 4), ctx2)),
        exp_derivation(bracket_derivation(ctx1, 3)),
    ]
    accepted = 0
    implied = 0
    for phi in genuine:
        if verify_morphism(phi, max_grade=4).passed:
            accepted += 1
            if is_symplectic(SympMatrix(linear_part(phi))):
                implied += 1

    # crafted relation breakers: every one must fail verify_morphism
    crafted = [
        (ctx1, ["2*x1", "p1"]),
        (ctx1, ["x1", "2*p1"]),
        (ctx1, ["p1", "x1"]),
        (ctx1, ["x1 + p1", "x1 + p1"]),
        (ctx1, ["x1 + x1^2", "p1"]),
        (ctx1, ["x1", "p1 + p1^2"]),
        (ctx1, ["x1*p1", "p1"]),
        (ctx1, ["0", "p1"]),
        (ctx2, ["x2", "x1", "p1", "p2"]),
        (ctx2, ["x1", "x2", "p1", "2*p2"]),
    ]
    rejected = 0
    for ctx, images in crafted:
        phi = AutomorphismData(ctx, [parse_element(s, ctx) for s in images])
        if not verify_morphism(phi, max_grade=4).passed:
            rejected += 1
    ok = accepted == implied == len(genuine) and rejected == len(crafted)
    report(capsys, 6, "morphism-implies-symplectic", ok,
           f"{implied}/{len(genuine)} genuine have symplectic linear part, "
           f"{rejected}/{len(crafted)} non-morphisms rejected")


def _z_monomials_upto(ctx, gmax):
    out = []
    for g in range(gmax + 1):
        for exps in itertools.product(range(g + 1), repeat=ctx.nvars):
            if sum(exps) == g:
                out.append(WeylElement.monomial(ctx, 0, exps))
    return out


def test_c07_derivation_exp_log(capsys):
    # 50 kernel derivations (images in X_2, grades <= 7 at truncation 8):
    # log(exp(D)) == D and exp(log(Phi)) == Phi, exactly
    rng = random.Random(107)
    bad = 0
    logs = []
    for i in range(50):
        ctx = Context(1 + i % 2, 8)
        s = random_element(rng, ctx, terms=3, min_grade=3,
                           max_grade=ctx.trunc, require_z=True,
                           complex_scalars=(i % 5 == 0))
        dv = DerivationData(ctx, [
            scaled_bracket(s, WeylElement.variable(ctx, k))
            for k in range(ctx.nvars)])
        phi = exp_derivation(dv)
        back = log_automorphism(phi)
        if back.images != dv.images:
            bad += 1
        if exp_derivation(back).images != phi.images:
            bad += 1
        logs.append(back)

    # Leibniz for every log output, exhaustive on hbar-free basis pairs of
    # total grade <= 8; pairs carrying hbar powers reduce to these because
    # the derivation passes hbar factors through and star is hbar-bilinear
    leibniz_bad = 0
    checked = 0
    monos = {d: _z_monomials_upto(Context(d, 8), 8) for d in (1, 2)}
    for dv in logs:
        for a in monos[dv.ctx.dim]:
            ga = a.max_grade()
            for b in monos[dv.ctx.dim]:
                if ga + b.max_grade() > 8:
                    continue
                checked += 1
                lhs = dv.apply(moyal(a, b))
                rhs = moyal(dv.apply(a), b) + moyal(a, dv.apply(b))
                if lhs != rhs:
                    leibniz_bad += 1
    ok = bad == 0 and leibniz_bad == 0
    report(capsys, 7, "derivation-exp-log", ok,
           f"50 round-trips ({bad} bad), Leibniz on {checked} basis pairs "
           f"({leibniz_bad} bad)")


@pytest.fixture(scope="module")
def instance_corpus():
    """150 known-answer problems: 50 per dimension 1..3, factored once."""
    rng = random.Random(108)
    out = []
    for d in (1, 2, 3):
        ctx = Context(d, 8)
        for i in range(50):
            phi, m, s = random_instance(rng, ctx, steps=8,
                                        generator_terms=10,
                                        complex_scalars=(i % 5 == 0))
            t0 = time.perf_counter()
            res = factor(phi)
            out.append((d, phi, m, s, res, time.perf_counter() - t0))
    return out


def test_c08_factorization_round_trip(instance_corpus, capsys):
    # the central criterion: factor(pullback(M) o inner(S)) returns exactly
    # (M, S); S is supported on grades 3..9 with at most 10 terms
    bad = 0
    slow = 0
    worst = {1: (0.0, 0), 2: (0.0, 0), 3: (0.0, 0)}  # d -> (seconds, index)
    count = {1: 0, 2: 0, 3: 0}
    for d, phi, m, s, res, dt in instance_corpus:
        if not (res.matrix == m and res.generator == s and res.report.passed):
            bad += 1
        limit = 10.0 if d <= 2 else 60.0
        if dt >= limit:
            slow += 1
        worst[d] = max(worst[d], (dt, count[d]))
        count[d] += 1
    ok = bad == 0 and slow == 0
    slowest = " / ".join(
        f"{worst[d][0]:.2f}s at ({d}, {worst[d][1]})" for d in (1, 2, 3))
    report(capsys, 8, "factorization-round-trip", ok,
           f"150 instances over d=1..3, {bad} wrong, {slow} over budget; "
           f"slowest {slowest} vs 10/10/60s; coefficients {BACKEND}")


def test_c09_kernel_exactness(instance_corpus, capsys):
    # kernel_check(Phi) is true exactly when the factored matrix is the
    # identity; pure pullbacks factor to (M, 0)
    bad = 0
    identity_cases = 0
    for d, phi, m, s, res, dt in instance_corpus:
        if kernel_check(phi) != res.matrix.is_identity():
            bad += 1
        if res.matrix.is_identity():
            identity_cases += 1

    rng = random.Random(109)
    pullbacks = 0
    for d in (1, 2, 3):
        ctx = Context(d, 8)
        for i in range(5):
            m = random_symplectic_rng(rng, d, rng.randint(0, 8),
                                      complex_entries=(i % 2 == 1))
            phi = pullback_automorphism(m, ctx)
            res = factor(phi)
            if not (res.matrix == m and res.generator.is_zero()):
                bad += 1
            if kernel_check(phi) != m.is_identity():
                bad += 1
            pullbacks += 1

    for ctx in (Context(1, 8), Context(2, 8)):
        phi = inner_automorphism(random_inner_generator(rng, ctx, 4), ctx)
        if not (kernel_check(phi) and factor(phi).matrix.is_identity()):
            bad += 1
        identity_cases += 1

    ok = bad == 0 and identity_cases > 0
    report(capsys, 9, "kernel-exactness", ok,
           f"150 instances ({identity_cases} with identity part), "
           f"{pullbacks} pure pullbacks, {bad} violations")


def test_c08_largest_record_evaluates_each_literal_once(instance_corpus,
                                                        monkeypatch):
    # a cost guard beside the criteria: parsing an image of the corpus's
    # largest record evaluates each distinct literal text once, the
    # literals inside parenthesised constants such as (854/3) included
    phi = max((item[1] for item in instance_corpus),
              key=lambda phi: sum(map(len, phi.images)))
    texts = json.loads(exprio_module.dumps_record(
        exprio_module.automorphism_record(phi)))["payload"]["images"]
    real_number = exprio_module._number
    evaluated = []

    def counted(tok):
        evaluated.append(tok)
        return real_number(tok)

    monkeypatch.setattr(exprio_module, "_number", counted)
    repeated = 0
    for text, image in zip(texts, phi.images):
        literals = []
        for t in exprio_module._TOKEN.findall(text):
            if t[0].isdigit():
                literals.append(t)
            elif t[0] == "(":
                m = exprio_module._CONSTANT.match(t)
                literals += filter(None, m.group(2, 4))
        evaluated.clear()
        assert parse_element(text, phi.ctx) == image
        assert evaluated == list(dict.fromkeys(literals))
        repeated += len(literals) - len(evaluated)
    assert repeated > 0


def test_c10_golden_hand_examples(capsys):
    ctx = Context(1, 8)
    x = WeylElement.variable(ctx, 0)
    p = WeylElement.variable(ctx, 1)
    checks = [
        str(moyal(x, p)) == "x1*p1 + (1/2)*i*h",
        str(moyal(x ** 2, p ** 2))
        == "x1^2*p1^2 + 2*i*h*x1*p1 - (1/2)*h^2",
    ]
    phi = inner_automorphism(parse_element("x1^3", ctx.lifted()), ctx)
    checks.append(str(phi.images[0]) == "x1")
    checks.append(str(phi.images[1]) == "p1 - 3*x1^2")
    res = factor(phi)
    checks.append(res.matrix.is_identity())
    checks.append(str(res.generator) == "x1^3")
    report(capsys, 10, "golden-hand-examples", all(checks),
           f"{sum(checks)}/{len(checks)} fixed examples match")


def test_c11_parser_round_trip(capsys):
    rng = random.Random(111)
    bad = 0
    for i in range(1000):
        ctx = Context(1 + i % 3, 8)
        e = random_element(rng, ctx, terms=1 + i % 6,
                           complex_scalars=(i % 3 == 0))
        txt = format_element(e)
        if parse_element(txt, ctx) != e:
            bad += 1
        if format_element(parse_element(txt, ctx)) != txt:
            bad += 1
    tricky = ["0", "-0", "x1 - - p1", "((x1))^2*p1", "1/2 + 1/2", "i*i",
              "-i*h^2*x1", "2/4*x1 + 1/2*x1", "h*(x1 + p1)^3"]
    ctx = Context(1, 8)
    for t in tricky:
        once = format_element(parse_element(t, ctx))
        if format_element(parse_element(once, ctx)) != once:
            bad += 1
    report(capsys, 11, "parser-round-trip", bad == 0,
           f"1000 random + {len(tricky)} crafted, {bad} round-trip failures")


def _run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "weylalg.cli", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_c12_cli_determinism(tmp_path, capsys):
    bad = 0

    code1, out1 = _run_cli("selftest", "--cases", "5", "--seed", "42")
    code2, out2 = _run_cli("selftest", "--cases", "5", "--seed", "42")
    if not (code1 == code2 == 0 and out1 == out2):
        bad += 1

    fix = str(FIXTURES / "inner_cubic.json")
    code1, out1 = _run_cli("factor", fix)
    code2, out2 = _run_cli("factor", fix)
    if not (code1 == code2 == 0 and out1 == out2
            and json.loads(out1)["payload"]["generator"] == "x1^3"):
        bad += 1

    insts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        inst = d / "inst.json"
        code, _ = _run_cli("random-instance", "--dim", "2", "--seed", "77",
                           "--out", str(inst))
        answer = inst.with_suffix(".json.answer.json")
        code_f, out_f = _run_cli("factor", str(inst))
        if not (code == code_f == 0 and out_f == answer.read_bytes()):
            bad += 1
        insts.append((inst.read_bytes(), answer.read_bytes()))
    if insts[0] != insts[1]:
        bad += 1

    failure_fixtures = [
        ("bad_expr.json", 2),
        ("bad_schema.json", 3),
        ("image_not_x1.json", 10),
        ("singular_linear.json", 11),
        ("nonsymplectic_linear.json", 12),
        ("hbar_scale.json", 13),
        ("nonclosed.json", 14),
    ]
    for name, want in failure_fixtures:
        code, _ = _run_cli("factor", str(FIXTURES / name))
        if code != want:
            bad += 1
    report(capsys, 12, "cli-determinism", bad == 0,
           f"byte-identical reruns, {len(failure_fixtures)} failure "
           f"fixtures, {bad} problems")
