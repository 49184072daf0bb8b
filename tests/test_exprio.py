"""Expression grammar, canonical printing, and record files."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from weylalg import (
    Context,
    ExponentOverflowError,
    ExprSyntaxError,
    GaussianRational,
    NotSymplecticError,
    RecordError,
    UnknownVariableError,
    WeylElement,
    WeylError,
    automorphism_from_record,
    automorphism_record,
    dumps_record,
    element_from_record,
    element_record,
    factor,
    factorization_from_record,
    factorization_record,
    format_element,
    inner_automorphism,
    load_record,
    parse_element,
    parse_scalar,
    random_symplectic,
    rational,
    save_record,
)
from weylalg.exprio import MAX_NESTING
from weylalg.sampling import random_element, random_instance

from expr_strategies import expressions
from oracles import assert_matches, truncate_sympy


@pytest.mark.parametrize("text,want", [
    ("0", "0"),
    ("x1", "x1"),
    ("-x1", "-x1"),
    ("x1 + p1", "x1 + p1"),
    ("2*x1", "2*x1"),
    ("1/2*x1", "(1/2)*x1"),
    ("i", "i"),
    ("-i", "-i"),
    ("3/4", "3/4"),
    ("h^2*x1", "h^2*x1"),
    ("x1^2*p1^3", "x1^2*p1^3"),
    ("(x1 + p1)^2", "x1^2 + 2*x1*p1 + p1^2"),
    ("x1 - - p1", "x1 + p1"),
    ("5/10", "1/2"),
    ("2^3", "8"),
    ("x1^0", "1"),
    ("(1+i)*x1", "(1+i)*x1"),
    ("i*i", "-1"),
    ("1 / 2", "1/2"),
    ("x1*x1", "x1^2"),
    ("h*h*h", "h^3"),
    ("0*x1 + p1", "p1"),
    pytest.param("-" * 1200 + "x1", "x1", id="1200-unary-minuses"),
    pytest.param("-" * 1201 + "x1*p1", "-x1*p1", id="1201-unary-minuses"),
    pytest.param("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING, "x1",
                 id="nesting-at-bound"),
    # a parenthesised lone literal folds as the literal
    pytest.param("(" * MAX_NESTING + "854/3" + ")" * MAX_NESTING, "854/3",
                 id="literal-nesting-at-bound"),
    ("(3/4)^2*x1", "(9/16)*x1"),
    ("((3/4))*x1", "(3/4)*x1"),
    ("(0)*x1 + p1", "p1"),
    ("(2)*(3)", "6"),
    ("(-3/4)*x1", "-(3/4)*x1"),
    ("x1^1000000", "0"),
    ("h^5", "0"),
    ("x1 - x1", "0"),
    ("i^3", "-i"),
    ("-(-x1)", "x1"),
    ("(1/2 + 3/4*i)*x1*p1^2", "(1/2+3/4*i)*x1*p1^2"),
    ("(x1 + h)^2*p1", "x1^2*p1 + 2*h*x1*p1 + h^2*p1"),
    ("x1*(x1 + p1)*h*(p1 + h)^2*3",
     "3*h*x1^2*p1^2 + 3*h*x1*p1^3 + 6*h^2*x1^2*p1 + 6*h^2*x1*p1^2"
     " + 3*h^3*x1^2 + 3*h^3*x1*p1"),
    ("0*(x1 + p1)", "0"),
    ("h^4*(x1 + 1)", "h^4"),
    ("h^5*(x1 + 1)", "0"),
    ("(x1 + p1)^0*x1", "x1"),
    ("(1+i)^2*x1*(x1 - p1)", "2*i*x1^2 - 2*i*x1*p1"),
    ("(x1 + p1)*(x1 - p1)*(1/2)", "(1/2)*x1^2 - (1/2)*p1^2"),
])
def test_parse_and_canonical_print(text, want, ctx1):
    assert format_element(parse_element(text, ctx1)) == want


def test_terms_order_by_grade_then_hbar(ctx1):
    e = parse_element("p1^2 + h*x1 + x1 + h^2 + x1*p1", ctx1)
    assert format_element(e) == "x1 + x1*p1 + p1^2 + h*x1 + h^2"


def test_parse_truncates(ctx1):
    assert parse_element("x1^9", ctx1).is_zero()
    assert parse_element("x1^4 * x1^5", ctx1).is_zero()
    e = parse_element("(1 + x1^5)^2", ctx1)
    assert format_element(e) == "1 + 2*x1^5"


@pytest.mark.parametrize("text,exc,pos", [
    ("x1 +* 2", ExprSyntaxError, (1, 5)),
    ("", ExprSyntaxError, (1, 1)),
    ("(x1", ExprSyntaxError, (1, 4)),
    ("x1)", ExprSyntaxError, (1, 3)),
    ("1/0", ExprSyntaxError, (1, 1)),
    ("1/", ExprSyntaxError, (1, 1)),
    ("x1^(2)", ExprSyntaxError, (1, 4)),
    ("x1^-2", ExprSyntaxError, (1, 4)),
    ("x1^1/2", ExprSyntaxError, None),
    ("x9", UnknownVariableError, (1, 1)),
    ("p0", UnknownVariableError, (1, 1)),
    ("y1", UnknownVariableError, (1, 1)),
    ("foo", UnknownVariableError, (1, 1)),
    ("x1 $ p1", ExprSyntaxError, (1, 4)),
    ("x1^2000000", ExponentOverflowError, (1, 4)),
    ("x1\u00b2", ExprSyntaxError, (1, 3)),
    ("\u00b2", ExprSyntaxError, (1, 1)),
    ("x1^\u00b2", ExprSyntaxError, (1, 4)),
    ("\u0661+x1", ExprSyntaxError, (1, 1)),
    pytest.param("1" * 5000, ExprSyntaxError, (1, 1), id="5000-digit-literal"),
    pytest.param("x1 + 1/" + "3" * 5000, ExprSyntaxError, (1, 6),
                 id="5000-digit-denominator"),
    pytest.param("x" + "0" * 5000 + "1", ExprSyntaxError, (1, 1),
                 id="5000-digit-variable-index"),
    pytest.param("(" * 300 + "x1" + ")" * 300, ExprSyntaxError,
                 (1, MAX_NESTING + 1), id="300-nested-parentheses"),
    ("2*x3", UnknownVariableError, (1, 3)),
    ("x1^p1", ExprSyntaxError, (1, 4)),
    ("x1*", ExprSyntaxError, (1, 4)),
    ("3*y", UnknownVariableError, (1, 3)),
    pytest.param("x1 +" + " \n" * 10000, ExprSyntaxError, (10001, 1),
                 id="end-after-trailing-whitespace"),
    # the first bad token wins, and a repeated one is named where it first
    # occurs
    ("x1 $ 1/0", ExprSyntaxError, (1, 4)),
    ("1/0 + x1 $", ExprSyntaxError, (1, 1)),
    ("x1 + 1/0 + 1/0", ExprSyntaxError, (1, 6)),
    ("(3/4", ExprSyntaxError, (1, 5)),
    ("(3/4)x1", ExprSyntaxError, (1, 6)),
    pytest.param("(" * (MAX_NESTING + 1) + "854/3" + ")" * (MAX_NESTING + 1),
                 ExprSyntaxError, (1, MAX_NESTING + 1),
                 id="literal-nesting-past-bound"),
])
def test_parse_errors_with_position(text, exc, pos, ctx2):
    with pytest.raises(exc) as info:
        parse_element(text, ctx2)
    if pos is not None:
        assert (info.value.line, info.value.col) == pos


# A power of a name or of a parenthesised constant is one token; an error
# inside one has the class, message and position it would have if each of
# its parts were a token of its own.
@pytest.mark.parametrize("text,exc,msg,pos", [
    ("x1^2000000", ExponentOverflowError,
     "exponent 2000000 exceeds limit 1000000", (1, 4)),
    ("(3)^2000000", ExponentOverflowError,
     "exponent 2000000 exceeds limit 1000000", (1, 5)),
    ("x1 ^\n 2000000", ExponentOverflowError,
     "exponent 2000000 exceeds limit 1000000", (2, 2)),
    ("(1/0)^2", ExprSyntaxError, "zero denominator", (1, 2)),
    ("(2 - 1/0*i)", ExprSyntaxError, "zero denominator", (1, 6)),
    ("y^2", UnknownVariableError, "unknown identifier 'y'", (1, 1)),
    ("x9^2", UnknownVariableError,
     "variable 'x9' out of range for dimension 2", (1, 1)),
    ("2(3)", ExprSyntaxError, "unexpected '(' after expression", (1, 2)),
    ("x1 (3/4)", ExprSyntaxError, "unexpected '(' after expression", (1, 4)),
    ("x1^2/3", ExprSyntaxError, "exponent must be a natural number", (1, 4)),
    ("x1^23/4", ExprSyntaxError, "exponent must be a natural number", (1, 4)),
    ("(3)^(2)", ExprSyntaxError, "exponent must be a natural number", (1, 5)),
    ("x1^2^3", ExprSyntaxError, "unexpected '^' after expression", (1, 5)),
    ("x1^" + "7" * 5000, ExprSyntaxError,
     "number of 5000 digits exceeds the limit of 4300", (1, 4)),
    pytest.param("(" * (MAX_NESTING + 1) + "854/3" + ")" * (MAX_NESTING + 1),
                 ExprSyntaxError, f"parentheses nest deeper than {MAX_NESTING}",
                 (1, MAX_NESTING + 1), id="literal-nesting-past-bound"),
    pytest.param("(" * MAX_NESTING + "(2+i)^2" + ")" * MAX_NESTING,
                 ExprSyntaxError, f"parentheses nest deeper than {MAX_NESTING}",
                 (1, MAX_NESTING + 1), id="constant-power-past-bound"),
])
def test_errors_inside_power_tokens(text, exc, msg, pos, ctx2):
    with pytest.raises(exc) as info:
        parse_element(text, ctx2)
    assert type(info.value) is exc
    assert str(info.value) == f"{msg} (line {pos[0]}, column {pos[1]})"


@pytest.mark.parametrize("text,want", [
    # a "/" after the exponent's digits makes them a rational literal,
    # which is an exponent when it is a natural
    ("x1^4/2", "x1^2"),
    ("(3)^6/3", "9"),
    ("(0)^0/5", "1"),
    ("x1 ^ \n 2 * ( 1 / 2 \t- i ) ^ 2", "(-3/4-i)*x1^2"),
    ("(-2+i)*x1 + (8/3-2*i)*p1", "(-2+i)*x1 + (8/3-2*i)*p1"),
])
def test_power_tokens_evaluate(text, want, ctx1):
    assert format_element(parse_element(text, ctx1)) == want


@settings(max_examples=200, deadline=None)
@given(expressions(), st.integers(4, 8))
def test_parse_matches_sympy(pair, trunc):
    text, expr = pair
    assert_matches(parse_element(text, Context(2, trunc)),
                   truncate_sympy(expr, 2, trunc))


# Differential check of the parser against element arithmetic. A tree is
# printed with the grammar's precedence (parentheses only where an atom
# needs them) and evaluated with WeylElement's +, -, * and **.

_leaves = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 12), st.integers(1, 6)),
    st.sampled_from([("i",), ("h",)]),
    st.tuples(st.just("var"), st.integers(0, 3)),
)
_trees = st.recursive(_leaves, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub),
    st.tuples(st.just("^"), sub, st.integers(0, 4)),
    st.tuples(st.just("neg"), sub),
), max_leaves=10)


def _expr_text(t):
    if t[0] in ("+", "-"):
        return f"{_expr_text(t[1])} {t[0]} {_term_text(t[2])}"
    return _term_text(t)


def _term_text(t):
    return "-" + _term_text(t[1]) if t[0] == "neg" else _product_text(t)


def _product_text(t):
    if t[0] == "*":
        return f"{_product_text(t[1])}*{_power_text(t[2])}"
    return _power_text(t)


def _power_text(t):
    return f"{_atom_text(t[1])}^{t[2]}" if t[0] == "^" else _atom_text(t)


def _atom_text(t):
    if t[0] == "num":
        return f"{t[1]}/{t[2]}" if t[2] != 1 else str(t[1])
    if t[0] in ("i", "h"):
        return t[0]
    if t[0] == "var":
        return f"{'xp'[t[1] % 2]}{t[1] // 2 + 1}"
    return f"({_expr_text(t)})"


def _reference(t, ctx):
    op = t[0]
    if op == "num":
        return WeylElement.scalar(ctx, rational(t[1], t[2]))
    if op == "i":
        return WeylElement.scalar(ctx, GaussianRational(0, 1))
    if op == "h":
        return WeylElement.hbar(ctx)
    if op == "var":
        return WeylElement.variable(ctx, t[1] // 2 + ctx.dim * (t[1] % 2))
    if op == "neg":
        return -_reference(t[1], ctx)
    if op == "^":
        return _reference(t[1], ctx) ** t[2]
    a, b = _reference(t[1], ctx), _reference(t[2], ctx)
    return a + b if op == "+" else a - b if op == "-" else a * b


@settings(max_examples=300, deadline=None)
@given(_trees, st.integers(4, 8))
def test_parse_matches_element_arithmetic(tree, trunc):
    ctx = Context(2, trunc)
    text = _expr_text(tree)
    want = _reference(tree, ctx)
    assert parse_element(text, ctx) == want, text
    assert parse_element(format_element(want), ctx) == want


_soup_tokens = st.sampled_from([
    "0", "2", "3/4", "1 / 2", "1/0", "1/", "i", "h", "x1", "p2", "x3", "x01",
    "y", "+", "-", "*", "^", "(", ")", "^2", "^1000001", " ", "\n", "$",
    "\u00b2"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_soup_tokens, max_size=12).map("".join))
def test_token_soup_parses_or_fails_with_position(text):
    try:
        parse_element(text, Context(2, 8))
    except (ExprSyntaxError, UnknownVariableError,
            ExponentOverflowError) as exc:
        assert exc.line >= 1 and exc.col >= 1
        assert exc.line <= text.count("\n") + 1
        assert exc.col <= len(text) + 1


def test_multiline_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_element("x1 +\n  * p1", Context(1, 8))
    assert (info.value.line, info.value.col) == (2, 3)


def test_roundtrip_random(rng):
    for d in (1, 2, 3):
        ctx = Context(d, 8)
        for _ in range(60):
            e = random_element(rng, ctx, rng.randint(0, 6),
                               complex_scalars=True)
            text = format_element(e)
            back = parse_element(text, ctx)
            assert back == e
            assert format_element(back) == text


def test_parse_scalar():
    assert parse_scalar("3/4") == GaussianRational("3/4")
    assert parse_scalar("-i") == GaussianRational(0, -1)
    assert parse_scalar("1/2-2/3*i") == GaussianRational("1/2", "-2/3")
    with pytest.raises(RecordError):
        parse_scalar("x1")
    with pytest.raises(RecordError):
        parse_scalar("h")
    # truncation at the internal grade bound must not turn these into scalars
    for text in ("h^3", "p1^9", "x1^5 + 2"):
        with pytest.raises(RecordError):
            parse_scalar(text)
    # the check reads the name of a power token, not the token's text
    assert parse_scalar("i^2") == GaussianRational(-1)
    assert parse_scalar("(1/2-i)^2") == GaussianRational("-3/4", -1)
    with pytest.raises(RecordError,
                       match=r"^expected a scalar constant, got 'h\^2'$"):
        parse_scalar("h^2")


def test_element_record_roundtrip(rng, ctx2):
    e = random_element(rng, ctx2, 5, complex_scalars=True)
    rec = element_record(e)
    assert rec["schema"] == "weyl-element/1"
    assert element_from_record(rec) == e
    # serialized form is stable
    assert dumps_record(rec) == dumps_record(json.loads(dumps_record(rec)))


def test_automorphism_record_roundtrip(rng, ctx2):
    phi, _, _ = random_instance(rng, ctx2, complex_scalars=True)
    rec = automorphism_record(phi)
    back = automorphism_from_record(rec)
    assert back.ctx == phi.ctx
    assert back.hbar_scale == phi.hbar_scale
    assert all(a == b for a, b in zip(back.images, phi.images))


def test_record_images_parse_without_element_products(rng, ctx2,
                                                     monkeypatch):
    # printed terms hold only constant groups such as (3/4) and
    # (1/2+3/4*i), so every product folds into one monomial
    phis = [random_instance(rng, ctx2, complex_scalars=True)[0]
            for _ in range(4)]
    recs = [automorphism_record(phi) for phi in phis]

    def forbidden(*args):
        raise AssertionError("a record term built an element product")

    monkeypatch.setattr(WeylElement, "__mul__", forbidden)
    monkeypatch.setattr(WeylElement, "__pow__", forbidden)
    backs = [automorphism_from_record(rec) for rec in recs]
    monkeypatch.undo()
    for phi, back in zip(phis, backs):
        assert back.images == phi.images


def test_factorization_record_roundtrip(ctx1):
    s = parse_element("x1^3 - 1/2*x1*p1^2", ctx1.lifted())
    res = factor(inner_automorphism(s, ctx1))
    rec = factorization_record(res)
    assert rec["trunc"] == 8
    assert rec["payload"]["generator_trunc"] == 9
    assert rec["payload"]["residual_report"]["passed"] is True
    m, gen = factorization_from_record(rec)
    assert m == res.matrix
    assert gen == res.generator


def test_record_files_roundtrip(tmp_path, ctx1):
    e = parse_element("x1 + i*h", ctx1)
    path = tmp_path / "elem.json"
    save_record(element_record(e), path)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert element_from_record(load_record(path)) == e


def test_record_shape_errors(tmp_path):
    with pytest.raises(ExprSyntaxError):
        # malformed JSON is a syntax error with a position
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        load_record(p)
    with pytest.raises(RecordError):
        element_from_record({"schema": "weyl-element/2", "dim": 1,
                             "trunc": 8, "payload": {"expr": "x1"}})
    with pytest.raises(RecordError):
        element_from_record({"schema": "weyl-element/1", "dim": 1,
                             "trunc": 8, "payload": {}})
    with pytest.raises(RecordError):
        p2 = tmp_path / "list.json"
        p2.write_text("[1, 2, 3]")
        load_record(p2)
    with pytest.raises(ExprSyntaxError) as info:
        # bytes that are not UTF-8: positioned at the first bad byte
        p3 = tmp_path / "latin1.json"
        p3.write_bytes(b'{"schema":\n "caf\xe9"}')
        load_record(p3)
    assert (info.value.line, info.value.col) == (2, 6)
    with pytest.raises(RecordError):
        # an integer past Python's integer-conversion digit limit
        p4 = tmp_path / "bigdim.json"
        p4.write_text('{"dim": ' + "1" * 5000 + "}")
        load_record(p4)
    with pytest.raises(RecordError):
        p5 = tmp_path / "deep.json"
        p5.write_text("[" * 100000)
        load_record(p5)
    with pytest.raises(RecordError):
        factorization_from_record({"schema": "factorization/1", "dim": 1,
                                   "trunc": 8, "payload": {
                                       "matrix": [["1"]], "generator": "0",
                                       "generator_trunc": 9}})
    with pytest.raises(NotSymplecticError):
        # invertible, but det 2: a factorization matrix must be symplectic
        factorization_from_record({"schema": "factorization/1", "dim": 1,
                                   "trunc": 8, "payload": {
                                       "matrix": [["1", "0"], ["0", "2"]],
                                       "generator": "0",
                                       "generator_trunc": 9}})
    with pytest.raises(RecordError):
        automorphism_from_record({"schema": "automorphism/1", "dim": 1,
                                  "trunc": 8, "payload": {"images": ["x1"]}})
    with pytest.raises(RecordError):
        element_from_record({"schema": "weyl-element/1", "dim": "one",
                             "trunc": 8, "payload": {"expr": "x1"}})
    with pytest.raises(RecordError):
        # 2*dim has 4,301 digits, too many to print in the message
        automorphism_from_record({"schema": "automorphism/1",
                                  "dim": int("9" * 4300), "trunc": 8,
                                  "payload": {"images": []}})


# Records for the loader fuzz: a well-formed record of dim d with one
# field, or none, replaced by an arbitrary JSON tree. Integers stay at
# most 3 in the trees and 10 in truncation orders, and strings are short,
# so no loader starts an oversized computation.
_soup_text = st.lists(_soup_tokens, max_size=6).map("".join)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.just(1.5)
    | _soup_text,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_soup_text, kids, max_size=3),
    max_leaves=12)
_expr = _trees.map(_expr_text) | _soup_text
_image = _trees.map(lambda t: f"x1*({_expr_text(t)})")
_entry = st.sampled_from(["0", "1", "-1", "2", "1/2", "i", "1+i", "x1"])


def _records(d):
    n = 2 * d
    payload = st.fixed_dictionaries({
        "expr": _expr,
        "images": st.lists(_image, min_size=n, max_size=n),
        "hbar_scale": _entry,
        "matrix": st.lists(st.lists(_entry, min_size=n, max_size=n),
                           min_size=n, max_size=n)
        | st.integers(0, 99).map(lambda seed: [
            [str(v) for v in row]
            for row in random_symplectic(d, seed, steps=3).rows]),
        "generator": _expr,
        "generator_trunc": st.integers(4, 10),
    })
    return st.fixed_dictionaries({
        "schema": st.sampled_from(
            ["weyl-element/1", "automorphism/1", "factorization/1"]),
        "dim": st.just(d),
        "trunc": st.integers(4, 10),
        "payload": payload,
    })


def _corrupt(rec, field, junk):
    if field is not None:
        (rec if field in rec else rec["payload"])[field] = junk
    return rec


_record = st.builds(
    _corrupt, st.integers(1, 3).flatmap(_records),
    st.sampled_from([None, "schema", "dim", "trunc", "payload", "expr",
                     "images", "hbar_scale", "matrix", "generator",
                     "generator_trunc"]),
    _json)


@settings(max_examples=300, deadline=None)
@given(_record)
def test_record_loaders_load_or_fail_with_exit_code(rec):
    for load in (automorphism_from_record, element_from_record,
                 factorization_from_record):
        try:
            load(rec)
        except WeylError as exc:
            assert exc.exit_code != 1, repr(exc)


def _spliced(rec, at, junk, encoding):
    data = dumps_record(rec).encode(encoding)
    at %= len(data) + 1
    return data[:at] + junk + data[at:]


_record_bytes = st.one_of(
    st.binary(max_size=64),
    st.text(st.sampled_from('{}[]":,-+.0123456789eE tnfalsru\\\n'),
            max_size=64).map(str.encode),
    st.builds(_spliced, _record, st.integers(0, 4000), st.binary(max_size=8),
              st.sampled_from(["utf-8", "utf-8-sig", "utf-16"])))


@settings(max_examples=300, deadline=None)
@given(_record_bytes)
@example(b"[" * 100000)
@example(b'{"dim": ' + b"9" * 5000 + b"}")
@example(b'"\xed\xa0\x80"')
def test_load_record_loads_or_fails_with_exit_2_or_3(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed_record.json"
    path.write_bytes(data)
    try:
        rec = load_record(path)
    except WeylError as exc:
        assert exc.exit_code in (2, 3), repr(exc)
    else:
        assert isinstance(rec, dict)


def test_dumps_record_is_sorted_and_indented():
    text = dumps_record({"b": 1, "a": {"z": 1, "y": 2}})
    assert text == '{\n  "a": {\n    "y": 2,\n    "z": 1\n  },\n  "b": 1\n}\n'
