"""Text and record formats for elements, matrices and automorphisms.

Expression grammar (h is hbar, x1..xd and p1..pd the variables):

    expr    :=  term (("+" | "-") term)*
    term    :=  "-" term | product
    product :=  power ("*" power)*
    power   :=  atom ("^" natural)?
    atom    :=  rational | "i" | "h" | variable | "(" expr ")"

Rationals are "3" or "3/4" (a single literal, not a division operator);
exponents are plain naturals. Digits and identifiers are ASCII, a literal
may not exceed Python's integer-conversion limit of digits, and
parentheses nest at most MAX_NESTING deep. Whitespace is free between
tokens.

format_element produces a canonical line: terms sorted by grade, then
hbar power, then graded-lex on the variables (x-heavy monomials first),
joined with " + " / " - ", each term written as
coefficient * i * h^j * x-part * p-part with 1-factors suppressed and
fractions that multiply something wrapped in parens. parse(format(a))
returns a termwise-identical element, and formatting a parsed canonical
string is the identity on text.

Records are JSON objects {"schema", "dim", "trunc", "payload"} with the
schema tags weyl-element/1, automorphism/1 and factorization/1;
serialization is byte-deterministic (sorted keys, two-space indent,
trailing newline).
"""

from __future__ import annotations

import json
import sys
from string import ascii_letters, digits

from .automorphism import AutomorphismData
from .elements import Context, WeylElement
from .errors import (
    ExponentOverflowError,
    ExprSyntaxError,
    RecordError,
    UnknownVariableError,
)
from .scalars import (
    GaussianRational,
    QZERO,
    rational,
    rational_to_string,
    scalar_to_string,
)
from .symplectic import SympMatrix

MAX_EXPONENT = 10 ** 6
MAX_NESTING = 100

SCHEMA_ELEMENT = "weyl-element/1"
SCHEMA_AUTOMORPHISM = "automorphism/1"
SCHEMA_FACTORIZATION = "factorization/1"


# tokenizer

_OPS = "+-*^()"
_DIGITS = frozenset(digits)
_NAME_START = frozenset(ascii_letters)
_NAME_CHARS = frozenset(ascii_letters + digits + "_")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind      # "num", "name", one of _OPS, "end"
        self.value = value
        self.line = line
        self.col = col


def _natural(text, line, col):
    """int of an ASCII digit string; past Python's digit limit, a syntax error."""
    try:
        return int(text)
    except ValueError:
        raise ExprSyntaxError(
            f"number of {len(text)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()}", line, col) from None


def _tokenize(text):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def err(msg, l=None, c=None):
        raise ExprSyntaxError(msg, l if l is not None else line,
                              c if c is not None else col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            l0, c0 = line, col
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            num = _natural(text[i:j], l0, c0)
            col += j - i
            i = j
            # lookahead for "/ digits" making a rational literal
            k = i
            saved_col = col
            while k < n and text[k] in " \t":
                k += 1
            if k < n and text[k] == "/":
                k += 1
                while k < n and text[k] in " \t":
                    k += 1
                if k >= n or text[k] not in _DIGITS:
                    err("expected digits after '/' in rational literal",
                        l0, c0)
                j = k
                while j < n and text[j] in _DIGITS:
                    j += 1
                den = _natural(text[k:j], l0, c0)
                if den == 0:
                    err("zero denominator", l0, c0)
                col = saved_col + (j - i)
                i = j
                tokens.append(_Token("num", rational(num, den), l0, c0))
            else:
                tokens.append(_Token("num", rational(num), l0, c0))
            continue
        if ch in _NAME_START:
            l0, c0 = line, col
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(_Token("name", text[i:j], l0, c0))
            col += j - i
            i = j
            continue
        err(f"unexpected character {ch!r}")
    tokens.append(_Token("end", None, line, col))
    return tokens


# recursive-descent parser, evaluating on the fly

class _Parser:
    def __init__(self, tokens, ctx):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def err(self, msg, tok=None, cls=ExprSyntaxError):
        tok = tok or self.peek()
        raise cls(msg, tok.line, tok.col)

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            self.err(f"unexpected {t.kind!r} after expression", t)
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        negate = False
        while self.peek().kind == "-":
            self.take()
            negate = not negate
        e = self.product()
        return -e if negate else e

    def product(self):
        e = self.power()
        while self.peek().kind == "*":
            self.take()
            e = e * self.power()
        return e

    def power(self):
        e = self.atom()
        if self.peek().kind == "^":
            self.take()
            t = self.peek()
            if t.kind != "num":
                self.err("exponent must be a natural number", t)
            q = self.take().value
            if q.denominator != 1:
                self.err("exponent must be a natural number", t)
            exp = int(q)
            if exp > MAX_EXPONENT:
                self.err(f"exponent {exp} exceeds limit {MAX_EXPONENT}",
                         t, ExponentOverflowError)
            e = e ** exp
        return e

    def atom(self):
        t = self.take()
        ctx = self.ctx
        if t.kind == "num":
            return WeylElement.scalar(ctx, GaussianRational(t.value))
        if t.kind == "name":
            name = t.value
            if name == "i":
                return WeylElement.scalar(ctx, GaussianRational(0, 1))
            if name == "h":
                return WeylElement.hbar(ctx)
            if len(name) >= 2 and name[0] in "xp" and name[1:].isdigit():
                idx = _natural(name[1:], t.line, t.col)
                if not 1 <= idx <= ctx.dim:
                    self.err(
                        f"variable {name!r} out of range for dimension {ctx.dim}",
                        t, UnknownVariableError)
                k = idx - 1 if name[0] == "x" else ctx.dim + idx - 1
                return WeylElement.variable(ctx, k)
            self.err(f"unknown identifier {name!r}", t, UnknownVariableError)
        if t.kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.err(f"parentheses nest deeper than {MAX_NESTING}", t)
            e = self.expr()
            closing = self.take()
            if closing.kind != ")":
                self.err("expected ')'", closing)
            self.depth -= 1
            return e
        self.err(f"expected a value, found {t.kind!r}", t)


def parse_element(text, ctx):
    """Evaluate an expression string in the given context, truncating."""
    return _Parser(_tokenize(text), ctx).parse()


def parse_scalar(text):
    """A Gaussian-rational constant; variables and hbar are rejected."""
    tokens = _tokenize(text)
    # checked before evaluation, whose truncation could drop h^3 or x1^5
    if any(t.kind == "name" and t.value != "i" for t in tokens):
        raise RecordError(f"expected a scalar constant, got {text!r}")
    return _Parser(tokens, Context(1, 4)).parse().coefficient(0, (0, 0))


# canonical printing

def _frac_text(q):
    """q > 0 as text, parenthesized when it is a proper fraction."""
    s = rational_to_string(q)
    return s if q.denominator == 1 else f"({s})"


def format_element(e):
    if e.is_zero():
        return "0"
    ctx = e.ctx
    items = sorted(
        e._raw.items(),
        key=lambda kv: (2 * kv[0][0] + sum(kv[0][1]), kv[0][0],
                        tuple(-v for v in kv[0][1])))
    parts = []
    for (h, exps), (re, im) in items:
        factors = []
        if h:
            factors.append("h" if h == 1 else f"h^{h}")
        for k, ek in enumerate(exps):
            if ek:
                name = ctx.variable_name(k)
                factors.append(name if ek == 1 else f"{name}^{ek}")
        body = "*".join(factors)
        if im == QZERO:
            neg = re < 0
            mag = -re if neg else re
            if not body:
                term = rational_to_string(mag)
            elif mag == 1:
                term = body
            else:
                term = f"{_frac_text(mag)}*{body}"
        elif re == QZERO:
            neg = im < 0
            mag = -im if neg else im
            coeff = "i" if mag == 1 else f"{_frac_text(mag)}*i"
            term = f"{coeff}*{body}" if body else coeff
        else:
            neg = False
            coeff = f"({scalar_to_string(GaussianRational._wrap(re, im))})"
            term = f"{coeff}*{body}" if body else coeff
        parts.append((neg, term))
    neg0, t0 = parts[0]
    out = [f"-{t0}" if neg0 else t0]
    for neg, t in parts[1:]:
        out.append(f" - {t}" if neg else f" + {t}")
    return "".join(out)


# JSON records

def element_record(e):
    return {
        "schema": SCHEMA_ELEMENT,
        "dim": e.ctx.dim,
        "trunc": e.ctx.trunc,
        "payload": {"expr": format_element(e)},
    }


def automorphism_record(phi):
    return {
        "schema": SCHEMA_AUTOMORPHISM,
        "dim": phi.ctx.dim,
        "trunc": phi.ctx.trunc,
        "payload": {
            "hbar_scale": scalar_to_string(phi.hbar_scale),
            "images": [format_element(im) for im in phi.images],
        },
    }


def factorization_record(res):
    report = {
        "passed": res.report.passed,
        "generators": [
            {
                "index": g.index,
                "passed": g.passed,
                "first_mismatch_grade": g.first_mismatch_grade,
                "max_grade_checked": g.max_grade_checked,
            }
            for g in res.report.generators
        ],
    }
    return {
        "schema": SCHEMA_FACTORIZATION,
        "dim": res.dim,
        "trunc": res.trunc,
        "payload": {
            "matrix": [[scalar_to_string(v) for v in row]
                       for row in res.matrix.rows],
            "generator": format_element(res.generator),
            "generator_trunc": res.generator.ctx.trunc,
            "residual_report": report,
        },
    }


def dumps_record(rec):
    return json.dumps(rec, indent=2, sort_keys=True) + "\n"


def save_record(rec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_record(rec))


def _loads(text):
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExprSyntaxError(f"invalid JSON: {exc.msg}",
                              exc.lineno, exc.colno) from exc
    except ValueError:
        # json raises it for an integer past Python's digit limit
        raise RecordError(
            "record holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise RecordError("record nests too deeply") from None
    if not isinstance(rec, dict):
        raise RecordError("record must be a JSON object")
    return rec


def load_record(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        raise ExprSyntaxError(
            "record is not UTF-8 text", head.count("\n") + 1,
            len(head) - head.rfind("\n")) from None
    return _loads(text)


def _expect(rec, schema):
    got = rec.get("schema")
    if got != schema:
        raise RecordError(f"expected schema {schema!r}, found {got!r}")
    payload = rec.get("payload")
    if not isinstance(payload, dict):
        raise RecordError("record payload must be a JSON object")
    return payload


def _dim_of(rec):
    dim = rec.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise RecordError("record field 'dim' must be a positive integer")
    return dim


def _context_of(rec):
    dim = _dim_of(rec)
    trunc = rec.get("trunc")
    if not isinstance(trunc, int) or isinstance(trunc, bool):
        raise RecordError("record field 'trunc' must be an integer")
    return Context(dim, trunc)


def element_from_record(rec):
    payload = _expect(rec, SCHEMA_ELEMENT)
    expr = payload.get("expr")
    if not isinstance(expr, str):
        raise RecordError("element payload needs an 'expr' string")
    return parse_element(expr, _context_of(rec))


def _matrix_from_entries(entries, dim):
    if (not isinstance(entries, list) or len(entries) != 2 * dim
            or any(not isinstance(row, list) or len(row) != 2 * dim
                   for row in entries)):
        raise RecordError("matrix entries must form a 2*dim x 2*dim grid")
    return SympMatrix(
        [[parse_scalar(v) if isinstance(v, str) else _bad_entry(v)
          for v in row] for row in entries])


def _bad_entry(v):
    raise RecordError(f"matrix entry must be a string, got {type(v).__name__}")


def automorphism_from_record(rec):
    payload = _expect(rec, SCHEMA_AUTOMORPHISM)
    ctx = _context_of(rec)
    images = payload.get("images")
    if not isinstance(images, list) or len(images) != ctx.nvars:
        # dim is unbounded here, so the message does not print it
        raise RecordError(
            "automorphism payload needs 2*dim image strings")
    parsed = []
    for text in images:
        if not isinstance(text, str):
            raise RecordError("automorphism images must be strings")
        parsed.append(parse_element(text, ctx))
    scale_text = payload.get("hbar_scale", "1")
    if not isinstance(scale_text, str):
        raise RecordError("hbar_scale must be a string")
    scale = parse_scalar(scale_text)
    if scale.is_zero():
        raise RecordError("hbar_scale must be nonzero")
    return AutomorphismData(ctx, parsed, scale)


def factorization_from_record(rec):
    """(matrix, generator) from a factorization record."""
    payload = _expect(rec, SCHEMA_FACTORIZATION)
    dim = _dim_of(rec)
    m = _matrix_from_entries(payload.get("matrix"), dim)
    gt = payload.get("generator_trunc")
    if not isinstance(gt, int) or isinstance(gt, bool):
        raise RecordError("factorization payload needs 'generator_trunc'")
    expr = payload.get("generator")
    if not isinstance(expr, str):
        raise RecordError("factorization payload needs a 'generator' string")
    return m, parse_element(expr, Context(dim, gt))
