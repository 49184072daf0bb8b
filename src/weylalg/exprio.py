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
import re
import sys
from fractions import Fraction
from string import ascii_letters, digits

from .automorphism import AutomorphismData
from .elements import Context, WeylElement, _acc_add, _acc_merge
from .errors import (
    ExponentOverflowError,
    ExprSyntaxError,
    RecordError,
    UnknownVariableError,
)
from .scalars import (
    G_I,
    GaussianRational,
    QONE,
    QZERO,
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

# A token after any whitespace: a natural with an optional "/ natural" (a
# rational literal, whose second digits may be missing: an error), a name,
# an operator, or any other character but whitespace (an error). Digits
# and names are ASCII. The pattern is matched only up to the end of the
# last token (_token_end): a search in trailing whitespace would backtrack
# through all of it at every position, quadratic in its length.
_SPACE = " \t\r\n"
_TOKEN = re.compile(
    r"[ \t\r\n]*([0-9]+(?:[ \t]*/[ \t]*[0-9]*)?|[A-Za-z][A-Za-z0-9_]*"
    r"|[-+*^()]|[^ \t\r\n])")
_DIGITS = frozenset(digits)
_NAME_START = frozenset(ascii_letters)
_END = ""       # the token after the last


def _kind(tok):
    """A token's kind for messages: "num", "name", "end" or the operator."""
    if tok == _END:
        return "end"
    if tok[0] in _DIGITS:
        return "num"
    return "name" if tok[0] in _NAME_START else tok


def _token_end(text):
    """Offset just past the last character that is not whitespace."""
    return len(text.rstrip(_SPACE))


def _position(text, idx):
    """(line, column) of token idx of text, both counted from 1."""
    offset = len(text)
    for i, m in enumerate(_TOKEN.finditer(text, 0, _token_end(text))):
        if i == idx:
            offset = m.start(1)
            break
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _natural(digit_text):
    """int of an ASCII digit string; past Python's digit limit, ValueError."""
    try:
        return int(digit_text)
    except ValueError:
        raise ValueError(
            f"number of {len(digit_text)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()}") from None


def _number(tok):
    """The Fraction of a literal token such as "3" or "3 / 4".

    A bad literal raises ValueError with the message to report; the
    caller knows where the token is.
    """
    num, slash, den = tok.partition("/")
    if not slash:
        return Fraction(_natural(tok))
    num = _natural(num.rstrip(" \t"))
    den = den.lstrip(" \t")
    if not den:
        raise ValueError("expected digits after '/' in rational literal")
    den = _natural(den)
    if not den:
        raise ValueError("zero denominator")
    return Fraction(num, den)


def _tokenize(text):
    """The token texts of text, then _END, and the literals' values.

    A token's validity and value depend on its text alone, so each
    distinct text is checked, and a literal evaluated, once, in the order
    of first occurrence: the first bad distinct text is the first bad
    token, and tokens.index finds its position for the message. numbers
    maps each literal text to its Fraction.
    """
    tokens = _TOKEN.findall(text, 0, _token_end(text))
    numbers = {}
    for tok in dict.fromkeys(tokens):
        c = tok[0]
        if c in _DIGITS:
            try:
                numbers[tok] = _number(tok)
            except ValueError as exc:
                raise ExprSyntaxError(
                    str(exc), *_position(text, tokens.index(tok))) from None
        elif c not in _NAME_START and c not in "+-*^()":
            raise ExprSyntaxError(f"unexpected character {c!r}",
                                  *_position(text, tokens.index(tok)))
    tokens.append(_END)
    return tokens, numbers


# recursive-descent parser, evaluating on the fly

_HBAR = -1      # the name marker of h, beside the variable indices


class _Parser:
    """Sums an expression into one accumulator while reading its tokens.

    Every atom of a product, a parenthesised constant included, folds
    into one monomial: a coefficient cr + i*ci, an hbar power and an
    exponent list. A literal's value is looked up by its text in the
    tokenizer's dict, and a parenthesised lone literal such as (854/3)
    folds as that literal, with no accumulator. A non-constant
    parenthesised factor is raised to its power and set aside; when the
    product ends, the set-aside factors are multiplied into the finished
    monomial. The product is commutative and grades only grow along it,
    so truncating once at the end equals truncating at every step.
    """

    def __init__(self, text, tokens, ctx):
        self.text = text
        self.tokens, self.numbers = tokens
        self.pos = 0
        self.ctx = ctx
        self.depth = 0
        self.names = {"h": _HBAR}       # variable name -> index, or _HBAR
        self.zeros = (0,) * ctx.nvars

    def err(self, msg, pos, cls=ExprSyntaxError):
        raise cls(msg, *_position(self.text, pos))

    def parse(self):
        acc = {}
        self.expr(acc)
        tok = self.tokens[self.pos]
        if tok != _END:
            self.err(f"unexpected {_kind(tok)!r} after expression", self.pos)
        return WeylElement._from_acc(self.ctx, acc)

    def expr(self, acc):
        """Sums the terms of an expression into acc."""
        tokens = self.tokens
        negate = False
        while True:
            while tokens[self.pos] == "-":      # unary minus
                self.pos += 1
                negate = not negate
            self.product(acc, negate)
            tok = tokens[self.pos]
            if tok == "+":
                negate = False
            elif tok == "-":
                negate = True
            else:
                return
            self.pos += 1

    def product(self, acc, negate):
        """Sums a product of powers, negated if asked, into acc."""
        tokens, names, numbers = self.tokens, self.names, self.numbers
        cr, ci = QONE, QZERO
        hpow = 0
        exps = [0] * self.ctx.nvars
        groups = []         # the non-constant parenthesised factors, powered
        while True:
            pos = self.pos
            tok = tokens[pos]
            self.pos = pos + 1
            c = tok[:1]
            if c in _NAME_START and tok != "i":
                k = names.get(tok)
                if k is None:
                    k = self.variable(pos)
                n = self.exponent() if tokens[self.pos] == "^" else 1
                if k == _HBAR:
                    hpow += n
                else:
                    exps[k] += n
            else:
                if c in _DIGITS:
                    g = numbers[tok], QZERO
                elif tok == "i":
                    g = G_I.re, G_I.im
                elif tok == "(":
                    g = self.group(pos)
                else:
                    self.err(f"expected a value, found {_kind(tok)!r}", pos)
                n = self.exponent() if tokens[self.pos] == "^" else None
                if type(g) is not tuple:    # a non-constant group
                    groups.append(g if n is None else g ** n)
                else:
                    fr, fi = g
                    if n is not None:
                        g = GaussianRational._wrap(fr, fi) ** n
                        fr, fi = g.re, g.im
                    if cr is QONE and not ci:   # the first scalar factor
                        cr, ci = fr, fi
                    else:
                        cr, ci = cr * fr - ci * fi, cr * fi + ci * fr
            if tokens[self.pos] != "*":
                break
            self.pos += 1
        grade = 2 * hpow + sum(exps)
        if not (cr or ci) or grade > self.ctx.trunc:
            return
        if negate:
            if cr:
                cr = -cr
            if ci:
                ci = -ci
        exps = tuple(exps)
        if not groups:
            _acc_add(acc.setdefault(grade, {}), exps, cr, ci)
            return
        e = WeylElement._from_raw(self.ctx, {grade: {exps: (cr, ci)}})
        for g in groups:
            e = e * g
        _acc_merge(acc, e._raw)

    def exponent(self):
        """The natural after the "^" at the current token."""
        pos = self.pos + 1
        q = self.numbers.get(self.tokens[pos])
        if q is None or q.denominator != 1:
            self.err("exponent must be a natural number", pos)
        n = q.numerator
        if n > MAX_EXPONENT:
            self.err(f"exponent {n} exceeds limit {MAX_EXPONENT}", pos,
                     ExponentOverflowError)
        self.pos = pos + 1
        return n

    def variable(self, pos):
        """Index of the variable a name token holds; remembered by name."""
        name = self.tokens[pos]
        if len(name) >= 2 and name[0] in "xp" and name[1:].isdigit():
            dim = self.ctx.dim
            try:
                idx = _natural(name[1:])
            except ValueError as exc:
                self.err(str(exc), pos)
            if not 1 <= idx <= dim:
                self.err(f"variable {name!r} out of range for dimension {dim}",
                         pos, UnknownVariableError)
            k = self.names[name] = idx - 1 if name[0] == "x" else dim + idx - 1
            return k
        self.err(f"unknown identifier {name!r}", pos, UnknownVariableError)

    def group(self, pos):
        """The parenthesised expression opened at token pos.

        Returns its (re, im) when it is a constant, else the element.
        """
        if self.depth == MAX_NESTING:
            self.err(f"parentheses nest deeper than {MAX_NESTING}", pos)
        tokens = self.tokens
        q = self.numbers.get(tokens[pos + 1])
        if q is not None and tokens[pos + 2] == ")":     # a lone literal
            self.pos = pos + 3
            return q, QZERO
        self.depth += 1
        acc = {}
        self.expr(acc)
        closing = self.pos
        if self.tokens[closing] != ")":
            self.err("expected ')'", closing)
        self.pos = closing + 1
        self.depth -= 1
        e = WeylElement._from_acc(self.ctx, acc)
        if e._raw.keys() <= {0}:    # a constant, maybe zero
            return e._raw[0][self.zeros] if e._raw else (QZERO, QZERO)
        return e


def parse_element(text, ctx):
    """Evaluate an expression string in the given context, truncating."""
    return _Parser(text, _tokenize(text), ctx).parse()


def parse_scalar(text):
    """A Gaussian-rational constant; variables and hbar are rejected."""
    tokens = _tokenize(text)
    # checked before evaluation, whose truncation could drop h^3 or x1^5
    if any(t[:1] in _NAME_START and t != "i" for t in tokens[0]):
        raise RecordError(f"expected a scalar constant, got {text!r}")
    return _Parser(text, tokens, Context(1, 4)).parse().coefficient(0, (0, 0))


# canonical printing

def _frac_text(q):
    """q > 0 as text, parenthesized when it is a proper fraction."""
    s = rational_to_string(q)
    return s if q.denominator == 1 else f"({s})"


def format_element(e):
    if e.is_zero():
        return "0"
    ctx = e.ctx
    # by grade, then hbar power (z-degree down), then exponents down
    items = ((g, exps, terms[exps]) for g, terms in sorted(e._raw.items())
             for exps in sorted(terms, key=lambda x: (sum(x), x),
                                reverse=True))
    parts = []
    for g, exps, (re, im) in items:
        h = (g - sum(exps)) // 2
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
