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

The lexer reads a power whose atom is a name or a parenthesised constant
such as (4/3), (8/3-2*i) or (-2+i), with its "^ natural", as one token:
x1^2, h, i^3, (854/3). Each distinct power text is evaluated once per
record, into an exponent added to a variable or to hbar or into a
Gaussian scalar, and one table of these values serves all the images of
an automorphism record. This changes no value and no error: an error
inside a power token has the class, message and position it would have
if each part were a token of its own.

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

# A token after any whitespace. A power token is a name or a parenthesised
# constant such as (4/3), (8/3-2*i) or (-2+i), with the "^" after it if
# there is one and the natural after that "^" (its digits unless a "/"
# follows them, which makes them a rational literal: an error); a power
# token whose "^" is followed by no natural ends at the "^", and the
# exponent is the next token. Any other token is a natural with an
# optional "/ natural" (a rational literal, whose second digits may be
# missing: an error), an operator, or any other character but whitespace
# (an error). Digits and names are ASCII. The pattern is matched only up
# to the end of the last token (_token_end): a search in trailing
# whitespace would backtrack through all of it at every position,
# quadratic in its length.
_SPACE = " \t\r\n"
_WS = "[ \t\r\n]*"
_RATIONAL = "[0-9]+(?:[ \t]*/[ \t]*[0-9]+)?"


def _constant(part):
    """The pattern of a parenthesised constant, part opening the group of
    each of its parts: the sign, the real literal, the sign of the i term
    and its literal."""
    return (rf"\({_WS}{part}-?){_WS}{part}{_RATIONAL})"
            rf"(?:{_WS}{part}[-+]){_WS}(?:{part}{_RATIONAL}){_WS}\*{_WS})?i)?"
            rf"{_WS}\)")


_TOKEN = re.compile(
    rf"{_WS}([-+*^)]|(?:[A-Za-z][A-Za-z0-9_]*|{_constant('(?:')})"
    rf"(?:{_WS}\^(?:{_WS}[0-9]+(?![0-9]|[ \t]*/))?)?"
    r"|[0-9]+(?:[ \t]*/[ \t]*[0-9]*)?|[^ \t\r\n])")
_CONSTANT = re.compile(_constant("("))
_DIGITS = frozenset(digits)
_NAME_START = frozenset(ascii_letters)
_END = ""       # the token after the last


def _kind(tok):
    """A token's kind for messages: "num", "name", "end" or the operator,
    "(" for a parenthesised constant."""
    if tok == _END:
        return "end"
    c = tok[0]
    if c in _DIGITS:
        return "num"
    return "name" if c in _NAME_START else c


def _token_end(text):
    """Offset just past the last character that is not whitespace."""
    return len(text.rstrip(_SPACE))


def _position(text, idx, at=0):
    """(line, column) of offset at in token idx of text, both counted from 1."""
    offset = len(text)
    for i, m in enumerate(_TOKEN.finditer(text, 0, _token_end(text))):
        if i == idx:
            offset = m.start(1) + at
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


def _raised(value, n):
    """A power value (see _Parser) to the nth power."""
    k, m = value
    if k is not None:
        return k, m * n
    g = GaussianRational._wrap(*m) ** n
    return None, (g.re, g.im)


def _tokenize(text, powers):
    """The token texts of text, then _END, and the literals' values.

    A token's validity depends on its text alone, so each distinct text is
    checked once, in the order of first occurrence, and the parts of a
    power token from left to right: the first bad distinct text is the
    first bad token, and tokens.index finds its position for the message.
    A text that powers, the table of power values, already holds was
    checked when it went in. numbers maps each literal text, the parts of
    parenthesised constants included, to its Fraction, each evaluated
    once. A parenthesised constant's value goes into powers under its
    text without the exponent, and under the token's text raised to the
    exponent unless that is past MAX_EXPONENT, an error the parser
    reports when it reaches the token.
    """
    tokens = _TOKEN.findall(text, 0, _token_end(text))
    numbers = {}

    def check(evaluate, part, tok, at):
        """evaluate(part) for the part at offset at of token tok."""
        try:
            return evaluate(part)
        except ValueError as exc:
            raise ExprSyntaxError(
                str(exc), *_position(text, tokens.index(tok), at)) from None

    def literal(lit, tok, at):
        """The Fraction of the literal lit at offset at of token tok."""
        q = numbers.get(lit)
        if q is None:
            q = numbers[lit] = check(_number, lit, tok, at)
        return q

    for tok in dict.fromkeys(tokens):
        c = tok[0]
        if c in _DIGITS:
            literal(tok, tok, 0)
        elif c in _NAME_START or c == "(" and tok != "(":
            if tok in powers:
                continue
            if c == "(":
                m = _CONSTANT.match(tok)
                sign, lit, isign, ilit = m.groups()
                real = literal(lit, tok, m.start(2))
                imag = literal(ilit, tok, m.start(4)) if ilit else QONE
                value = None, (-real if sign else real,
                               QZERO if not isign
                               else -imag if isign == "-" else imag)
            atom, _, exp = tok.partition("^")
            exp = exp.lstrip(_SPACE)
            if exp:
                n = check(_natural, exp, tok, len(tok) - len(exp))
            if c == "(":
                powers[atom.rstrip(_SPACE)] = value
                if exp and n <= MAX_EXPONENT:
                    powers[tok] = _raised(value, n)
        elif c not in "+-*^()":
            raise ExprSyntaxError(f"unexpected character {c!r}",
                                  *_position(text, tokens.index(tok)))
    tokens.append(_END)
    return tokens, numbers


# recursive-descent parser, evaluating on the fly

# the value of a factor set aside: it adds the exponent 0 to x1
_NOTHING = (0, 0)


class _Parser:
    """Sums an expression into one accumulator while reading its tokens.

    Every factor of a product, a parenthesised constant included, folds
    into one monomial: a coefficient cr + i*ci and a list of the
    variables' exponents, then hbar's. A power token's value is (k, n),
    the exponent n added at index k of that list, or (None, (re, im)), a
    scalar factor. The table powers holds it by the token's text, and
    one table serves every text of a record, so the product folds a
    power it has met before with one dict lookup. A power met the first
    time, a literal, which is looked up by its text in the tokenizer's
    dict, and a parenthesised expression go through factor. A
    non-constant parenthesised factor is raised to its power and set
    aside; when the product ends, the set-aside factors are multiplied
    into the finished monomial. The product is commutative and grades
    only grow along it, so truncating once at the end equals truncating
    at every step.
    """

    def __init__(self, text, ctx, powers):
        self.text = text
        self.tokens, self.numbers = _tokenize(text, powers)
        self.powers = powers
        self.pos = 0
        self.ctx = ctx
        self.depth = 0
        self.zeros = (0,) * ctx.nvars

    def err(self, msg, pos, cls=ExprSyntaxError, at=0):
        raise cls(msg, *_position(self.text, pos, at))

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
        tokens = self.tokens
        # at the nesting bound a parenthesised constant is an error, which
        # power reports
        powers = self.powers if self.depth < MAX_NESTING else {}
        cr, ci = QONE, QZERO
        exps = [0] * (self.ctx.nvars + 1)
        groups = []         # the non-constant parenthesised factors, powered
        pos = self.pos
        while True:
            value = powers.get(tokens[pos])
            if value is None:
                self.pos = pos
                value = self.factor(groups)
                pos = self.pos
            else:
                pos += 1
            k, n = value
            if k is not None:
                exps[k] += n
            else:
                fr, fi = n
                if cr is QONE and ci is QZERO:  # the first scalar factor
                    cr, ci = fr, fi
                else:
                    cr, ci = cr * fr - ci * fi, cr * fi + ci * fr
            if tokens[pos] != "*":
                break
            pos += 1
        self.pos = pos
        hpow = exps.pop()
        grade = 2 * hpow + sum(exps)
        if grade > self.ctx.trunc:
            return
        if negate:
            cr = -cr
            if ci is not QZERO:
                ci = -ci
        exps = tuple(exps)
        if not groups:      # a zero sum stays in acc; _from_acc drops it
            _acc_add(acc.setdefault(grade, {}), exps, cr, ci)
            return
        if not (cr or ci):
            return
        e = WeylElement._from_raw(self.ctx, {grade: {exps: (cr, ci)}})
        for g in groups:
            e = e * g
        _acc_merge(acc, e._raw)

    def factor(self, groups):
        """The value of the power at the current token, in the shape of
        the table of powers; a non-constant parenthesised factor goes to
        groups instead, and its value is _NOTHING."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        self.pos = pos + 1
        c = tok[:1]
        if c in _NAME_START or c == "(" and tok != "(":
            return self.power(pos)
        if c in _DIGITS:
            g = self.numbers[tok], QZERO
        elif tok == "(":
            g = self.group(pos)
        else:
            self.err(f"expected a value, found {_kind(tok)!r}", pos)
        n = None
        if tokens[self.pos] == "^":
            self.pos += 1
            n = self.exponent()
        if type(g) is tuple:
            return (None, g) if n is None else _raised((None, g), n)
        groups.append(g if n is None else g ** n)     # a non-constant group
        return _NOTHING

    def power(self, pos):
        """The value of the power token at pos, which goes into the table
        unless the token ends in "^", whose exponent is the next token."""
        tok = self.tokens[pos]
        if tok[0] == "(" and self.depth == MAX_NESTING:
            self.err(f"parentheses nest deeper than {MAX_NESTING}", pos)
        powers = self.powers
        value = powers.get(tok)
        if value is not None:   # a product at the nesting bound reads no table
            return value
        atom, caret, exp = tok.partition("^")
        atom = atom.rstrip(_SPACE)
        base = powers.get(atom)
        if base is None:        # a name; the tokenizer fills in constants
            base = powers[atom] = self.name(atom, pos)
        if not caret:
            return base
        exp = exp.lstrip(_SPACE)
        if not exp:
            return _raised(base, self.exponent())
        n = int(exp)
        if n > MAX_EXPONENT:
            self.err(f"exponent {n} exceeds limit {MAX_EXPONENT}", pos,
                     ExponentOverflowError, len(tok) - len(exp))
        value = powers[tok] = _raised(base, n)
        return value

    def exponent(self):
        """The natural at the current token, the one after a "^"."""
        pos = self.pos
        q = self.numbers.get(self.tokens[pos])
        if q is None or q.denominator != 1:
            self.err("exponent must be a natural number", pos)
        n = q.numerator
        if n > MAX_EXPONENT:
            self.err(f"exponent {n} exceeds limit {MAX_EXPONENT}", pos,
                     ExponentOverflowError)
        self.pos = pos + 1
        return n

    def name(self, name, pos):
        """The value of the name that the token at pos starts with."""
        if name == "i":
            return None, (G_I.re, G_I.im)
        dim = self.ctx.dim
        if name == "h":
            return 2 * dim, 1
        if len(name) >= 2 and name[0] in "xp" and name[1:].isdigit():
            try:
                idx = _natural(name[1:])
            except ValueError as exc:
                self.err(str(exc), pos)
            if not 1 <= idx <= dim:
                self.err(f"variable {name!r} out of range for dimension {dim}",
                         pos, UnknownVariableError)
            return (idx - 1 if name[0] == "x" else dim + idx - 1), 1
        self.err(f"unknown identifier {name!r}", pos, UnknownVariableError)

    def group(self, pos):
        """The parenthesised expression opened at token pos.

        Returns its (re, im) when it is a constant, else the element.
        """
        if self.depth == MAX_NESTING:
            self.err(f"parentheses nest deeper than {MAX_NESTING}", pos)
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
    return _Parser(text, ctx, {}).parse()


def parse_scalar(text):
    """A Gaussian-rational constant; variables and hbar are rejected."""
    parser = _Parser(text, Context(1, 4), {})
    # checked before evaluation, whose truncation could drop h^3 or x1^5;
    # a power token's atom is its text before any "^"
    if any(t[:1] in _NAME_START and t.partition("^")[0].rstrip(_SPACE) != "i"
           for t in parser.tokens):
        raise RecordError(f"expected a scalar constant, got {text!r}")
    return parser.parse().coefficient(0, (0, 0))


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
    powers = {}     # one table of power values for all the images
    for text in images:
        if not isinstance(text, str):
            raise RecordError("automorphism images must be strings")
        parsed.append(_Parser(text, ctx, powers).parse())
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
