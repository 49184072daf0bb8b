"""Hypothesis strategies for expression texts, each drawn with its value.

A strategy here draws a pair (text, expr): an expression in the grammar
of docs/grammar.ebnf and the sympy expression it stands for, built side
by side, untruncated. The texts are made for the lexer's power tokens:
powers of names, of bare literals and of parenthesised constants (a/b)
and (a+b*i), with whitespace drawn around "^", "/" and the sign of the i
term and inside the parentheses, joined by "*", "+", "-" and
parenthesised groups. truncate_sympy in oracles.py gives the value an
element of a context holds.
"""

import sympy
from hypothesis import strategies as st

from oracles import HBAR, _symbols

# whitespace between tokens may hold newlines; inside a literal, around
# its "/", only spaces and tabs
_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n "])
_INLINE = st.sampled_from(["", "", " ", "\t"])


@st.composite
def literals(draw):
    """A rational literal "a" or "a / b", with b > 0."""
    a = draw(st.integers(0, 12))
    if draw(st.booleans()):
        return str(a), sympy.Integer(a)
    b = draw(st.integers(1, 6))
    return f"{a}{draw(_INLINE)}/{draw(_INLINE)}{b}", sympy.Rational(a, b)


@st.composite
def constants(draw):
    """A parenthesised constant: (a/b), (-a/b), (a+b*i), (-a-i) and so on."""
    text, value = draw(literals())
    if draw(st.booleans()):
        text, value = f"-{draw(_SPACE)}{text}", -value
    if draw(st.booleans()):
        sign = draw(st.sampled_from("+-"))
        im_text, im = "i", sympy.Integer(1)
        if draw(st.booleans()):
            im_text, im = draw(literals())
            im_text = f"{im_text}{draw(_SPACE)}*{draw(_SPACE)}i"
        text = f"{text}{draw(_SPACE)}{sign}{draw(_SPACE)}{im_text}"
        value += (im if sign == "+" else -im) * sympy.I
    return f"({draw(_SPACE)}{text}{draw(_SPACE)})", value


def names(dim):
    """A name of a d-dimensional context: a variable, h or i."""
    xs, ps = _symbols(dim)
    return st.sampled_from([(str(s), s) for s in xs + ps]
                           + [("h", HBAR), ("i", sympy.I)])


@st.composite
def _power(draw, atom):
    text, value = draw(atom)
    if draw(st.booleans()):
        n = draw(st.integers(0, 3))
        text = f"{text}{draw(_SPACE)}^{draw(_SPACE)}{n}"
        value = value ** n
    return text, value


@st.composite
def _term(draw, dim, depth):
    atoms = [names(dim), literals(), constants()]
    if depth:
        atoms.append(expressions(dim, depth - 1).map(
            lambda pair: (f"({pair[0]})", pair[1])))
    text, value = draw(_power(st.one_of(atoms)))
    for _ in range(draw(st.integers(0, 2))):
        t, v = draw(_power(st.one_of(atoms)))
        text = f"{text}{draw(_SPACE)}*{draw(_SPACE)}{t}"
        value = value * v
    if draw(st.booleans()):
        text, value = f"-{draw(_SPACE)}{text}", -value
    return text, value


@st.composite
def expressions(draw, dim=2, depth=2):
    """(text, expr): terms joined by "+" and "-", groups nesting to depth."""
    text, value = draw(_term(dim, depth))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from("+-"))
        t, v = draw(_term(dim, depth))
        text = f"{text}{draw(_SPACE)}{op}{draw(_SPACE)}{t}"
        value = value + v if op == "+" else value - v
    return text, value
