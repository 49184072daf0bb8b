"""Element construction, grading, truncation and ring operations."""

import ast
import pathlib
from collections import Counter

import pytest

import weylalg
from weylalg import (
    Context,
    ContextError,
    GaussianRational,
    Monomial,
    WeylElement,
    monomials_of_grade,
    parse_element,
    rational,
)
from weylalg.sampling import random_element


def test_context_validation():
    ctx = Context(2, 8)
    assert ctx.nvars == 4
    assert ctx.lifted().trunc == 9
    with pytest.raises(ContextError):
        Context(0, 8)
    with pytest.raises(ContextError):
        Context(1, 3)  # below the minimum order the algebra degenerates
    with pytest.raises(ContextError):
        Context(True, 8)


def test_all_names_resolve_once():
    assert len(set(weylalg.__all__)) == len(weylalg.__all__)
    assert [n for n in weylalg.__all__ if not hasattr(weylalg, n)] == []


def _unused_imports(path):
    """Names a module imports but never reads; __all__ entries count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    roots = (pathlib.Path(weylalg.__file__).parent, pathlib.Path(__file__).parent)
    found = [u for root in roots for path in sorted(root.glob("*.py"))
             for u in _unused_imports(path)]
    assert found == []


def test_only_elements_imports_gcd():
    # numerator forms have one gcd reducer, elements._reduced; another
    # module that imports gcd, or reads math.gcd, would be writing a second
    root = pathlib.Path(weylalg.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.alias) and node.name == "gcd"
               or isinstance(node, ast.Attribute) and node.attr == "gcd"
               for node in ast.walk(tree)):
            found.append(path.name)
    assert found == ["elements.py"]


# each module may import only modules earlier in this list; imports inside
# functions are not read (WeylElement.__str__ imports exprio's printer)
_LAYERS = ["errors", "scalars", "elements", "star", "symplectic",
           "automorphism", "factorization", "exprio", "sampling", "cli"]


def _package_imports(path):
    """Package modules that a module imports at its top level."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            yield from (a.name.removeprefix("weylalg.") for a in node.names
                        if a.name.startswith("weylalg."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("weylalg")):
            module = (node.module or "").removeprefix("weylalg").lstrip(".")
            yield from [module] if module else [a.name for a in node.names]


def test_modules_import_only_earlier_layers():
    root = pathlib.Path(weylalg.__file__).parent
    assert sorted(p.stem for p in root.glob("*.py")
                  if p.stem != "__init__") == sorted(_LAYERS)
    found = [f"{name} imports {dep}" for i, name in enumerate(_LAYERS)
             for dep in _package_imports(root / f"{name}.py")
             if dep not in _LAYERS[:i]]
    assert found == []


def _read_names(node):
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _private_definitions(tree):
    """(name, statement) of each module-level private function, class or
    assigned name; dunders such as __all__ are not helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _unreferenced_private_helpers(root):
    """Module-level private functions, classes and assigned names (tables,
    caches) named nowhere but in their own definitions."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("*.py"))}
    read = Counter(name for tree in trees.values() for name in _read_names(tree))
    return [f"{path.name}:{node.lineno}: {name}"
            for path, tree in trees.items()
            for name, node in _private_definitions(tree)
            if read[name] == _read_names(node).count(name)]


def test_no_unreferenced_private_helpers():
    root = pathlib.Path(weylalg.__file__).parent
    assert _unreferenced_private_helpers(root) == []


def test_variable_names():
    ctx = Context(2, 8)
    assert [ctx.variable_name(k) for k in range(4)] == ["x1", "x2", "p1", "p2"]
    with pytest.raises(IndexError):
        ctx.variable_name(4)


def test_monomial_grade():
    m = Monomial(2, (1, 3))
    assert m.grade() == 2 * 2 + 4


def test_constructors(ctx1):
    z = WeylElement.zero(ctx1)
    assert z.is_zero() and len(z) == 0 and z.lowest_grade() is None
    one = WeylElement.one(ctx1)
    assert one.coefficient(0, (0, 0)).is_one()
    x = WeylElement.variable(ctx1, 0)
    assert x.coefficient(0, (1, 0)).is_one()
    h = WeylElement.hbar(ctx1, 2)
    assert h.lowest_grade() == 4
    s = WeylElement.scalar(ctx1, rational(2, 3))
    assert s.coefficient(0, (0, 0)) == GaussianRational("2/3")


def test_construction_merges_and_drops(ctx1):
    e = WeylElement(ctx1, {(0, (1, 0)): 1})
    assert (e + e - e - e).is_zero()
    # duplicate keys merge, grade > trunc silently dropped
    big = WeylElement(ctx1, {(0, (9, 0)): 1})
    assert big.is_zero()
    with pytest.raises(ContextError):
        WeylElement(ctx1, {(0, (1,)): 1})  # wrong arity
    with pytest.raises(ContextError):
        WeylElement(ctx1, {(-1, (0, 0)): 1})


def test_grading_inspection(ctx1):
    x = WeylElement.variable(ctx1, 0)
    xi = WeylElement.variable(ctx1, 1)
    e = x * x + xi + WeylElement.hbar(ctx1)
    assert e.lowest_grade() == 1
    assert e.max_grade() == 2
    assert e.grades() == [1, 2]
    # three hbar powers in one grade, each read back from its exponents
    f = parse_element("x1^4 + h*x1*p1 + h^2", ctx1)
    one = GaussianRational(1)
    assert f.terms() == {Monomial(0, (4, 0)): one, Monomial(1, (1, 1)): one,
                         Monomial(2, (0, 0)): one}
    assert len(f) == 3
    assert f.grades() == [4]
    assert f.coefficient(1, (1, 1)) == one
    assert f.coefficient(2, [0, 0]) == one
    assert f.coefficient(0, (1, 1)).is_zero()
    assert f.coefficient(1, (4, 0)).is_zero()
    assert f.partial(0) == parse_element("4*x1^3 + h*p1", ctx1)
    assert f.partial(1) == parse_element("h*x1", ctx1)


def test_truncation():
    ctx = Context(1, 4)
    x = WeylElement.variable(ctx, 0)
    low = (WeylElement.one(ctx) + x) ** 8
    assert low.max_grade() == 4
    assert low.coefficient(0, (4, 0)) == GaussianRational(70)  # C(8,4)


def test_equality_across_truncations(ctx1):
    a = WeylElement.variable(ctx1, 0)
    b = WeylElement.variable(Context(1, 10), 0)
    assert a == b
    c = WeylElement.variable(Context(2, 8), 0)
    assert a != c


def test_ring_ops(ctx1):
    x = WeylElement.variable(ctx1, 0)
    xi = WeylElement.variable(ctx1, 1)
    assert x * xi == xi * x  # plain commutative product
    assert (x + xi) ** 2 == x * x + x * xi * 2 + xi * xi
    assert x.scale(rational(1, 2)) + x.scale(rational(1, 2)) == x
    assert -(-x) == x
    assert (x - x).is_zero()
    assert x ** 0 == WeylElement.one(ctx1)
    with pytest.raises(ContextError):
        x ** -1
    assert 3 * x == x * 3 == x.scale(3)


def test_mixed_context_rejected(ctx1, ctx2):
    with pytest.raises(ContextError):
        WeylElement.variable(ctx1, 0) + WeylElement.variable(ctx2, 0)
    with pytest.raises(ContextError):
        WeylElement.variable(ctx1, 0) * WeylElement.variable(Context(1, 6), 0)


def test_hbar_shift(ctx1):
    x = WeylElement.variable(ctx1, 0)
    e = (x ** 3).hbar_shift(2)
    assert e.coefficient(2, (3, 0)).is_one()
    assert e.lowest_grade() == 7
    assert (x ** 8).hbar_shift(1).is_zero()  # pushed past the truncation
    with pytest.raises(ContextError):
        # h^-1*x1 is not an element
        parse_element("x1 + h*p1", ctx1).hbar_shift(-1)
    assert parse_element("h*x1 + h^2*p1", ctx1).hbar_shift(-1) == \
        parse_element("x1 + h*p1", ctx1)
    f = parse_element("x1^4 + h*x1*p1 + h^2", ctx1)
    up = f.hbar_shift(1)
    assert up == parse_element("h*x1^4 + h^2*x1*p1 + h^3", ctx1)
    assert up.grades() == [6] and len(up) == 3
    assert up.coefficient(3, (0, 0)).is_one()
    assert f.hbar_shift(3).is_zero()  # grade 10 is past the truncation
    with pytest.raises(ContextError):
        f.hbar_shift(-1)  # x1^4 carries no hbar
    assert up.hbar_shift(-1) == f


def test_partial_derivative(ctx2):
    x1 = WeylElement.variable(ctx2, 0)
    x2 = WeylElement.variable(ctx2, 1)
    p2 = WeylElement.variable(ctx2, 3)
    e = x1 ** 2 * x2 * p2 ** 3
    assert e.partial(0) == x1 * x2 * p2 ** 3 * 2
    assert e.partial(3) == x1 ** 2 * x2 * p2 ** 2 * 3
    assert e.partial(2).is_zero()
    with pytest.raises(IndexError):
        e.partial(4)


def test_terms_are_copies(ctx1):
    x = WeylElement.variable(ctx1, 0)
    t = x.terms()
    assert t == {Monomial(0, (1, 0)): GaussianRational(1)}
    t.clear()
    assert not x.is_zero()


def test_unhashable(ctx1):
    with pytest.raises(TypeError):
        hash(WeylElement.one(ctx1))


def test_monomials_of_grade_counts():
    ctx = Context(1, 8)
    # grade 4 with one pair: zdeg 4 (5 ways), hbar*zdeg 2 (3), hbar^2 (1)
    assert len(monomials_of_grade(ctx, 4)) == 9
    assert monomials_of_grade(ctx, 0) == [(0, (0, 0))]
    for h, exps in monomials_of_grade(Context(2, 8), 5):
        assert 2 * h + sum(exps) == 5


def test_random_element_respects_bounds(rng, ctx2):
    for _ in range(50):
        e = random_element(rng, ctx2, terms=4, min_grade=2, max_grade=5,
                           complex_scalars=True)
        if not e.is_zero():
            assert 2 <= e.lowest_grade() and e.max_grade() <= 5


def test_str_uses_canonical_form(ctx1):
    x = WeylElement.variable(ctx1, 0)
    assert str(x * x - WeylElement.one(ctx1)) == "-1 + x1^2"
