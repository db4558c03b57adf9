"""Exact Laurent-ring arithmetic: worked values, ring axioms, serialization."""

import ast
import pathlib
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cgybe
from cgybe import LaurentQP, IntWindow, TensorOp, check_quadratic, compose_sum, g_op
from cgybe import one, p, permutation_op, q, zero


class K(IntEnum):
    """int subclass members: equal to ints, but not exactly ints."""

    ONE = 1
    TWO = 2
    TWELVE = 12

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)

laurents = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    small_fractions,
    max_size=4,
).map(LaurentQP)

# Integer and Fraction coefficients mixed, as raw dicts so a test can build
# a Fraction-only reference from the same draw.  Integral Fractions occur
# too (small_fractions yields e.g. Fraction(2)), exercising the demotion.
mixed_term_dicts = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.one_of(st.integers(-5, 5), small_fractions),
    max_size=4,
)

nonzero_points = st.tuples(
    small_fractions.filter(bool), small_fractions.filter(bool)
)


def test_add_inverse_cancels():
    assert q + (-q) == zero
    assert (q + (-q)).is_zero()
    assert not (q + (-q)).terms()


def test_add_disjoint_support():
    total = q + q**-1
    assert total.terms() == {(1, 0): Fraction(1), (-1, 0): Fraction(1)}


def test_add_partial_cancellation():
    assert (q - q**-1) + q**-1 == q


def test_mul_difference_of_squares():
    assert (q - q**-1) * (q + q**-1) == q**2 - q**-2


def test_mul_identity():
    x = LaurentQP({(2, -1): Fraction(3, 2), (0, 0): -1})
    assert one * x == x
    assert x * one == x


def test_mul_exponent_cancellation():
    assert (q * p**-1) * (q**-1 * p) == one


def test_hash_agrees_with_equality():
    # a constant hashes like the int or Fraction it equals
    assert hash(LaurentQP.const(3)) == hash(3)
    assert hash(LaurentQP.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(LaurentQP()) == hash(0)
    # equal values built two ways share a hash and one dict key
    built = LaurentQP({(1, 0): 1, (-1, 0): -1})
    assert built == q - q**-1
    assert hash(built) == hash(q - q**-1)
    assert {q - q**-1: "key"}[built] == "key"


def test_reflected_subtraction():
    assert 3 - q == LaurentQP({(0, 0): 3, (1, 0): -1})
    assert Fraction(1, 2) - q**-1 == LaurentQP({(0, 0): Fraction(1, 2), (-1, 0): -1})


def test_eval_basic():
    assert (q - q**-1).eval(2, 1) == Fraction(3, 2)
    assert zero.eval(Fraction(7, 3), -5) == 0
    assert (q * p**-2).eval(3, 2) == Fraction(3, 4)


def test_eval_rejects_zero_point():
    with pytest.raises(ValueError):
        q.eval(0, 1)
    with pytest.raises(ValueError):
        q.eval(1, 0)
    with pytest.raises(ValueError):
        p.subs_p(0)


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/2"])
def test_eval_rejects_non_rational_point(bad):
    # (q + p).eval(0.1, 1) would silently evaluate at the binary float
    # 3602879701896397/36028797018963968, not at 1/10.
    with pytest.raises(TypeError):
        (q + p).eval(bad, 1)
    with pytest.raises(TypeError):
        (q + p).eval(1, bad)
    with pytest.raises(TypeError):
        (q + p).subs_p(bad)


def test_exact_points_still_evaluate():
    # the CLI passes Fraction(text), which reads "0.5" exactly
    assert (q + p).eval(Fraction("0.1"), 1) == Fraction(11, 10)
    assert (q + p).subs_p(Fraction("0.5")) == q + Fraction(1, 2)
    assert (q + p).eval(3, Fraction(1, 2)) == Fraction(7, 2)


def test_unit_inverse():
    u = LaurentQP.monomial(Fraction(3, 2), 2, -1)
    assert u.is_unit()
    assert u * u.unit_inverse() == one
    assert (q - q**-1).is_unit() is False
    with pytest.raises(ValueError):
        (q + p).unit_inverse()


def test_unit_inverse_of_int_coefficient_is_exact():
    inverse = (2 * q).unit_inverse()
    ((exps, coeff),) = inverse.terms().items()
    assert exps == (-1, 0)
    assert type(coeff) is Fraction and coeff == Fraction(1, 2)
    ((_, coeff),) = (-q).unit_inverse().terms().items()
    assert type(coeff) is int and coeff == -1


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        LaurentQP({(0, 0): 0.5})
    with pytest.raises(TypeError):
        LaurentQP.const(1.0)
    with pytest.raises(TypeError):
        q * 0.5


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentQP({(0, 0): True}),
        lambda: LaurentQP({(1, 0): False}),
        lambda: LaurentQP.const(True),
        lambda: LaurentQP.monomial(True, 1, 0),
        lambda: q**True,
        lambda: q**False,
        lambda: q.eval(True, 1),
        lambda: q.eval(1, True),
        lambda: q.subs_p(True),
        lambda: q + True,
        lambda: True - q,
        lambda: q * True,
        # an int subclass is refused as a bool is: an exact number is
        # exactly an int or a Fraction
        lambda: LaurentQP({(0, 0): K.TWO}),
        lambda: LaurentQP.const(K.TWO),
        lambda: LaurentQP.monomial(K.TWO, 1, 0),
        lambda: q**K.TWO,
        lambda: q.eval(K.TWO, 1),
        lambda: q.eval(1, K.TWO),
        lambda: q.subs_p(K.TWO),
        lambda: q + K.TWO,
        lambda: K.TWO - q,
        lambda: q * K.TWO,
        lambda: compose_sum([(K.TWO, permutation_op(2))]),
        lambda: K.TWO * permutation_op(2),
        lambda: check_quadratic(2, K.ONE, 1),
    ],
)
def test_bool_is_not_an_exact_number(build):
    # one rule for every door a number comes in by: a bool is not read as 1
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentQP({(K.ONE, 0): 1}),
        lambda: TensorOp(K.TWO, 2),
        lambda: TensorOp(2, 2, {((K.ONE, 2), (2, 1)): 1}),
        lambda: g_op(3).apply(K.ONE, 2),
        lambda: compose_sum([(1, (permutation_op(2), K.TWELVE))]),
        lambda: IntWindow(K.ONE, 2, 2),
    ],
)
def test_int_subclass_is_not_an_int_at_any_integer_door(build):
    # the integer doors (exponent key, rank, index, word place, oracle
    # bound) read an int as the exact-number rule does: exactly an int
    with pytest.raises(TypeError):
        build()


def test_exact_numbers_still_accepted():
    assert LaurentQP({(0, 0): Fraction(4, 2)}).terms() == {(0, 0): 2}
    assert type(LaurentQP.const(Fraction(4, 2)).constant_value()) is int
    assert q**0 == one and q ** Fraction(2) == q * q
    assert (q + 1 == 1 + q) and (q == "q") is False and q != None  # noqa: E711
    assert q.eval(Fraction(1, 2), 3) == Fraction(1, 2)


@pytest.mark.parametrize("exps", [(1.5, 0), (0, 0.7), (1.0, 0), (Fraction(1), 0), (True, 0)])
def test_non_int_exponent_rejected(exps):
    # int(1.5) would silently give q, and True would read as q; exponents
    # are exact integers or nothing.
    with pytest.raises(TypeError):
        LaurentQP({exps: 1})


def test_non_int_monomial_exponent_rejected():
    with pytest.raises(TypeError):
        LaurentQP.monomial(1, 0.7)
    with pytest.raises(TypeError):
        LaurentQP.monomial(1, 0, 2.0)


def test_power_squares_no_further_than_the_top_bit(monkeypatch):
    # x ** k makes one product per set bit and one squaring per bit below
    # the top one, the first product being 1 * x
    x = q + 1
    expected = [one]
    for _ in range(64):
        expected.append(expected[-1] * x)
    multiply, calls = LaurentQP.__mul__, []

    def counting(self, other):
        calls.append(None)
        return multiply(self, other)

    monkeypatch.setattr(LaurentQP, "__mul__", counting)
    for k in range(1, 65):
        calls.clear()
        assert x**k == expected[k]
        assert len(calls) == bin(k).count("1") + k.bit_length() - 1


def test_negative_powers_of_non_units_rejected():
    with pytest.raises(ValueError):
        (q + p) ** -1


def test_subs_p_collapses_p_exponents():
    x = q * p**-1 + (q - q**-1) * p**2
    collapsed = x.subs_p(1)
    assert collapsed == q + (q - q**-1)
    assert all(b == 0 for (_, b) in collapsed.terms())


def test_canonical_form_idempotent():
    raw = {(1, 0): Fraction(1), (0, 0): Fraction(0), (2, 2): Fraction(0)}
    once = LaurentQP(raw)
    twice = LaurentQP(once.terms())
    assert once == twice
    assert once.terms() == {(1, 0): Fraction(1)}


def test_json_round_trip_sorted():
    x = q**2 - q**-2 + LaurentQP.monomial(Fraction(5, 3), 0, 1)
    obj = x.to_json_obj()
    assert obj == [
        {"q": -2, "p": 0, "coeff": "-1/1"},
        {"q": 0, "p": 1, "coeff": "5/3"},
        {"q": 2, "p": 0, "coeff": "1/1"},
    ]
    assert LaurentQP.from_json_obj(obj) == x


def test_json_coefficient_int_or_num_den_string():
    obj = [{"q": 0, "p": 0, "coeff": 3}, {"q": 1, "p": -1, "coeff": "-6/4"}]
    assert LaurentQP.from_json_obj(obj) == 3 + LaurentQP.monomial(Fraction(-3, 2), 1, -1)


@pytest.mark.parametrize(
    "coeff, error",
    [
        (0.1, TypeError),  # would read as 3602879701896397/36028797018963968
        (1.0, TypeError),
        (True, TypeError),
        (None, TypeError),
        (["1/2"], TypeError),
        ("0.1", ValueError),
        ("1e3", ValueError),
        ("1", ValueError),
        (" 1/2", ValueError),
        ("1/0", ValueError),
        ("1/-2", ValueError),
    ],
)
def test_json_coefficient_rejects_everything_else(coeff, error):
    with pytest.raises(error):
        LaurentQP.from_json_obj([{"q": 0, "p": 0, "coeff": coeff}])


def test_json_repeated_term_rejected():
    # the last of two (0, 0) terms used to win, reading 1/2 instead of 1
    half = {"q": 0, "p": 0, "coeff": "1/2"}
    with pytest.raises(ValueError, match="repeated"):
        LaurentQP.from_json_obj([half, half])
    with pytest.raises(ValueError, match="repeated"):
        LaurentQP.from_json_obj([{"q": 1, "p": -1, "coeff": 3}, half, {"q": 1, "p": -1, "coeff": 3}])
    both = LaurentQP.from_json_obj([half, {"q": 0, "p": 1, "coeff": "1/2"}])
    assert both == LaurentQP({(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})


def test_json_float_exponent_rejected():
    with pytest.raises(TypeError):
        LaurentQP.from_json_obj([{"q": 1.0, "p": 0, "coeff": "1/1"}])
    # a JSON true is a bool, not the exponent 1
    with pytest.raises(TypeError):
        LaurentQP.from_json_obj([{"q": True, "p": 0, "coeff": 1}])


def test_str_rendering():
    assert str(q - q**-1) == "q - q^-1"
    assert str(zero) == "0"
    assert str(LaurentQP.monomial(1, 1, -1)) == "q*p^-1"
    assert str(LaurentQP.const(Fraction(-3, 2))) == "-3/2"


@given(laurents, laurents, laurents)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(laurents, laurents, nonzero_points)
def test_eval_is_ring_homomorphism(x, y, point):
    qv, pv = point
    assert (x * y).eval(qv, pv) == x.eval(qv, pv) * y.eval(qv, pv)
    assert (x + y).eval(qv, pv) == x.eval(qv, pv) + y.eval(qv, pv)


@given(laurents)
def test_normalization_idempotent(x):
    assert LaurentQP(x.terms()) == x


def _assert_canonical(x):
    for coeff in x.terms().values():
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)


def _reference(raw):
    return {exps: Fraction(c) for exps, c in raw.items() if c}


def _reference_mul(x, y):
    acc = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            key = (a1 + a2, b1 + b2)
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return {exps: c for exps, c in acc.items() if c}


def _reference_add(x, y, sign=1):
    acc = dict(x)
    for exps, c in y.items():
        acc[exps] = acc.get(exps, Fraction(0)) + sign * c
    return {exps: c for exps, c in acc.items() if c}


@given(mixed_term_dicts, mixed_term_dicts, st.integers(0, 3))
def test_mixed_coefficients_canonical_and_match_fraction_reference(raw_x, raw_y, k):
    x, y = LaurentQP(raw_x), LaurentQP(raw_y)
    ref_x, ref_y = _reference(raw_x), _reference(raw_y)
    ref_pow = {(0, 0): Fraction(1)}
    for _ in range(k):
        ref_pow = _reference_mul(ref_pow, ref_x)
    cases = [
        (x, ref_x),
        (x + y, _reference_add(ref_x, ref_y)),
        (x - y, _reference_add(ref_x, ref_y, sign=-1)),
        (-x, _reference_add({}, ref_x, sign=-1)),
        (x * y, _reference_mul(ref_x, ref_y)),
        (x**k, ref_pow),
    ]
    if x.is_unit():
        cases.append((x**-k * x**k, {(0, 0): Fraction(1)}))
    for value, expected in cases:
        _assert_canonical(value)
        assert value.terms() == expected


def _float_sources(tree: ast.AST):
    """(enclosing qualified name, what) for each float-producing node:
    a float or complex literal, true division, a call of float or complex,
    a call through the time module or of round, and a math import."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((scope, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((scope, "/"))
        elif isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if func in ("float", "complex", "round") or func.startswith(("time.", "math.")):
                found.append((scope, f"call {func}"))
        elif isinstance(node, ast.Import):
            found.extend((scope, f"import {a.name}") for a in node.names if a.name in ("math", "time"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "time"):
            found.extend((scope, f"from {node.module} import {a.name}") for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_no_float_anywhere_in_the_package():
    # the exact-number rule enforced on the source: the only float a
    # module makes is the timing metadata of a check report
    found = set()
    for path in sorted(pathlib.Path(cgybe.__file__).parent.glob("*.py")):
        found |= {(path.stem, *item) for item in _float_sources(ast.parse(path.read_text()))}
    assert found == {
        ("kronecker", "", "from math import lcm"),
        ("tensor", "", "from math import lcm"),
        ("verify", "", "import time"),
        ("verify", "run_checks", "call time.perf_counter"),
        ("verify", "CheckReport.to_json_obj", "call round"),
    }
    # and the scan sees what it looks for
    bad = "import math\nfrom math import sqrt\nx = 0.5 + 1j\nx /= 2 / 3\nfloat(x)\ncomplex(x)\nmath.e(1)"
    assert sorted(what for _, what in _float_sources(ast.parse(bad))) == [
        "/", "/", "call complex", "call float", "call math.e",
        "from math import sqrt", "import math", "literal 0.5", "literal 1j",
    ]
