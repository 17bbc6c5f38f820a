import ast
import enum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley8.polynomial import MAX_EXPONENT, ExponentOverflow, Polynomial, as_fraction, x

exponents = st.tuples(*[st.integers(0, 2) for _ in range(8)])
coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
polys = st.dictionaries(exponents, coefficients, max_size=4).map(Polynomial)


def test_zero_coefficients_pruned():
    p = Polynomial({(1,) + (0,) * 7: 0})
    assert p.is_zero()
    assert not p


def test_duplicate_exponents_accumulate():
    key = (2,) + (0,) * 7
    assert Polynomial({key: Fraction(1, 2)}) + Polynomial({key: Fraction(1, 2)}) == Polynomial({key: 1})


def test_constant_helpers():
    assert Polynomial.one().constant_value() == 1
    assert Polynomial.constant(Fraction(3, 4)).is_constant()
    with pytest.raises(ValueError):
        x(0).constant_value()


class One(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("e", [-1, True, One.ONE, 1.0], ids=["negative", "bool", "IntEnum", "float"])
def test_bad_exponent_rejected(e):
    # struct packs anything with __index__; an exponent is exactly a non-negative int
    exp = (e,) + (0,) * 7
    for read in (
        lambda: Polynomial({exp: 1}),
        lambda: Polynomial.from_quotients([(exp, 1, 1)]),
        lambda: x(0).coefficient(exp),
    ):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            read()


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_derivation_product_rule(p, q):
    for i in (0, 3, 7):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_diff_example():
    p = x(0) * x(0) * x(1)  # x0^2 x1
    assert p.diff(0) == 2 * x(0) * x(1)
    assert p.diff(1) == x(0) * x(0)
    assert p.diff(2).is_zero()


def test_evaluate_exact():
    p = x(0) * x(0) + Polynomial.constant(Fraction(1, 3))
    point = [Fraction(1, 2)] + [0] * 7
    assert p.evaluate(point) == Fraction(1, 4) + Fraction(1, 3)


def test_evaluate_needs_eight_coordinates():
    with pytest.raises(ValueError):
        Polynomial.one().evaluate([1, 2, 3])


def linear_images(rows):
    """x_i -> sum_j rows[i][j] * x_j as eight polynomials."""
    return [sum((r * x(j) for j, r in enumerate(row)), Polynomial.zero()) for row in rows]


def test_compose_linear_identity():
    rows = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    p = x(0) * x(5) + 3 * x(2)
    assert p.compose(linear_images(rows)) == p


def test_compose_linear_scaling_and_mixing():
    rows = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    rows[0][0] = Fraction(2)
    rows[1][0] = Fraction(1)  # row i is the image of x_i
    p = x(0)
    assert p.compose(linear_images(rows)) == 2 * x(0)
    q = x(1)
    assert q.compose(linear_images(rows)) == x(0) + x(1)


def test_compose_substitutes_polynomials():
    images = [x(i) for i in range(8)]
    images[0] = x(1) * x(1) + Fraction(1, 2)
    images[3] = Polynomial.constant(2)
    p = x(0) * x(0) * x(3) + Fraction(1, 3) * x(5)
    assert p.compose(images) == 2 * (x(1) ** 4 + x(1) * x(1) + Fraction(1, 4)) + Fraction(1, 3) * x(5)
    assert Polynomial.constant(Fraction(-7, 2)).compose(images) == Fraction(-7, 2)
    assert Polynomial.zero().compose(images).is_zero()


def test_compose_takes_rational_images():
    p = x(0) * x(1) + 3
    assert p.compose([1] * 8) == 4
    assert p.compose([Fraction(1, 2), x(2)] + [0] * 6) == Fraction(1, 2) * x(2) + 3
    # an inexact image is refused, even for a variable that p does not contain
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        p.compose([x(0)] * 7 + [1.5])


def test_compose_needs_eight_images():
    for n in (0, 7, 9):
        with pytest.raises(ValueError, match="compose needs 8 images"):
            x(0).compose([x(0)] * n)


def test_compose_past_max_exponent_overflows():
    half = MAX_EXPONENT // 2 + 1
    images = [x(i) for i in range(8)]
    images[2] = images[3] = Polynomial.variable(4, half)
    # x2 alone substitutes to x4^half; x2^2 and x2 x3 would need x4^(2 half), above the cap
    assert x(2).compose(images) == Polynomial.variable(4, half)
    with pytest.raises(ExponentOverflow):
        (x(2) * x(2)).compose(images)
    with pytest.raises(ExponentOverflow):
        (x(2) * x(3) + 1).compose(images)


def count_sums(monkeypatch) -> list[int]:
    """Count the calls of ``Polynomial.sum_of_products`` from now on."""
    calls = []
    original = Polynomial.sum_of_products

    def counting(triples):
        calls.append(1)
        return original(triples)

    monkeypatch.setattr(Polynomial, "sum_of_products", staticmethod(counting))
    return calls


@pytest.mark.parametrize("e", [1, 2, 3, 255, 256, 4097, 16000, MAX_EXPONENT])
def test_power_squares_and_multiplies(e, monkeypatch):
    bound = 2 * (e - 1).bit_length()  # 2 ceil(log2 e)
    calls = count_sums(monkeypatch)
    assert x(0) ** e == Polynomial.variable(0, e)
    assert len(calls) <= bound
    calls.clear()
    identity = [x(i) for i in range(8)]
    assert Polynomial.variable(0, e).compose(identity) == Polynomial.variable(0, e)
    assert len(calls) <= max(bound, 1)  # the powers, then the one sum


def test_compose_builds_each_power_once(monkeypatch):
    images = [x(i) + 1 for i in range(8)]
    p = x(0) ** 40 * x(1) + x(0) ** 40 * x(2) + x(0) ** 40
    expected = sum(((x(0) + 1) ** 40 * g for g in (x(1) + 1, x(2) + 1, 1)), Polynomial.zero())
    calls = count_sums(monkeypatch)
    assert p.compose(images) == expected
    # (x0 + 1)^40 once (5 squares, 1 multiply), then the rests and the one sum
    assert len(calls) == 6 + 1


def test_lone_product_with_a_constant_factor_is_a_scaled_copy():
    p = x(0) + x(1)
    half = Polynomial.constant(Fraction(1, 2))
    assert Polynomial.sum_of_products([(-4, p, half)]) == p * -2
    assert Polynomial.sum_of_products([(3, half, p)]) == p * Fraction(3, 2)
    # a unit factor, on either side, keeps the polynomial itself
    assert Polynomial.sum_of_products([(-1, p, Polynomial.constant(-1))]) is p
    assert Polynomial.sum_of_products([(1, Polynomial.one(), p)]) is p
    five = Polynomial.constant(5)
    assert Polynomial.sum_of_products([(-1, five, Polynomial.constant(-1))]) is five
    assert Polynomial.sum_of_products([(2, p, Polynomial.zero())]) == Polynomial.zero()
    assert Polynomial.sum_of_products([(5, half, Polynomial.constant(3))]) == Fraction(15, 2)
    # past the cap a lone product of two non-constants still overflows
    top = Polynomial.variable(3, MAX_EXPONENT)
    with pytest.raises(ExponentOverflow):
        Polynomial.sum_of_products([(1, top, x(3))])


def test_power_edge_cases():
    assert x(0) ** 0 == Polynomial.one()
    assert Polynomial.zero() ** 0 == Polynomial.one()
    assert Polynomial.zero() ** 5 == Polynomial.zero()
    assert Polynomial.constant(Fraction(-1, 2)) ** 3 == Fraction(-1, 8)
    with pytest.raises(ValueError, match="negative power"):
        x(0) ** -1
    # the top bit is never squared past: x^MAX_EXPONENT is reached, one more overflows
    with pytest.raises(ExponentOverflow):
        x(0) ** (MAX_EXPONENT + 1)
    # a power inside compose past the cap overflows too
    images = [x(i) for i in range(8)]
    images[2] = Polynomial.variable(4, MAX_EXPONENT // 3 + 1)
    with pytest.raises(ExponentOverflow):
        Polynomial.variable(2, 3).compose(images)


def test_diff_index_range():
    p = x(0) * x(7)
    assert p.diff(0) == x(7) and p.diff(7) == x(0)
    for i in (-1, 8, -8):
        with pytest.raises(ValueError, match=f"variable index {i} outside 0..7"):
            p.diff(i)


@pytest.mark.parametrize("i", [True, False, 1.0])
def test_variable_refuses_a_bool(i):
    with pytest.raises(ValueError, match=f"variable index {i} outside 0..7"):
        Polynomial.variable(i)


@pytest.mark.parametrize("power", [True, False, 1.5])
def test_variable_refuses_a_bool_power(power):
    with pytest.raises(ValueError, match=f"power must be an integer, not the {type(power).__name__} {power}"):
        Polynomial.variable(2, power)


@pytest.mark.parametrize("power", [True, False, 1.5])
def test_power_refuses_a_non_integer(power):
    with pytest.raises(ValueError, match=f"power must be an integer, not the {type(power).__name__} {power}"):
        x(0) ** power


@pytest.mark.parametrize("i", [True, False, 1.0])
def test_diff_refuses_a_bool(i):
    with pytest.raises(ValueError, match=f"variable index {i} outside 0..7"):
        (x(0) ** 2 * x(1)).diff(i)


@pytest.mark.parametrize(
    "num, den, error, message",
    [
        (0.5, 1, TypeError, "got float and int"),
        (Fraction(1, 2), 1, TypeError, "got Fraction and int"),
        (True, 1, TypeError, "got bool and int"),
        (1, 1.0, TypeError, "got int and float"),
        (1, 0, ValueError, "zero denominator"),
    ],
)
def test_from_quotients_takes_int_quotients_only(num, den, error, message):
    # a Fraction numerator stored as given would be unequal to the same constant, and + would raise inside gcd
    with pytest.raises(error, match=message):
        Polynomial.from_quotients([((0,) * 8, num, den)])


@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_not_an_exact_rational(value):
    refused = "expected an exact rational, got bool"
    with pytest.raises(TypeError, match=refused):
        as_fraction(value)
    with pytest.raises(TypeError, match=refused):
        Polynomial({(0,) * 8: value})
    with pytest.raises(TypeError, match=refused):
        Polynomial.constant(value)
    with pytest.raises(TypeError, match=refused):
        x(0).evaluate([value] * 8)
    with pytest.raises(TypeError, match=refused):
        x(0).compose([value] * 8)
    with pytest.raises(TypeError, match=refused):
        x(0) + value
    with pytest.raises(TypeError, match=refused):
        value - x(0)
    with pytest.raises(TypeError, match="unsupported operand"):
        x(0) * value
    with pytest.raises(TypeError, match="unsupported operand"):
        value * x(0)
    # no bool equals a polynomial, not even the constant it would stand for
    assert Polynomial.constant(int(value)).__eq__(value) is NotImplemented
    assert Polynomial.constant(int(value)) != value and Polynomial.constant(int(value)) == int(value)

def test_variable_mask_marks_the_nonzero_derivatives():
    p = x(0) ** 2 * x(5) + 3 + Polynomial.variable(7, MAX_EXPONENT)
    assert p.variable_mask() == 1 | 1 << 5 | 1 << 7
    assert [i for i in range(8) if p.diff(i)] == [0, 5, 7]
    assert Polynomial.constant(4).variable_mask() == Polynomial.zero().variable_mask() == 0


def test_abs_coeff_sum():
    p = Polynomial({(1,) + (0,) * 7: Fraction(-2, 3), (0,) * 8: 2})
    assert p.abs_coeff_sum() == Fraction(8, 3)


SRC = Path(__file__).resolve().parents[1] / "src"


def _other_number_rules(path: Path) -> list[str]:
    """Each place in one module that reads a rational or an integer argument by a rule of its own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if path.name != "polynomial.py" and (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_quotient"
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "_quotient"
        ):
            found.append(f"{where}: a _quotient outside polynomial.py")
        if (
            isinstance(node, ast.Attribute) and node.attr == "index"
            and isinstance(node.value, ast.Name) and node.value.id == "operator"
            or isinstance(node, ast.ImportFrom) and node.module == "operator"
            and any(alias.name == "index" for alias in node.names)
        ):
            found.append(f"{where}: operator.index")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1:2]
            kinds = kinds[0].elts if kinds and isinstance(kinds[0], ast.Tuple) else kinds
            if any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds):
                found.append(f"{where}: isinstance(..., bool)")
    return found


def test_exact_numbers_have_one_rule():
    """A rational is read by ``polynomial._quotient`` alone and an integer argument is ``type(x) is int``."""
    paths = sorted(SRC.rglob("*.py"))
    assert any(path.name == "polynomial.py" for path in paths)
    assert [place for path in paths for place in _other_number_rules(path)] == []


@pytest.mark.parametrize(
    "source",
    [
        "def _quotient(value):\n    return value, 1\n",
        "import operator\nn = operator.index(3)\n",
        "from operator import index\n",
        "ok = isinstance(3, bool)\n",
        "ok = isinstance(3, (int, bool))\n",
    ],
)
def test_the_drift_guard_sees_each_other_rule(tmp_path, source):
    path = tmp_path / "linalg.py"
    path.write_text(source, encoding="utf-8")
    assert len(_other_number_rules(path)) == 1
