"""Reference kernel for the differential tests of ``cayley8.polynomial``.

This is the tuple-and-``Fraction`` implementation that ``cayley8.polynomial``
replaced: terms map exponent tuples ``(e0, ..., e7)`` to nonzero
``fractions.Fraction`` coefficients, and every ring operation works term by
term on those.  It is slow and simple on purpose; ``test_differential.py``
checks the packed kernel against it exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from cayley8.multiindex import DIM

Exponents = tuple[int, ...]

ZERO_EXP: Exponents = (0,) * DIM

Rational = Fraction | int


def as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Polynomial:
    """Finitely supported map from exponent tuples to rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, Rational] | None = None):
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != DIM or any(e < 0 or not isinstance(e, int) for e in exp):
                    raise ValueError(f"bad exponent tuple {exp!r}")
                c = as_fraction(coeff)
                if c:
                    acc = clean.get(exp)
                    total = c if acc is None else acc + c
                    if total:
                        clean[exp] = total
                    elif acc is not None:
                        del clean[exp]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: Rational) -> "Polynomial":
        return cls({ZERO_EXP: as_fraction(value)})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def variable(cls, i: int, power: int = 1) -> "Polynomial":
        if not 0 <= i < DIM:
            raise ValueError(f"variable index {i} outside 0..{DIM - 1}")
        exp = tuple(power if j == i else 0 for j in range(DIM))
        return cls({exp: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ZERO_EXP in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(ZERO_EXP, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.constant(other).terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Polynomial | Rational") -> "Polynomial":
        other = as_polynomial(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            total = out.get(exp, Fraction(0)) + c
            if total:
                out[exp] = total
            else:
                out.pop(exp, None)
        result = Polynomial.__new__(Polynomial)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        result = Polynomial.__new__(Polynomial)
        result.terms = {exp: -c for exp, c in self.terms.items()}
        return result

    def __sub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return self + (-as_polynomial(other))

    def __rsub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return as_polynomial(other) + (-self)

    def __mul__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            result = Polynomial.__new__(Polynomial)
            result.terms = {} if not c else {exp: c * v for exp, v in self.terms.items()}
            return result
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                total = out.get(exp, Fraction(0)) + ca * cb
                if total:
                    out[exp] = total
                else:
                    out.pop(exp, None)
        result = Polynomial.__new__(Polynomial)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.one()
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to coordinate ``i``."""
        out: dict[Exponents, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                lowered = exp[:i] + (e - 1,) + exp[i + 1 :]
                out[lowered] = out.get(lowered, Fraction(0)) + c * e
        result = Polynomial.__new__(Polynomial)
        result.terms = {k: v for k, v in out.items() if v}
        return result

    def evaluate(self, point: Iterable[Rational]) -> Fraction:
        xs = [as_fraction(p) for p in point]
        if len(xs) != DIM:
            raise ValueError(f"evaluation point must have {DIM} coordinates")
        total = Fraction(0)
        for exp, c in self.terms.items():
            value = c
            for x, e in zip(xs, exp):
                if e:
                    value *= x**e
            total += value
        return total

    def compose_linear(self, rows: list[list[Fraction]]) -> "Polynomial":
        """Substitute ``x_i -> sum_j rows[i][j] * x_j``."""
        images = [
            Polynomial({tuple(1 if m == j else 0 for m in range(DIM)): rows[i][j] for j in range(DIM) if rows[i][j]})
            for i in range(DIM)
        ]
        out = Polynomial.zero()
        for exp, c in self.terms.items():
            term = Polynomial.constant(c)
            for i, e in enumerate(exp):
                if e:
                    term = term * images[i] ** e
            out = out + term
        return out

    # -- inspection --------------------------------------------------------

    def coefficient(self, exp: Exponents) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def abs_coeff_sum(self) -> Fraction:
        """L1 mass of the coefficients; zero iff the polynomial is zero."""
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            monomial = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e
            )
            if monomial:
                parts.append(f"{c}*{monomial}" if c != 1 else monomial)
            else:
                parts.append(str(c))
        return " + ".join(parts)


def as_polynomial(value: "Polynomial | Rational") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


def x(i: int) -> Polynomial:
    """Shorthand for the coordinate function ``x_i``."""
    return Polynomial.variable(i)
