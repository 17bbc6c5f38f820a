"""Exact polynomials in the eight coordinate functions of R^8.

A polynomial is stored as integer numerators over one shared positive
denominator, keyed by packed exponent vectors (the layout of Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007, also used by FLINT's ``fmpz_mpoly``):

- a monomial ``x0^e0 ... x7^e7`` is one int holding eight 16-bit fields,
  ``e0`` in the most significant one, so integer order of keys is tuple
  order of exponents and a monomial product is one integer addition;
- the top bit of every field is a guard bit: exponents are capped at
  :data:`MAX_EXPONENT`, two capped fields never carry into their neighbour,
  and one ``key & GUARD`` after a product detects a field above the cap;
- the form is canonical: no numerator is zero, the gcd of the numerators
  and the denominator is 1, and the zero polynomial has denominator 1, so
  equal polynomials have equal fields.

Ring operations and derivatives run on ints alone, in three accumulation
loops.  :meth:`Polynomial.linear_sum` holds the linear one:
``sum(c * p) / den`` over ``(c, p)`` pairs, ``c`` an int, scales each
``p`` into one numerator dict over one common denominator, with one zero
filter and one gcd; a scaled copy adds no exponents, so it needs no guard
check, and a lone pair is ``p`` scaled, no loop at all.  ``a + b`` and
``a - b`` are sums of two pairs, and the tensor kernels call it once per
output coefficient of their linear work (``+``, ``-``,
``apply_matrix``, the constructor and the document loader).
:meth:`Polynomial.sum_of_products` holds the products:
``sum(sign * a * b)`` over many pairs goes into one numerator dict over one
common denominator, with one guard check and one gcd.  A triple with a
constant factor is a scaled copy of the other factor: it adds no keys, a
sum of such copies needs no guard check, and a sum of one such triple is
the other factor scaled, no loop at all.  A triple ``(sign, p, p)`` is a
square: each cross pair of terms is multiplied once and doubled, so
``p * p``, ``p ** n`` and the norms ``inner(t, t)`` take about half the
products: n(n+1)/2 term products of an n-term ``p`` instead of n^2.
``a * b`` is the sum of one product.  The tensor products call it once per
output coefficient, and :meth:`Polynomial.compose`, the
substitution ``x_i -> images[i]``, calls it once after building each
distinct power ``images[i] ** e`` by square and multiply.
:meth:`Polynomial.sum_of_derivatives` holds the derivatives:
``sum(sign * d_i p)`` over ``(sign, i, p)`` triples lowers field ``i`` of
each term of ``p`` into one numerator dict over one common denominator,
with one zero filter and one gcd; lowering a field adds no exponents, so it
needs no guard check.  ``diff(i)`` is the sum of one triple, and
``exterior_derivative`` calls it once per output coefficient.  ``terms`` is a
read-only view from exponent tuples to ``fractions.Fraction``, built on each
call and read by no library code.  No floating point appears anywhere.

Both rules for exact numbers live here.  An exact rational (a coefficient,
entry, scalar or point) is an ``int`` that is not a ``bool``, or a
``Fraction``, read only through :func:`_quotient`; an integer argument (an
index, degree, size, count or seed) is exactly an ``int``.  The
constructors, ``from_quotients``, ``constant`` and :func:`as_fraction` check
their input; the kernels ``linear_sum``, ``sum_of_products``,
``sum_of_derivatives`` and ``_scaled`` trust an int ``c`` or ``sign``, an
index ``i`` in 0..7 and a positive ``den``.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .multiindex import DIM

Exponents = tuple[int, ...]

Rational = Fraction | int

FIELD_BITS = 16
#: Largest exponent of one coordinate; a field's top bit is its guard bit.
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_MASK = (1 << FIELD_BITS) - 1
_SHIFTS = tuple(FIELD_BITS * (DIM - 1 - i) for i in range(DIM))  # e0 most significant
GUARD = sum(1 << (shift + FIELD_BITS - 1) for shift in _SHIFTS)
_FIELDS = struct.Struct(f">{DIM}H")  # the key as big-endian unsigned 16-bit fields
_INT = {int}  # the entry types of an exponent tuple or index list, compared as a set


class ExponentOverflow(ValueError):
    """An exponent above :data:`MAX_EXPONENT`, given or produced by a product."""


def _quotient(value: Rational) -> tuple[int, int]:
    """``(num, den)`` of an exact rational, ``den`` positive; a bool, a float or any other value is a ``TypeError``."""
    if value.__class__ is int:
        return value, 1
    if isinstance(value, (int, Fraction)) and value.__class__ is not bool:
        return value.numerator, value.denominator  # an int subclass gives a plain int
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _checked(num: int, den: int) -> tuple[int, int]:
    """``(num, den)`` if both are exactly ints and ``den`` is nonzero: the check of both ``from_quotients``."""
    if type(num) is not int or type(den) is not int:
        raise TypeError(f"a quotient needs int num and den, got {type(num).__name__} and {type(den).__name__}")
    if not den:
        raise ValueError("zero denominator")
    return num, den


def as_fraction(value: Rational) -> Fraction:
    """``value`` as a ``Fraction``, read through :func:`_quotient`."""
    return value if isinstance(value, Fraction) else Fraction(*_quotient(value))


def _check_power(n: int) -> None:
    if type(n) is not int:
        raise ValueError(f"power must be an integer, not the {type(n).__name__} {n!r}")


def _pack(exp: Iterable[int]) -> int:
    """The key of eight exponents, each exactly an ``int`` in 0..MAX_EXPONENT.

    ``struct`` takes anything with ``__index__``, so the entry types are
    checked apart: a bool or an ``IntEnum`` exponent is a bad tuple too.
    """
    exp = tuple(exp)
    ints = {*map(type, exp)} == _INT
    try:
        key = int.from_bytes(_FIELDS.pack(*exp), "big")
    except struct.error:  # a wrong length, a non-integer or a field outside 0..65535
        key = None
    if key is None or key & GUARD or not ints:
        if ints and len(exp) == DIM and min(exp) >= 0:
            raise ExponentOverflow(f"exponent {max(exp)} above MAX_EXPONENT = {MAX_EXPONENT}")
        raise ValueError(f"bad exponent tuple {exp!r}")
    return key


def _unpack(key: int) -> Exponents:
    return _FIELDS.unpack(key.to_bytes(_FIELDS.size, "big"))


def _wrap(nums: dict[int, int], den: int) -> "Polynomial":
    """A polynomial from fields that are already canonical."""
    out = Polynomial.__new__(Polynomial)
    out._nums = nums
    out._den = den
    return out


def _reduced(nums: dict[int, int], den: int) -> "Polynomial":
    """A polynomial from nonzero numerators over a positive denominator."""
    if not nums:
        return _wrap(nums, 1)
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    return _wrap(nums, den)


def _summed(packed: list[tuple[int, int, int]]) -> "Polynomial":
    """Sum of ``num/den`` times monomial ``key`` over ``(key, num, den)`` triples; ``den`` nonzero."""
    den = 1
    for _, _, d in packed:
        if den % d:
            den = lcm(den, d)
    nums: dict[int, int] = {}
    for key, n, d in packed:
        nums[key] = nums.get(key, 0) + n * (den // d)  # a negative d flips the sign
    return _reduced({k: v for k, v in nums.items() if v}, den)


class Polynomial:
    """Finitely supported map from exponent tuples to rationals."""

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Exponents, Rational] | None = None):
        made = _summed([(_pack(exp), *_quotient(c)) for exp, c in (terms or {}).items()])
        self._nums = made._nums
        self._den = made._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_quotients(cls, quotients: Iterable[tuple[Exponents, int, int]]) -> "Polynomial":
        """Sum of ``num/den * x^exp`` over ``(exp, num, den)`` triples, ``num`` and ``den`` ints, ``den`` nonzero."""
        return _summed([(_pack(exp), *_checked(n, d)) for exp, n, d in quotients])

    @staticmethod
    def linear_sum(pairs: Sequence[tuple[int, "Polynomial"]], den: int = 1) -> "Polynomial":
        """``sum(c * p) / den`` over a sequence of ``(c, p)``, ``c`` an int and ``den`` positive.

        The integer kernel of every linear sum: the numerators of each ``p``
        scaled into one dict over the lcm of the denominators, then one
        zero filter and one gcd.  A scaled copy adds no exponents, so no
        guard check is needed.  A lone pair is ``p`` scaled, which is ``p``
        itself (or its negation) when ``c / den`` is 1 (or -1).
        """
        if len(pairs) < 2:
            return pairs[0][1]._scaled(pairs[0][0], den) if pairs else _wrap({}, 1)
        common = 1
        for _, p in pairs:
            if common % p._den:
                common = lcm(common, p._den)
        c, p = pairs[0]  # the first pair is copied, the rest are added in
        scale = c * (common // p._den)
        out = dict(p._nums) if scale == 1 else {k: v * scale for k, v in p._nums.items()}
        get = out.get
        for c, p in pairs[1:]:
            scale = c * (common // p._den)
            for k, v in p._nums.items():
                out[k] = get(k, 0) + v * scale
        if 0 in out.values():
            out = {k: v for k, v in out.items() if v}
        return _reduced(out, common * den)

    @staticmethod
    def sum_of_products(triples: Sequence[tuple[int, "Polynomial", "Polynomial"]]) -> "Polynomial":
        """``sum(sign * a * b)`` over a sequence of ``(sign, a, b)``, ``sign`` an int.

        The one monomial-product loop of the class: every product goes into
        one numerator dict over the lcm of the denominators, then one guard
        check covers every key produced (also keys that later cancel) and
        one gcd reduces the sum.  A triple with a constant factor adds a
        scaled copy of the other factor at its own keys; only a product of
        two non-constants can pass :data:`MAX_EXPONENT`, so a sum of such
        copies skips the guard check.  A lone such triple is the other
        factor scaled by ``sign`` times the constant: that factor itself
        (or its negation) when the scale is 1 (or -1).  A triple whose two
        factors are one non-constant object is a square: each diagonal pair
        ``(t, t)`` is added once and each cross pair ``(s, t)`` once,
        doubled, instead of twice.  A field ``s + t`` of a cross key is at
        most ``2 * max(s, t)``, that field of a diagonal key, so a cross
        pair passes the cap only where a diagonal pair does too.
        """
        if len(triples) == 1:  # a lone product with a constant factor is a scaled copy
            sign, a, b = triples[0]
            if b.is_constant():
                return a._scaled(sign * b._nums.get(0, 0), b._den)
            if a.is_constant():
                return b._scaled(sign * a._nums.get(0, 0), a._den)
        den = 1
        for _, a, b in triples:
            d = a._den * b._den
            if den % d:
                den = lcm(den, d)
        out: dict[int, int] = {}
        get = out.get
        products = False  # whether some triple multiplied two non-constants
        for sign, a, b in triples:
            scale = sign * den // (a._den * b._den)
            a, b = a._nums, b._nums
            if len(a) < len(b) or len(a) == 1 and 0 in a:
                a, b = b, a
            if len(b) == 1 and 0 in b:  # a constant factor: a scaled copy of a, keys unchanged
                vb = b[0] * scale
                for ka, va in a.items():
                    out[ka] = get(ka, 0) + va * vb
                continue
            products = True
            if a is b:  # a square: each diagonal pair once, each cross pair once and doubled
                items = list(a.items())
                twice = 2 * scale
                for i, (ka, va) in enumerate(items):
                    k = ka + ka
                    out[k] = get(k, 0) + va * va * scale
                    va *= twice
                    for kb, vb in items[i + 1 :]:
                        k = ka + kb
                        out[k] = get(k, 0) + va * vb
                continue
            for kb, vb in b.items():
                vb *= scale
                for ka, va in a.items():
                    k = ka + kb
                    out[k] = get(k, 0) + va * vb
        if products and reduce(or_, out, 0) & GUARD:
            raise ExponentOverflow(f"a product has an exponent above MAX_EXPONENT = {MAX_EXPONENT}")
        if 0 in out.values():
            out = {k: v for k, v in out.items() if v}
        return _reduced(out, den)

    @staticmethod
    def sum_of_derivatives(triples: Sequence[tuple[int, int, "Polynomial"]]) -> "Polynomial":
        """``sum(sign * d_i p)`` over ``(sign, i, p)`` triples, ``sign`` an int and ``i`` in 0..7.

        The one derivative loop of the class: each term ``v x^e`` of ``p``
        with ``e_i > 0`` adds ``sign * e_i * v`` at the key with field ``i``
        lowered, into one numerator dict over the lcm of the denominators,
        then one zero filter and one gcd.  Lowering a field adds no
        exponents, so no guard check is needed.
        """
        den = 1
        for _, _, p in triples:
            if den % p._den:
                den = lcm(den, p._den)
        out: dict[int, int] = {}
        get = out.get
        for sign, i, p in triples:
            shift = _SHIFTS[i]
            step = 1 << shift
            scale = sign * (den // p._den)
            for k, v in p._nums.items():
                e = k >> shift & _MASK
                if e:
                    k -= step
                    out[k] = get(k, 0) + v * e * scale
        if 0 in out.values():
            out = {k: v for k, v in out.items() if v}
        return _reduced(out, den)

    @classmethod
    def zero(cls) -> "Polynomial":
        return _wrap({}, 1)

    @classmethod
    def constant(cls, value: Rational) -> "Polynomial":
        num, den = _quotient(value)
        return _wrap({0: num}, den) if num else _wrap({}, 1)

    @classmethod
    def one(cls) -> "Polynomial":
        return _wrap({0: 1}, 1)

    @classmethod
    def variable(cls, i: int, power: int = 1) -> "Polynomial":
        if type(i) is not int or not 0 <= i < DIM:
            raise ValueError(f"variable index {i!r} outside 0..{DIM - 1}")
        _check_power(power)
        return _wrap({_pack(power if j == i else 0 for j in range(DIM)): 1}, 1)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only view, built on each call: exponent tuple to nonzero ``Fraction`` coefficient."""
        den = self._den
        return MappingProxyType({_unpack(k): Fraction(v, den) for k, v in self._nums.items()})

    def quotients(self) -> list[tuple[Exponents, int, int]]:
        """``(exp, num, den)`` per term in exponent order: :meth:`_packed_quotients` unpacked."""
        return [(_unpack(key), n, d) for key, n, d in self._packed_quotients()]

    def _packed_quotients(self) -> list[tuple[int, int, int]]:
        """``(key, num, den)`` per term in key order, which is exponent order, each quotient in lowest terms.

        It serves the document writer and :meth:`quotients` alone; a kernel
        reads the numerators ``_nums`` over the one denominator ``_den``.
        """
        den = self._den
        items = sorted(self._nums.items())
        if den == 1:
            return [(key, v, 1) for key, v in items]
        out = []
        for key, v in items:
            g = gcd(v, den)
            out.append((key, v // g, den // g))
        return out

    def coefficient(self, exp: Exponents) -> Fraction:
        return Fraction(self._nums.get(_pack(exp), 0), self._den)

    def abs_coeff_sum(self) -> Fraction:
        """L1 mass of the coefficients; zero iff the polynomial is zero."""
        return Fraction(sum(map(abs, self._nums.values())), self._den)

    def __repr__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for exp, n, d in self.quotients():
            c = f"{n}/{d}" if d != 1 else str(n)
            monomial = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e
            )
            if monomial:
                parts.append(f"{c}*{monomial}" if (n, d) != (1, 1) else monomial)
            else:
                parts.append(c)
        return " + ".join(parts)

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        nums = self._nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def variable_mask(self) -> int:
        """Bit ``i`` set when ``x_i`` occurs in some term: ``diff(i)`` is nonzero exactly there."""
        fields = reduce(or_, self._nums, 0)
        return sum(1 << i for i, shift in enumerate(_SHIFTS) if fields >> shift & _MASK)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._nums.get(0, 0), self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and other.__class__ is not bool:  # a bool: NotImplemented below
            other = Polynomial.constant(other)
        if isinstance(other, Polynomial):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Polynomial | Rational") -> "Polynomial":
        return Polynomial.linear_sum(((1, self), (1, as_polynomial(other))))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap({k: -v for k, v in self._nums.items()}, self._den)

    def __sub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return Polynomial.linear_sum(((1, self), (-1, as_polynomial(other))))

    def __rsub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return Polynomial.linear_sum(((1, as_polynomial(other)), (-1, self)))

    def __mul__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, (int, Fraction)) and other.__class__ is not bool:  # a bool is no scalar: NotImplemented below
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def _scaled(self, num: int, den: int) -> "Polynomial":
        """``num/den`` times this polynomial, ``den`` positive."""
        if not num:
            return _wrap({}, 1)
        if den == 1 and (num == 1 or num == -1):
            return self if num == 1 else -self
        return _reduced({k: v * num for k, v in self._nums.items()}, self._den * den)

    def __pow__(self, n: int) -> "Polynomial":
        """Square and multiply: at most ``2 * ceil(log2(n))`` products."""
        _check_power(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:  # no square past the top bit, which could pass the cap needlessly
                base = base * base
        return Polynomial.one() if out is None else out

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to coordinate ``i``: :meth:`sum_of_derivatives` of one triple."""
        if type(i) is not int or not 0 <= i < DIM:
            raise ValueError(f"variable index {i!r} outside 0..{DIM - 1}")
        return Polynomial.sum_of_derivatives(((1, i, self),))

    def evaluate(self, point: Iterable[Rational]) -> Fraction:
        xs = [as_fraction(p) for p in point]
        if len(xs) != DIM:
            raise ValueError(f"evaluation point must have {DIM} coordinates")
        total = Fraction(0)
        for key, v in self._nums.items():
            value = v
            for x, e in zip(xs, _unpack(key)):
                if e:
                    value *= x**e
            total += value
        return total / self._den

    def compose(self, images: Sequence["Polynomial | Rational"]) -> "Polynomial":
        """Substitute ``x_i -> images[i]`` for a sequence of eight polynomials or exact rationals.

        Each term ``v x^e`` contributes the triple ``(v, rest, last)`` with
        ``rest * last`` the product of its substituted powers
        ``images[i] ** e_i``, so the whole substitution is one
        :meth:`sum_of_products`; each distinct power is built once.
        """
        if len(images) != DIM:
            raise ValueError(f"compose needs {DIM} images, got {len(images)}")
        images = [as_polynomial(image) for image in images]
        powers: dict[tuple[int, int], Polynomial] = {}
        triples = []
        for key, v in self._nums.items():
            factors = []
            for i, e in enumerate(_unpack(key)):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = images[i] ** e
                    factors.append(powers[i, e])
            *rest, last = factors or [ONE]
            triples.append((v, reduce(mul, rest) if rest else ONE, last))
        return Polynomial.sum_of_products(triples)._scaled(1, self._den)


#: The unit polynomial, the factor of an empty product in :meth:`Polynomial.compose`.
ONE = Polynomial.one()


def as_polynomial(value: "Polynomial | Rational") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


def x(i: int) -> Polynomial:
    """Shorthand for the coordinate function ``x_i``."""
    return Polynomial.variable(i)
