"""The scalar field Q(i): Gaussian rationals with exact arithmetic.

Every scalar in this package is a :class:`GaussianRational`, stored as
three ints ``(a + b*i) / d``.  Values are immutable and normalized on
construction: ``d > 0``, ``gcd(a, b, d) == 1``, and zero is ``(0, 0, 1)``.
So equality is structural, and each operation costs its integer products
plus one ``math.gcd``.  A value with ``b == 0`` hashes like the rational
``a/d``, so it keys a dict the same way as the equal ``int`` or ``Fraction``.
Only this module reads the stored ints: the exact linear algebra moves
between Q(i) and Gaussian-integer pairs through :func:`clear_denominators`
and :func:`from_ints`; elements hold such pairs over one denominator, so
values are formed only at the edges (input, rendering, the case study's
closed forms).  Outside coefficients (of terms, constants, matrices)
enter through :func:`parse_scalar`; ``ZERO``, ``ONE`` and ``I`` are shared.

Parsing and rendering work on the ints alone.  ``Fraction`` is imported
only at the API edge: by ``re`` and ``im``, by the hash of a non-integer
real value, and by the constructor for a part that is neither an int nor
a ``numbers.Rational`` (a str or a ``Decimal``).  So loading this module,
and every CLI subcommand, loads neither ``fractions`` nor ``decimal``.

Text grammar, used by the CLI and all JSON payloads: a rational renders as
``a/b`` with ``/b`` omitted when the denominator is 1; a nonzero imaginary
part appends ``+c/d i`` or ``-c/d i`` with a unit coefficient elided.
Examples: ``"3/2"``, ``"-1+2i"``, ``"i"``, ``"0"``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from math import gcd
from numbers import Rational


class GaussianRational:
    """An element ``(a + b*i) / d`` of Q(i) with arbitrary-precision ints.

    The constructor takes the real and imaginary parts as ``int``s,
    ``Fraction``s or other ``numbers.Rational``s, or as anything
    ``Fraction`` reads exactly (a str, a ``Decimal``); a ``float`` or
    ``bool`` part raises TypeError.  ``re`` and ``im`` read them back as
    ``Fraction``s.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        s, t = _ratio(im)
        d = q * t // gcd(q, t)
        # parts in lowest terms over their lcm already have gcd(a, b, d) == 1
        self._a = p * (d // q)
        self._b = s * (d // t)
        self._d = d

    @property
    def re(self):
        return _fraction(self._a, self._d)

    @property
    def im(self):
        return _fraction(self._b, self._d)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        return from_ints(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        return from_ints(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        return -self + other

    def __neg__(self):
        return from_ints(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return from_ints(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # x / y = x * conj(y) / |y|^2, with y = (c + e*i)/f
        c, e, f = other._a, other._b, other._d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self._a * f, self._b * f
        return from_ints(a * c + b * e, b * c - a * e, self._d * norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        # the hash of the equal int or Fraction
        return hash(self._a) if self._d == 1 else hash(_fraction(self._a, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    @property
    def is_zero(self) -> bool:
        return not self

    def is_rational_integer(self) -> bool:
        """True when the value lies in Z (no imaginary part, denominator 1)."""
        return self._b == 0 and self._d == 1

    def conjugate(self) -> "GaussianRational":
        return from_ints(self._a, -self._b, self._d)

    # -- text ---------------------------------------------------------------

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return _quotient_text(a, d)
        body = "i" if abs(b) == d else _quotient_text(abs(b), d) + "i"
        sign = "-" if b < 0 else "+" if a else ""
        return (_quotient_text(a, d) if a else "") + sign + body

    __repr__ = __str__


_new = object.__new__


def from_ints(a: int, b: int, d: int) -> GaussianRational:
    """The normalized value ``(a + b*i) / d`` for ints with ``d > 0``: one
    gcd, and no ``__init__``.  Every arithmetic result is built here."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def clear_denominators(values: Mapping) -> tuple:
    """Scale a mapping of GaussianRationals by the lcm ``n`` of their
    denominators: ``({key: (x, y)}, n)``, a row over Z[i] with
    ``value = (x + y*i) / n``.  Zero values are dropped."""
    lcm = 1
    for c in values.values():
        lcm = lcm * c._d // gcd(lcm, c._d)
    out = {}
    for key, c in values.items():
        if c._a or c._b:
            k = lcm // c._d
            out[key] = (c._a * k, c._b * k)
    return out, lcm


def _quotient_text(n: int, d: int) -> str:
    """``n/d`` for ``d > 0`` in lowest terms, with ``/1`` left out."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _ratio(part) -> tuple:
    """``(numerator, denominator)`` of a constructor part, in lowest terms."""
    if type(part) is int:
        return part, 1
    # a float part would bring a binary rounding error into Q(i)
    if isinstance(part, (float, bool)):
        raise TypeError(f"a part of a Q(i) scalar cannot be a {type(part).__name__}")
    if not isinstance(part, Rational):
        part = _fraction(part)
    return part.numerator, part.denominator


def _fraction(*args):
    """``Fraction(*args)``: the one place that loads ``fractions``, which
    loads ``decimal``, so that no CLI subcommand does."""
    from fractions import Fraction

    return Fraction(*args)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, Rational) and not isinstance(value, bool):
        return GaussianRational(value)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

_TERM_BODY = r"(?:[0-9]+(?:/[0-9]+)?\s*\*?\s*i|[0-9]+(?:/[0-9]+)?|i)"
_SCALAR_FULL = re.compile(
    rf"\s*[+-]?\s*{_TERM_BODY}(?:\s*[+-]\s*{_TERM_BODY})*\s*"
)
_SCALAR_TERM = re.compile(rf"([+-]?)\s*({_TERM_BODY})")


def parse_scalar(text) -> GaussianRational:
    """Parse the scalar grammar: "3/2", "-1+2i", "i", "0", "1/2-3/4i".  An
    int or Fraction (any ``numbers.Rational``) is taken as its value and a
    GaussianRational as it is; any other non-text value (a float, a bool,
    an element) raises ValueError."""
    coerced = _coerce(text)
    if coerced is not NotImplemented:
        return coerced
    if not isinstance(text, str) or not _SCALAR_FULL.fullmatch(text):
        raise ValueError(f"cannot parse scalar {text!r}")
    # each part is summed in ints as an unreduced quotient, reduced once
    re_n, re_d, im_n, im_d = 0, 1, 0, 1
    for sign, body in _SCALAR_TERM.findall(text):
        body = body.replace(" ", "").replace("*", "")
        imaginary = body.endswith("i")
        if imaginary:
            body = body[:-1] or "1"
        num, _, den = body.partition("/")
        p, q = int(num), int(den or 1)
        if not q:
            raise ValueError(f"zero denominator in scalar {text!r}")
        if sign == "-":
            p = -p
        if imaginary:
            im_n, im_d = im_n * q + p * im_d, im_d * q
        else:
            re_n, re_d = re_n * q + p * re_d, re_d * q
    return from_ints(re_n * im_d, im_n * re_d, re_d * im_d)


def format_linear(pairs: Iterable, times: str = "*") -> str:
    """Render a linear combination from (label, scalar) pairs, e.g.
    ``2*e - h + (1+i)*f``: unit coefficients are elided, negative rationals
    become subtraction and complex coefficients are parenthesized.  The
    empty combination renders as ``0``."""
    out = ""
    for label, c in pairs:
        s = str(c)
        if s == "1":
            sign, body = "+", label
        elif s == "-1":
            sign, body = "-", label
        elif s.startswith("-") and "+" not in s[1:] and "-" not in s[1:]:
            sign, body = "-", s[1:] + times + label
        elif "+" in s[1:] or "-" in s[1:]:
            sign, body = "+", f"({s}){times}{label}"
        else:
            sign, body = "+", s + times + label
        if out:
            out += f" {sign} {body}"
        else:
            out = ("-" if sign == "-" else "") + body
    return out or "0"
