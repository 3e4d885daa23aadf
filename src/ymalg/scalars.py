"""The scalar field Q(i): Gaussian rationals with exact arithmetic.

Every coefficient in this package is a :class:`GaussianRational`.  Values are
immutable and normalized on construction (lowest terms, positive denominator,
both guaranteed by ``fractions.Fraction``), so equality and hashing are
structural.

Text grammar, used by the CLI and all JSON payloads: a rational renders as
``a/b`` with ``/b`` omitted when the denominator is 1; a nonzero imaginary
part appends ``+c/d i`` or ``-c/d i`` with a unit coefficient elided.
Examples: ``"3/2"``, ``"-1+2i"``, ``"i"``, ``"0"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable


class GaussianRational:
    """An element ``re + im*i`` of Q(i) with arbitrary-precision rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_zero(self) -> bool:
        return not self

    def is_rational_integer(self) -> bool:
        """True when the value lies in Z (no imaginary part, denominator 1)."""
        return self.im == 0 and self.re.denominator == 1

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- text ---------------------------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            coeff = abs(self.im)
            body = "i" if coeff == 1 else f"{coeff}i"
            if parts:
                parts.append(("+" if self.im > 0 else "-") + body)
            else:
                parts.append(body if self.im > 0 else "-" + body)
        return "".join(parts)

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        return parse_scalar(text)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

_TERM_BODY = r"(?:\d+(?:/\d+)?\s*\*?\s*i|\d+(?:/\d+)?|i)"
_SCALAR_FULL = re.compile(
    rf"^\s*[+-]?\s*{_TERM_BODY}(?:\s*[+-]\s*{_TERM_BODY})*\s*$"
)
_SCALAR_TERM = re.compile(rf"([+-]?)\s*({_TERM_BODY})")


def _fraction(body: str, text) -> Fraction:
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def parse_scalar(text) -> GaussianRational:
    """Parse the scalar grammar: "3/2", "-1+2i", "i", "0", "1/2-3/4i"."""
    if isinstance(text, GaussianRational):
        return text
    if isinstance(text, (int, Fraction)):
        return GaussianRational(text)
    s = str(text)
    if not _SCALAR_FULL.match(s):
        raise ValueError(f"cannot parse scalar {text!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    for sign, body in _SCALAR_TERM.findall(s):
        factor = -1 if sign == "-" else 1
        body = body.replace(" ", "").replace("*", "")
        if body.endswith("i"):
            coeff = body[:-1]
            im_part += factor * (_fraction(coeff, text) if coeff else 1)
        else:
            re_part += factor * _fraction(body, text)
    return GaussianRational(re_part, im_part)


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
