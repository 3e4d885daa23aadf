"""Exact linear algebra over Q(i), and the one sparse element type.

Rows live as sparse Gaussian-integer vectors (denominators are cleared on
entry) and elimination is fraction-free: each update is a cross
multiplication followed by an integer content reduction, so no rational
division happens until rows are normalized for output.  Pivoting is exact,
on the first nonzero column of each incoming row.

Column keys only need to be hashable and mutually ordered (ints for dense
coordinates and Witt indices, Lyndon words for free Lie coordinates).
``Combination`` is the base of every algebra element: a finite Q(i)-linear
combination of basis keys with its vector-space arithmetic.  ``Subspace``
wraps an Echelon around the span of Combinations of one ambient space;
ideal components, subalgebra closures, series terms and Witt windows are all
Subspaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .scalars import GaussianRational


def _to_int_row(vec: Mapping) -> dict:
    """Clear denominators: {col: GaussianRational} -> {col: (a, b)} over Z[i]."""
    lcm = 1
    for c in vec.values():
        for den in (c.re.denominator, c.im.denominator):
            lcm = lcm * den // gcd(lcm, den)
    row = {}
    for col, c in vec.items():
        a = int(c.re * lcm)
        b = int(c.im * lcm)
        if a or b:
            row[col] = (a, b)
    return _content_reduce(row)


def _content_reduce(row: dict) -> dict:
    g = 0
    for a, b in row.values():
        g = gcd(g, gcd(abs(a), abs(b)))
        if g == 1:
            return row
    if g <= 1:
        return row
    return {col: (a // g, b // g) for col, (a, b) in row.items()}


def _gmul(x: tuple, y: tuple) -> tuple:
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _eliminate(row: dict, col, pivot_row: dict) -> dict:
    """Cross-multiply to clear ``row[col]`` with a pivot row led at ``col``."""
    lead_p = pivot_row[col]
    lead_r = row[col]
    new = {c: _gmul(lead_p, v) for c, v in row.items()}
    for c, v in pivot_row.items():
        sub = _gmul(lead_r, v)
        cur = new.get(c, (0, 0))
        val = (cur[0] - sub[0], cur[1] - sub[1])
        if val == (0, 0):
            new.pop(c, None)
        else:
            new[c] = val
    return _content_reduce(new)


def _normalize(row: dict, pivot) -> dict:
    """Divide a Gaussian-integer row by its entry at ``pivot``; the result
    maps columns to GaussianRationals."""
    c, d = row[pivot]
    norm = c * c + d * d
    return {
        col: GaussianRational(
            Fraction(a * c + b * d, norm), Fraction(b * c - a * d, norm)
        )
        for col, (a, b) in row.items()
    }


class Echelon:
    """Incremental exact row echelon form used for rank and membership."""

    def __init__(self):
        self._rows: dict = {}  # pivot column -> sparse Gaussian-integer row
        self._basis = None  # reduced_basis(), until the next accepted insert

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, row: dict) -> dict:
        # eliminate against stored pivots; each step zeroes the current
        # leading column and only introduces later columns, so this terminates
        while row:
            col = min(row)
            pivot_row = self._rows.get(col)
            if pivot_row is None:
                return row
            row = _eliminate(row, col, pivot_row)
        return row

    def insert(self, vec: Mapping) -> bool:
        """Add a vector ({col: GaussianRational}); True if it was independent."""
        row = self._reduce(_to_int_row(vec))
        if not row:
            return False
        self._rows[min(row)] = row
        self._basis = None
        return True

    def contains(self, vec: Mapping) -> bool:
        return not self._reduce(_to_int_row(vec))

    def reduced_basis(self) -> list:
        """The canonical basis of the span as (pivot, {col: GaussianRational})
        pairs sorted by pivot: leading coefficient 1 and zeros in every other
        pivot column.  Back substitution runs fraction-free over Z[i]; each
        row is divided by its leading entry once, at the end."""
        if self._basis is None:
            reduced: dict = {}
            for pivot in sorted(self._rows, reverse=True):
                row = self._rows[pivot]
                # rows in ``reduced`` vanish on every other pivot column, so
                # clearing one pivot column never refills another
                for col in [c for c in row if c != pivot and c in reduced]:
                    row = _eliminate(row, col, reduced[col])
                reduced[pivot] = row
            self._basis = [(p, _normalize(reduced[p], p)) for p in sorted(reduced)]
        return self._basis

    def rref(self, columns: Sequence) -> list:
        """Dense view of ``reduced_basis``: one Q(i) list per basis row, in
        the given column order (which must list the columns ascending)."""
        zero = GaussianRational(0)
        return [
            [row.get(col, zero) for col in columns] for _, row in self.reduced_basis()
        ]


def rank(matrix: Iterable[Sequence]) -> int:
    ech = Echelon()
    for row in matrix:
        ech.insert(dict(enumerate(row)))
    return ech.dim


def accumulate(acc: dict, key, value) -> None:
    """``acc[key] += value``, dropping the key when the sum is zero."""
    s = acc.get(key)
    s = value if s is None else s + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class Combination:
    """A finite Q(i)-linear combination of basis keys: ``terms`` maps keys to
    nonzero GaussianRationals.  Immutable by convention.

    Subclasses name their ambient space with ``_space()`` (equal spaces
    compare equal) and build an element of it from clean terms with
    ``_like()``; combining elements of different spaces raises ValueError.
    """

    __slots__ = ("terms",)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same(self, other) -> None:
        mine = self._space()
        theirs = other._space() if isinstance(other, Combination) else type(other).__name__
        if theirs != mine:
            raise ValueError(f"cannot combine elements of {mine} and {theirs}")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, GaussianRational):
            scalar = GaussianRational(scalar)
        if not scalar:
            return self._like({})
        return self._like({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))


class Subspace:
    """The span of Combinations of one ambient space, kept as an Echelon.

    ``zero`` is the ambient zero element; elements enter through their
    ``terms`` and the basis comes back through ``zero._like``.  ``columns``
    lists the coordinate keys, ascending, for the dense ``rows`` and
    ``pivots`` views.
    """

    def __init__(self, zero, columns: Iterable, elements: Iterable = ()):
        self.zero = zero
        self.columns = tuple(columns)
        self._ech = Echelon()
        for elem in elements:
            self.add(elem)

    @property
    def dim(self) -> int:
        return self._ech.dim

    def add(self, elem) -> bool:
        """Extend the span by ``elem``; True if it was independent."""
        self.zero._require_same(elem)
        return self._ech.insert(elem.terms)

    def contains(self, elem) -> bool:
        self.zero._require_same(elem)
        return self._ech.contains(elem.terms)

    def basis_elements(self) -> list:
        """The canonical reduced basis as elements, sorted by pivot."""
        return [self.zero._like(row) for _, row in self._ech.reduced_basis()]

    @property
    def rows(self) -> tuple:
        """Canonical RREF rows as dense tuples in column order."""
        return tuple(map(tuple, self._ech.rref(self.columns)))

    @property
    def pivots(self) -> tuple:
        """Position in ``columns`` of each row's pivot."""
        index = {col: k for k, col in enumerate(self.columns)}
        return tuple(index[p] for p, _ in self._ech.reduced_basis())
