"""Exact linear algebra over Q(i), and the one sparse element type.

``Echelon`` takes and stores sparse Gaussian-integer rows ``{col: (a, b)}``,
such as a Combination's own row.  Elimination is fraction-free: a cross
multiplication per step, or dropping the column of a single-entry pivot
row; only stored rows are content-reduced.  Pivots are the first nonzero
column of each row; ``units`` holds those of single-entry rows, columns
whose unit vector is in the span.  The canonical reduced basis, Z[i] rows
over one denominator each, is built only on request (``reduced_basis``).

Every bracket is ``row_bilinear`` over a target's one integer rule for a
pair of basis keys: its bracket times one nonzero constant (12 for
Virasoro, the lcm of a constant table's denominators).  Every closure
brackets stored rows (``Echelon.rows``, never changed) in the one loop
``Echelon.insert_brackets``, whose span the constant leaves the same; it
skips a bracket whose keys all lie in ``units``, a zero one too.
``bilinear(space, u, v, pair, scale)`` brackets two elements' rows, and
is the one space test of every element bracket.

Column keys only need to be hashable and mutually ordered (ints for dense
coordinates and Witt indices, Lyndon words for free Lie coordinates).
``Combination(space, terms)`` is every algebra element: a finite
Q(i)-linear combination of basis keys of its space, held as one reduced
Z[i] row over one denominator, so its arithmetic is integer work: ``+``,
``-``, negation and scalar ``*`` are one pass over rows (``_combine``), and
``_like`` reduces once, its gcd stopping at 1; Q(i) ``terms`` render it.
``Subspace`` wraps an Echelon around a span in one space: ideal components,
subalgebra closures, series terms and Witt windows.  ``Value`` is the one
immutable type with value equality: the spaces and validated inputs, and
every record a computation reports, built by position or by name.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from math import gcd, lcm

from .scalars import clear_denominators, from_ints, parse_scalar


def _content_reduce(row: dict) -> dict:
    g = 0
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
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
    return new


class Echelon:
    """Incremental exact row echelon form used for rank and membership."""

    def __init__(self):
        # pivot column -> sparse Gaussian-integer row, in the order accepted;
        # a stored row never changes
        self._rows: dict = {}
        # pivots of the single-entry stored rows, unit vectors in the span
        self.units: set = set()

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, row: Mapping) -> dict:
        # eliminate against stored pivots; each step zeroes the current
        # leading column and only introduces later columns, so this terminates
        row = dict(row)
        while row:
            col = min(row)
            pivot_row = self._rows.get(col)
            if pivot_row is None:
                return row
            if len(pivot_row) == 1:
                del row[col]
            else:
                row = _eliminate(row, col, pivot_row)
        return row

    def insert(self, row: Mapping) -> bool:
        """Add a Z[i] row {col: (a, b)}, no entry zero; True if independent."""
        row = self._reduce(row)
        if not row:
            return False
        self._rows[min(row)] = _content_reduce(row)
        if len(row) == 1:
            self.units.update(row)
        return True

    def insert_brackets(self, pairs: Iterable, rule) -> None:
        """Insert ``row_bilinear(a, b, rule)`` for each pair of rows, in order,
        unless its keys all lie in ``units`` (zero too): it is in the span."""
        units = self.units
        for a, b in pairs:
            if not (r := row_bilinear(a, b, rule)).keys() <= units:
                self.insert(r)

    def contains(self, row: Mapping) -> bool:
        return not self._reduce(row)

    def rows(self) -> list:
        """The stored rows, a basis of the span; ``insert`` only appends."""
        return list(self._rows.values())

    def reduced_basis(self) -> list:
        """The canonical basis of the span as (pivot, row, den), sorted by
        pivot: each Z[i] ``row`` over ``den`` has leading coefficient 1 and
        zeros in every other pivot column.  Back substitution runs over Z[i];
        then each row is multiplied by its lead's conjugate over its norm."""
        reduced: dict = {}
        for pivot in sorted(self._rows, reverse=True):
            row = self._rows[pivot]
            # rows in ``reduced`` vanish on every other pivot column, so
            # clearing one pivot column never refills another
            for col in [c for c in row if c != pivot and c in reduced]:
                row = _eliminate(row, col, reduced[col])
            reduced[pivot] = _content_reduce(row)
        basis = []
        for p in sorted(reduced):
            c, d = reduced[p][p]
            row = {k: _gmul(z, (c, -d)) for k, z in reduced[p].items()}
            basis.append((p, row, c * c + d * d))
        return basis

    def rref(self, columns: Sequence) -> list:
        """Dense view of ``reduced_basis``: one Q(i) list per basis row, in
        the given column order (which must list the columns ascending)."""
        return [
            [from_ints(*row.get(col, (0, 0)), den) for col in columns]
            for _, row, den in self.reduced_basis()
        ]


def rank(matrix: Iterable[Sequence]) -> int:
    ech = Echelon()
    for row in matrix:
        ech.insert(clear_denominators(dict(enumerate(row)))[0])
    return ech.dim


def row_bilinear(u: Mapping, v: Mapping, pair) -> dict:
    """The bilinear extension of an integer rule over Z[i] rows {key: (a, b)}:
    ``pair(i, j)`` maps keys to nonzero ints or Z[i] pairs (x, y)."""
    out: dict = {}
    for i, (a, b) in u.items():
        for j, (c, d) in v.items():
            rule = pair(i, j)
            if not rule:
                continue
            re, im = a * c - b * d, a * d + b * c
            for k, x in rule.items():
                x, y = (x, 0) if type(x) is int else x
                p, q = out.get(k, (0, 0))
                p, q = p + re * x - im * y, q + re * y + im * x
                out[k] = (p, q)
                if not (p or q):
                    del out[k]
    return out


def require_in(space, elem) -> None:
    """ValueError unless ``elem`` is a Combination of ``space``: the same
    space object (tested first), or one equal to it."""
    theirs = elem.space if isinstance(elem, Combination) else type(elem).__name__
    if theirs is not space and theirs != space:
        raise ValueError(f"cannot combine elements of {space} and {theirs}")


def bilinear(space, u, v, pair, scale: int):
    """[u, v] in ``space`` for a rule ``pair`` that is ``scale`` times the
    bracket: the ``row_bilinear`` of the two rows, over ``scale`` times both
    denominators.  Every element bracket runs here, and checks its operands."""
    require_in(space, u)
    require_in(space, v)
    return u._like(row_bilinear(u.row, v.row, pair), u.den * v.den * scale)


class Value:
    """An immutable value whose fields are its ``__slots__``, set once by
    ``_set``, which is also ``__init__``: by position in ``__slots__``
    order or by name, and a TypeError naming the fields on a missing, extra
    or repeated one.  A record declares only ``__slots__``; a type that
    validates overrides ``__init__`` and calls ``_set``.  Equal to an
    instance of the same class with equal fields, hashed by the fields,
    shown as ``Name(field=...)``."""

    __slots__ = ()

    def _set(self, *values, **named) -> None:
        names = self.__slots__
        if named or len(values) != len(names):
            fields = dict(zip(names, values), **named)
            if len(values) + len(named) != len(names) or fields.keys() != set(names):
                raise TypeError(
                    f"{type(self).__name__} takes the fields {', '.join(names)};"
                    f" got {len(values)} by position and {sorted(named)} by name"
                )
            values = [fields[name] for name in names]
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    __init__ = _set

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Combination:
    """A finite Q(i)-linear combination of basis keys of ``space``: one
    Gaussian-integer ``row`` {key: (a, b)}, no entry zero, over one positive
    ``den`` with ``gcd(den, every entry) == 1``.  That form is canonical, so
    equality and hashing are structural.  Immutable by convention.

    Equal spaces compare equal; combining elements of different spaces
    raises ValueError.  ``terms`` maps keys to nonzero GaussianRationals,
    built on each read; the space renders them: ``space.format(terms)``.
    """

    __slots__ = ("space", "row", "den")

    def __init__(self, space, terms: Mapping):
        self.space = space
        self.row, self.den = clear_denominators(
            {k: parse_scalar(c) for k, c in terms.items()}
        )

    def _like(self, row: dict, den: int = 1):
        """An element of the same type and space: the Z[i] ``row`` (no zero
        entry) over ``den > 0``, brought to the canonical form."""
        g = den
        for a, b in row.values():
            if g == 1:
                break
            g = gcd(g, a, b)
        if g != 1:
            row = {k: (a // g, b // g) for k, (a, b) in row.items()}
        out = object.__new__(type(self))
        out.space, out.row, out.den = self.space, row, den // g
        return out

    @property
    def terms(self) -> dict:
        d = self.den
        return {k: from_ints(a, b, d) for k, (a, b) in self.row.items()}

    @property
    def is_zero(self) -> bool:
        return not self.row

    def _combine(self, terms, den: int = 1):
        """The sum of z * elem over (elem, z) terms, Z[i] pairs z, over
        ``den``: the one pass on rows, over their lcm denominator."""
        lcd = lcm(*(elem.den for elem, _ in terms))
        out: dict = {}
        for elem, (x, y) in terms:
            k = lcd // elem.den
            x, y = x * k, y * k
            for key, (p, q) in elem.row.items():
                r, s = out.get(key, (0, 0))
                out[key] = (r + p * x - q * y, s + p * y + q * x)
        return self._like({k: z for k, z in out.items() if z != (0, 0)}, lcd * den)

    def __add__(self, other):
        require_in(self.space, other)
        return self._combine(((self, (1, 0)), (other, (1, 0))))

    def __sub__(self, other):
        require_in(self.space, other)
        return self._combine(((self, (1, 0)), (other, (-1, 0))))

    def __neg__(self):
        return self._combine(((self, (-1, 0)),))

    def __mul__(self, scalar):
        row, den = clear_denominators({0: parse_scalar(scalar)})
        return self._combine(((self, row.get(0, (0, 0))),), den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return (
            self.space == other.space and self.den == other.den and self.row == other.row
        )

    def __hash__(self):
        return hash((self.space, self.den, frozenset(self.row.items())))

    def __repr__(self):
        return self.space.format(self.terms)


class Subspace:
    """The span of Combinations of one ambient space, kept as an Echelon.

    ``zero`` is the ambient zero element; elements enter through their
    ``row`` and the basis comes back through ``zero._like``.  Closures
    read and insert Gaussian-integer rows through ``echelon`` itself.
    """

    def __init__(self, zero, elements: Iterable = ()):
        self.zero = zero
        self.echelon = Echelon()
        for elem in elements:
            self.add(elem)

    @property
    def dim(self) -> int:
        return self.echelon.dim

    def add(self, elem) -> bool:
        """Extend the span by ``elem``; True if it was independent."""
        require_in(self.zero.space, elem)
        return self.echelon.insert(elem.row)

    def contains(self, elem) -> bool:
        require_in(self.zero.space, elem)
        return self.echelon.contains(elem.row)

    def basis_elements(self) -> list:
        """The canonical reduced basis as elements, sorted by pivot; built
        anew on each call."""
        basis = self.echelon.reduced_basis()
        return [self.zero._like(row, den) for _, row, den in basis]
