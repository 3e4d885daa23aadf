"""Target Lie algebras for morphisms out of ym(n).

Finite-dimensional algebras are given by a labelled basis and structure
constants (antisymmetry completed, Jacobi verified on construction); sl(m)
and the first Heisenberg algebra come built in.  ``WittTarget`` is the Witt
algebra or its Virasoro central extension, with exact finite-support
elements over the basis {e_k : k in Z} (+ c).  A morphism target needs only
``zero()`` (stored once by an algebra) and ``bracket(u, v)``; the targets
here also build elements, ``basis_element(label)`` and
``element({label: scalar})`` (one builder for both), and render them with
``format(terms)``.  Elements are ``Combination``s whose space is the target
(``WittElement``s all share the Witt space).  Each target has one integer
rule for a pair of basis keys, its bracket times a constant (the lcm of a
constant table's denominators, 12 for Virasoro), and every bracket, of
echelon rows or of elements, is ``linalg.row_bilinear`` over it.  The Witt
window closure is graded (``_witt_degree``): it never pairs rows of degree
k and l if k + l != 0 is a spanned unit column, a pair the unit skip drops.
A row of degree k finds the earlier rows it keeps, in index order, in an
index of the rows by degree while the spanned unit degrees with 0 are one
run lo..hi (two bisects for the degrees outside lo - k..hi - k), and by
testing each earlier row while the run has holes.

Generation in the infinite-dimensional algebras is only ever certified on a
finite index window: reports carry the bracket depth and window bound used,
so "covered" is never read as full generation.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right, insort
from functools import lru_cache
from itertools import chain, combinations, product
from typing import Mapping, NamedTuple, Sequence

from .linalg import Combination, Echelon, Subspace, Value, bilinear, require_in
from .scalars import clear_denominators, format_linear, parse_scalar


# -- structure-constant algebras ----------------------------------------------


class _Labelled:
    """The element builders of a target with basis labels; a subclass gives
    ``zero()`` and ``_key(label)``, the basis key a label names (KeyError
    for an unknown label)."""

    __slots__ = ()

    def basis_element(self, label) -> Combination:
        return self.zero()._like({self._key(label): (1, 0)})

    def element(self, coords: Mapping) -> Combination:
        """Sum of the terms.  Every label is resolved, even with a zero
        coefficient, and aliases such as ``e1`` and ``e_1`` add up."""
        terms: dict = {}
        for label, c in coords.items():
            key, c = self._key(label), parse_scalar(c)
            terms[key] = terms[key] + c if key in terms else c
        return self.zero()._like(*clear_denominators(terms))


class StructureConstantAlgebra(_Labelled):
    """A finite-dimensional Lie algebra over Q(i) by basis and constants.

    ``brackets`` maps ordered index pairs (i, j) to sparse coefficient
    vectors {k: scalar} for [b_i, b_j].  Antisymmetric completion is applied:
    the table holds both orientations of every given pair.  An index that is
    not an int in range(dim), conflicting (i, j)/(j, i) entries or a Jacobi
    failure raise ValueError.
    """

    def __init__(self, basis_labels: Sequence[str], brackets: Mapping, name: str = ""):
        labels = tuple(basis_labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        self.labels = labels
        self.name = name or "lie-algebra"
        self._index = {lab: k for k, lab in enumerate(labels)}
        table: dict = {}
        for (i, j), vec in brackets.items():
            for key in (i, j, *vec):
                if type(key) is not int or not 0 <= key < len(labels):
                    raise ValueError(f"bracket key {key!r} is not a basis index")
            coords = {k: parse_scalar(c) for k, c in vec.items()}
            coords = {k: c for k, c in coords.items() if c}
            if i == j:
                if coords:
                    raise ValueError(f"[b_{i}, b_{i}] must vanish")
                continue
            if table.get((i, j), coords) != coords:
                raise ValueError(
                    f"antisymmetry conflict on pair {(min(i, j), max(i, j))}"
                )
            table[(i, j)] = coords
            table[(j, i)] = {k: -c for k, c in coords.items()}
        # the one integer rule: the table times the lcm of all its
        # denominators, over Z[i]
        zi, self._scale = clear_denominators(
            {(i, j, k): c for (i, j), vec in table.items() for k, c in vec.items()}
        )
        self._row_table = {ij: {k: zi[(*ij, k)] for k in v} for ij, v in table.items()}
        self._check_jacobi()
        self._zero = Combination(self, {})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _row_pair(self, i: int, j: int) -> dict:
        return self._row_table.get((i, j), {})

    def _check_jacobi(self):
        # on the integer table: the Jacobi sum is quadratic in the
        # constants, so scaling them keeps its zero test
        m = self.dim
        get = self._row_table.get
        empty: dict = {}
        for i in range(m):
            for j in range(i + 1, m):
                ij = get((i, j), empty)
                for k in range(j + 1, m):
                    # [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]
                    acc: dict = {}
                    for inner, c in (
                        (ij, k), (get((j, k), empty), i), (get((k, i), empty), j)
                    ):
                        for l, (x, y) in inner.items():
                            for t, (z, w) in get((l, c), empty).items():
                                p, q = acc.get(t, (0, 0))
                                acc[t] = (p + x * z - y * w, q + x * w + y * z)
                    if acc and any(p or q for p, q in acc.values()):
                        raise ValueError(
                            "Jacobi identity fails on basis triple "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    # -- elements ---------------------------------------------------------

    def zero(self) -> Combination:
        return self._zero

    def _key(self, label) -> int:
        if isinstance(label, str):
            if label not in self._index:
                raise KeyError(
                    f"unknown basis label {label!r} in {self.name} "
                    f"(has {', '.join(self.labels)})"
                )
            return self._index[label]
        if type(label) is not int or not 0 <= label < self.dim:
            raise KeyError(f"basis index {label!r} out of range for {self.name}")
        return label

    def bracket(self, u: Combination, v: Combination) -> Combination:
        """Bilinear extension of the structure constants."""
        return bilinear(self, u, v, self._row_pair, self._scale)

    def format(self, terms: Mapping) -> str:
        return format_linear((self.labels[k], terms[k]) for k in sorted(terms))

    def __repr__(self):
        return f"{self.name}(dim={self.dim})"


# -- built-in algebras ---------------------------------------------------------


@lru_cache(maxsize=None)
def sl_algebra(m: int) -> StructureConstantAlgebra:
    """sl(m) with basis {E^{ij} : i != j} and {H_i = E^{ii} - E^{i+1,i+1}}.

    Brackets come from matrix commutators.  For m = 2 the classical basis
    (e, h, f) = (E^{12}, H_1, E^{21}) is exposed instead, with [h,e] = 2e,
    [h,f] = -2f, [e,f] = h.  Labels are E12 and H1 up to m = 9; from m = 10
    on, where an index may have two digits, E^{ij} is E<i>_<j> (E1_2, E10_1).
    """
    if m < 2:
        raise ValueError("need m >= 2")
    # (label, key): key (i, j) is E^{ij}, key i is H_i
    if m == 2:
        basis = [("e", (1, 2)), ("h", 1), ("f", (2, 1))]
    else:
        sep = "" if m <= 9 else "_"
        basis = [
            (f"E{i}{sep}{j}", (i, j))
            for i in range(1, m + 1)
            for j in range(1, m + 1)
            if i != j
        ]
        basis += [(f"H{i}", i) for i in range(1, m)]
    index = {key: k for k, (_, key) in enumerate(basis)}
    mats = [
        {key: 1} if isinstance(key, tuple) else {(key, key): 1, (key + 1, key + 1): -1}
        for _, key in basis
    ]

    def commutator(A, B):
        out = {}
        for (a, b), x in A.items():
            for (c, d), y in B.items():
                if b == c:
                    out[(a, d)] = out.get((a, d), 0) + x * y
                if d == a:
                    out[(c, b)] = out.get((c, b), 0) - x * y
        return {k: v for k, v in out.items() if v}

    def decompose(M):
        # a traceless matrix in the basis: E^{ij} takes the (i, j) entry and
        # H_i the running sum of the diagonal
        coords = {index[(i, j)]: x for (i, j), x in M.items() if i != j}
        run = 0
        for i in range(1, m):
            run += M.get((i, i), 0)
            if run:
                coords[index[i]] = run
        return coords

    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            coords = decompose(commutator(mats[i], mats[j]))
            if coords:
                brackets[(i, j)] = coords
    labels = tuple(label for label, _ in basis)
    return StructureConstantAlgebra(labels, brackets, name=f"sl({m})")


@lru_cache(maxsize=None)
def heisenberg() -> StructureConstantAlgebra:
    """The first Heisenberg algebra: basis (p, q, z), [p, q] = z, z central."""
    return StructureConstantAlgebra(
        ("p", "q", "z"),
        {(0, 1): {2: 1}},
        name="heisenberg",
    )


def algebra_from_json(data) -> StructureConstantAlgebra:
    """Load a custom algebra from the JSON shape
    {"basis": [names], "brackets": [{"i": ..., "j": ..., "coords": {name: scalar}}]}.

    Unlisted pairs default to zero; "i"/"j" may be labels or 0-based indices.
    Two entries for one ordered pair must agree (zero coefficients dropped).
    """
    import json

    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or not isinstance(data.get("basis"), list):
        raise ValueError('custom algebra JSON needs a "basis" list')
    labels = [str(x) for x in data["basis"]]
    index = {lab: k for k, lab in enumerate(labels)}

    def resolve(key):
        if isinstance(key, str):
            if key not in index:
                raise ValueError(f"unknown basis label {key!r} in brackets")
            return index[key]
        if type(key) is not int or not 0 <= key < len(labels):
            raise ValueError(f"basis index {key!r} out of range")
        return key

    entries = data.get("brackets", [])
    if not isinstance(entries, list):
        raise ValueError('"brackets" must be a list')
    brackets = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"bracket entry {entry!r} is not an object")
        for key in ("i", "j", "coords"):
            if key not in entry:
                raise ValueError(f"bracket entry {entry!r} has no {key!r}")
        if not isinstance(entry["coords"], dict):
            raise ValueError(f"bracket entry {entry!r}: coords must be an object")
        i = resolve(entry["i"])
        j = resolve(entry["j"])
        coords = {resolve(k): parse_scalar(v) for k, v in entry["coords"].items()}
        coords = {k: c for k, c in coords.items() if c}
        if brackets.setdefault((i, j), coords) != coords:
            raise ValueError(f"conflicting entries for [{labels[i]}, {labels[j]}]")
    return StructureConstantAlgebra(labels, brackets, name=data.get("name", "custom"))


# -- subspaces, closures, series -----------------------------------------------


def subalgebra_closure(
    algebra: StructureConstantAlgebra, gens: Sequence[Combination]
) -> Subspace:
    """Smallest bracket-closed subspace containing the generators (zero
    generators allowed; all-zero generators close to the zero subspace)."""
    if not gens:
        raise ValueError("need a nonempty generator list")
    space = Subspace(algebra.zero(), gens)  # ValueError on mismatch
    return _bracket_closure(space, algebra._row_pair)


def _bracket_closure(space: Subspace, pair, rounds=None, degree=None) -> Subspace:
    """Add [S, S] to the span S, round after round, until it stops growing
    or ``rounds`` rounds (None: no limit) have run.

    A round brackets the Z[i] echelon rows accepted since the last round
    against every earlier row and each other (``Echelon.insert_brackets``
    over the integer rule ``pair``).  A stored row never changes, so the
    brackets of two older rows are already in the span.

    ``degree(row)`` is a homogeneous row's degree, None if it has none.  A
    row of degree p skips rows of degree q (0 too) with p + q != 0 in
    ``units``: homogeneous rows bracket into degree p + q, which in Witt and
    Virasoro is spanned by e_{p+q} alone, so ``insert_brackets`` would skip
    the bracket anyway (units only grow).  Its partners, the earlier rows
    it still brackets with, come in index order, so the closure inserts the
    same rows in the same order as without ``degree``.  While the spanned
    unit degrees with 0 form one run lo..hi, the partners are the rows of
    no degree, of degree -p and of degree below lo - p or above hi - p,
    read from an index of the earlier rows by degree (``_graded_partners``);
    otherwise each earlier row is tested.  Without ``degree`` every earlier
    row is a partner, and no index is built."""
    done = 0  # rows bracketed in earlier rounds
    ech = space.echelon
    partners = _graded_partners(ech.units, degree) if degree else None
    while rounds is None or rounds > 0:
        rows = ech.rows()
        pairs = (
            product((rows[i],), partners(rows, i) if partners else rows[:i])
            for i in range(done, len(rows))
        )
        ech.insert_brackets(chain.from_iterable(pairs), pair)
        if space.dim == len(rows):
            break
        done = len(rows)
        rounds = None if rounds is None else rounds - 1
    return space


def _graded_partners(units: set, degree):
    """``partners(rows, i)``, the partners of row i in ``_bracket_closure``,
    called for i = 0, 1, ... in turn, each after the brackets of row i - 1
    are inserted.  The earlier rows are indexed by degree: the sorted
    degrees, and each one's row indices.  The spanned unit degrees with 0
    are kept as their least, greatest and number.  When ``units`` grew, the
    new unit degrees are sought among the last row's nonzero partner degree
    sums, none of them a unit when it was paired; the units are counted
    again only if those do not account for the growth (after a row of no
    degree, a bracket that reduced to another column, e_0 or c)."""
    degrees: list = []  # of the rows before row i, None for no degree
    by_degree: dict = {}  # degree (None too) -> the indices of its rows
    keys: list = []  # the int degrees of by_degree, sorted
    lo = hi = seen = 0  # the unit degrees are {0} while units is empty
    count, last = 1, (None, ())  # the last row's degree and partner indices

    def partners(rows, i):
        nonlocal lo, hi, count, seen, last
        if len(units) != seen:
            p, found = last
            new = p is not None and {
                s
                for j in found
                if (q := degrees[j]) is not None and (s := p + q) and s in units
            }
            if not new or len(new) != len(units) - seen:  # count them again
                lo = hi = count = 0
                new = {0, *(k for k in units if type(k) is int)}
            lo, hi, count = min(lo, *new), max(hi, *new), count + len(new)
            seen = len(units)
        if (p := degree(rows[i])) is None:
            found = range(i)
        elif hi - lo + 1 == count:  # the unit degrees are the run lo..hi
            outside = keys[: bisect_left(keys, lo - p)]
            outside += keys[bisect_right(keys, hi - p) :]
            found = [j for q in outside for j in by_degree[q]]
            found += by_degree.get(None, ())
            found += by_degree.get(-p, ())
            found.sort()
        else:
            found = [
                j
                for j, q in enumerate(degrees)
                if q is None or not (p + q and p + q in units)
            ]
        last = p, found
        degrees.append(p)
        if p is not None and p not in by_degree:
            insort(keys, p)
        by_degree.setdefault(p, []).append(i)
        return [rows[j] for j in found]

    return partners


def _bracket_span(
    algebra: StructureConstantAlgebra, A: Subspace, B: Subspace
) -> Subspace:
    """[A, B] as a Subspace; [A, A] brackets each pair of basis elements once."""
    left = A.echelon.rows()
    pairs = combinations(left, 2) if B is A else product(left, B.echelon.rows())
    span = Subspace(algebra.zero())
    span.echelon.insert_brackets(pairs, algebra._row_pair)
    return span


class SeriesReport(NamedTuple):
    """Derived and lower central series of a bracket-closed subspace."""

    derived_series: tuple
    lower_central_series: tuple
    is_solvable: bool
    is_nilpotent: bool

    @property
    def derived_dims(self) -> tuple:
        return tuple(s.dim for s in self.derived_series)

    @property
    def lower_central_dims(self) -> tuple:
        return tuple(s.dim for s in self.lower_central_series)


def series_analysis(
    algebra: StructureConstantAlgebra, space: Subspace
) -> SeriesReport:
    """Derived series S, [S,S], ... and lower central series until they
    stabilize; solvable (resp. nilpotent) iff the series reaches zero.
    [S, S] is computed once: it witnesses that S is bracket-closed and
    starts both series."""
    require_in(algebra, space.zero)  # ValueError on algebra mismatch
    square = _bracket_span(algebra, space, space)
    if not all(space.echelon.contains(row) for row in square.echelon.rows()):
        raise ValueError("subspace is not bracket-closed")

    def descend(step) -> tuple:
        series, nxt = [space], square
        while nxt.dim < series[-1].dim:
            series.append(nxt)
            if not nxt.dim:
                break
            nxt = step(nxt)
        return tuple(series)

    derived = descend(lambda s: _bracket_span(algebra, s, s))
    lower = descend(lambda s: _bracket_span(algebra, space, s))
    return SeriesReport(
        derived_series=derived,
        lower_central_series=lower,
        is_solvable=derived[-1].dim == 0,
        is_nilpotent=lower[-1].dim == 0,
    )


class ImageAnalysis(NamedTuple):
    """The subalgebra generated by some elements of a finite algebra."""

    image_dim: int
    is_solvable: bool
    is_nilpotent: bool
    is_surjective: bool


def analyze_image(
    algebra: StructureConstantAlgebra, images: Sequence[Combination]
) -> ImageAnalysis:
    """Closure and series of the subalgebra generated by ``images`` (zero
    images allowed; all-zero images generate the zero subalgebra)."""
    space = subalgebra_closure(algebra, images)
    series = series_analysis(algebra, space)
    return ImageAnalysis(
        space.dim, series.is_solvable, series.is_nilpotent, space.dim == algebra.dim
    )


# -- Witt / Virasoro ------------------------------------------------------------


WITT_CENTRAL = math.inf  # term key of the central element c: after every index


class WittElement(Combination):
    """Finite-support element sum c_k e_k (+ c times the central element in
    Virasoro mode, under the key WITT_CENTRAL).  Witt and Virasoro elements
    share one space."""

    __slots__ = ()

    def __init__(self, terms: Mapping | None = None):
        terms = terms or {}
        for k in terms:
            if type(k) is not int and k != WITT_CENTRAL:
                raise KeyError(f"Witt key {k!r} is neither an int nor WITT_CENTRAL")
        super().__init__(_WITT, terms)


def witt_e(k: int, coeff=1) -> WittElement:
    return WittElement({k: coeff})


def witt_c(coeff=1) -> WittElement:
    return WittElement({WITT_CENTRAL: coeff})


def _witt_pair(n, m) -> dict:
    # [e_n, e_m] = (m - n) e_{m+n}; the central element brackets to zero
    if n == m or WITT_CENTRAL in (n, m):
        return {}
    return {n + m: m - n}


def _virasoro_row_pair(n, m) -> dict:
    # 12 times the Virasoro rule; m^3 - m vanishes for m = 1 and -1
    if n == m or WITT_CENTRAL in (n, m):
        return {}
    rule = {n + m: 12 * (m - n)}
    if n + m == 0 and m * m != 1:
        rule[WITT_CENTRAL] = m**3 - m
    return rule


def _witt_degree(row) -> int | None:
    # e_k has degree k and c degree 0; None for a row of mixed degrees
    degrees = {0 if k == WITT_CENTRAL else k for k in row}
    return degrees.pop() if len(degrees) == 1 else None


def witt_bracket(u: WittElement, v: WittElement, virasoro: bool = False) -> WittElement:
    """[e_n, e_m] = (m - n) e_{m+n}, plus the central cocycle
    delta_{m+n,0} (m^3 - m)/12 * c when the Virasoro flag is set.
    The central element brackets to zero."""
    pair, scale = (_virasoro_row_pair, 12) if virasoro else (_witt_pair, 1)
    return bilinear(_WITT, u, v, pair, scale)


_WITT_LABEL = re.compile(r"e_?(-?[0-9]+)")


class WittTarget(_Labelled, Value):
    """The Witt algebra, or its Virasoro extension when the flag is set.
    Basis labels are ``e_<k>`` (or ``e<k>``) and ``c``."""

    __slots__ = ("virasoro",)

    def __init__(self, virasoro: bool = False):
        self._set(virasoro)

    def zero(self) -> WittElement:
        return WittElement()

    def _key(self, label: str):
        if label == "c":
            return WITT_CENTRAL
        m = isinstance(label, str) and _WITT_LABEL.fullmatch(label)
        if not m:
            raise KeyError(f"unknown Witt basis name {label!r} (use e_<k> or c)")
        return int(m.group(1))

    def bracket(self, u: WittElement, v: WittElement) -> WittElement:
        return witt_bracket(u, v, self.virasoro)

    def format(self, terms: Mapping) -> str:
        return format_linear(
            ("c" if k == WITT_CENTRAL else f"e_{k}", terms[k]) for k in sorted(terms)
        )


_WITT = WittTarget()  # the space of every WittElement


class WindowReport(NamedTuple):
    """Finite generation evidence: which e_n with |n| <= window lie in the
    span of iterated brackets up to the given depth.  This is evidence on a
    window, not a proof of generation."""

    depth: int
    window: int
    covered: tuple
    central_covered: bool
    span_dim: int

    def covers_window(self) -> bool:
        return len(self.covered) == 2 * self.window + 1


def generated_window(
    target: WittTarget, gens: Sequence[WittElement], depth: int, window: int
) -> WindowReport:
    """Iterate brackets of the generators in ``target`` up to ``depth``
    rounds (round 1 is the generators themselves), project the span onto
    the e_n with |n| <= window and c, and report which e_n lie in the
    projection."""
    if depth < 1 or window < 1:
        raise ValueError("need depth >= 1 and window >= 1")
    if not gens:
        raise ValueError("need a nonempty generator list")

    pair = _virasoro_row_pair if target.virasoro else _witt_pair
    space = Subspace(target.zero(), gens)
    span = _bracket_closure(space, pair, depth - 1, _witt_degree)
    # project the span onto e_{-window}..e_{window} and c, then test the
    # unit vector of each index the span reaches in the window; a row with
    # no key there projects to zero and is not inserted
    keys = sorted({k for row in span.echelon.rows() for k in row if abs(k) <= window})
    window_keys = {*keys, WITT_CENTRAL}
    restricted = Echelon()
    for row in span.echelon.rows():
        if not window_keys.isdisjoint(row):
            restricted.insert({k: x for k, x in row.items() if k in window_keys})
    return WindowReport(
        depth=depth,
        window=window,
        covered=tuple(k for k in keys if restricted.contains({k: (1, 0)})),
        central_covered=restricted.contains({WITT_CENTRAL: (1, 0)}),
        span_dim=span.dim,
    )
