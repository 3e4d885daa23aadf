"""Target Lie algebras for morphisms out of ym(n).

Finite-dimensional algebras are given by a labelled basis and structure
constants (antisymmetry completed, Jacobi verified on construction); sl(m)
and the first Heisenberg algebra come built in.  ``WittTarget`` is the Witt
algebra or its Virasoro central extension, with exact finite-support
elements over the basis {e_k : k in Z} (+ c).  Every target has the same
element protocol: ``zero()``, ``bracket(u, v)``, ``basis_element(label)``
and ``element({label: scalar})``.

Generation in the infinite-dimensional algebras is only ever certified on a
finite index window: reports carry the bracket depth and window bound used,
so "covered" is never read as full generation.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .linalg import Combination, Subspace, accumulate
from .scalars import GaussianRational, format_linear, parse_scalar


# -- structure-constant algebras ----------------------------------------------


class StructureConstantAlgebra:
    """A finite-dimensional Lie algebra over Q(i) by basis and constants.

    ``brackets`` maps ordered index pairs (i, j) to sparse coefficient
    vectors {k: scalar} for [b_i, b_j].  Antisymmetric completion is applied;
    conflicting (i, j)/(j, i) entries or a Jacobi failure raise ValueError.
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
            coords = {
                k: (c if isinstance(c, GaussianRational) else parse_scalar(c))
                for k, c in vec.items()
            }
            coords = {k: c for k, c in coords.items() if c}
            if i == j:
                if coords:
                    raise ValueError(f"[b_{i}, b_{i}] must vanish")
                continue
            key, flip = ((i, j), False) if i < j else ((j, i), True)
            if flip:
                coords = {k: -c for k, c in coords.items()}
            if key in table and table[key] != coords:
                raise ValueError(f"antisymmetry conflict on pair {key}")
            table[key] = coords
        self._table = table
        self._check_jacobi()

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _pair(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self._table.get((i, j), {})
        return {k: -c for k, c in self._table.get((j, i), {}).items()}

    def _check_jacobi(self):
        m = self.dim
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j + 1, m):
                    acc: dict = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, coeff in self._pair(a, b).items():
                            for t, coeff2 in self._pair(l, c).items():
                                accumulate(acc, t, coeff * coeff2)
                    if acc:
                        raise ValueError(
                            "Jacobi identity fails on basis triple "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    # -- elements ---------------------------------------------------------

    def zero(self) -> "TargetElement":
        return TargetElement(self, {})

    def basis_element(self, label) -> "TargetElement":
        idx = self._resolve(label)
        return TargetElement(self, {idx: GaussianRational(1)})

    def element(self, coords: Mapping) -> "TargetElement":
        out = {}
        for key, c in coords.items():
            c = c if isinstance(c, GaussianRational) else parse_scalar(c)
            if c:
                out[self._resolve(key)] = c
        return TargetElement(self, out)

    def _resolve(self, key) -> int:
        if isinstance(key, str):
            if key not in self._index:
                raise KeyError(
                    f"unknown basis label {key!r} in {self.name} "
                    f"(has {', '.join(self.labels)})"
                )
            return self._index[key]
        idx = int(key)
        if not 0 <= idx < self.dim:
            raise KeyError(f"basis index {idx} out of range for {self.name}")
        return idx

    def bracket(self, u: "TargetElement", v: "TargetElement") -> "TargetElement":
        """Bilinear extension of the structure constants."""
        if u.algebra is not self or v.algebra is not self:
            raise ValueError("algebra mismatch in bracket")
        acc: dict = {}
        for i, ci in u.terms.items():
            for j, cj in v.terms.items():
                cij = ci * cj
                for k, coeff in self._pair(i, j).items():
                    accumulate(acc, k, cij * coeff)
        return TargetElement(self, acc)

    def __repr__(self):
        return f"{self.name}(dim={self.dim})"


class TargetElement(Combination):
    """An element of a StructureConstantAlgebra as a sparse coefficient vector."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: StructureConstantAlgebra, terms: Mapping):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if c}

    def _space(self) -> StructureConstantAlgebra:
        return self.algebra

    def _like(self, terms: Mapping) -> "TargetElement":
        """An element of the same algebra with the given coordinates."""
        return TargetElement(self.algebra, terms)

    def bracket(self, other: "TargetElement") -> "TargetElement":
        return self.algebra.bracket(self, other)

    def __repr__(self):
        return format_linear(
            (self.algebra.labels[k], self.terms[k]) for k in sorted(self.terms)
        )


# -- built-in algebras ---------------------------------------------------------


@lru_cache(maxsize=None)
def sl_algebra(m: int) -> StructureConstantAlgebra:
    """sl(m) with basis {E^{ij} : i != j} and {H_i = E^{ii} - E^{i+1,i+1}}.

    Brackets come from matrix commutators.  For m = 2 the classical basis
    (e, h, f) = (E^{12}, H_1, E^{21}) is exposed instead, with [h,e] = 2e,
    [h,f] = -2f, [e,f] = h.
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
        return {k: GaussianRational(v) for k, v in coords.items()}

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
        {(0, 1): {2: GaussianRational(1)}},
        name="heisenberg",
    )


def algebra_from_json(data) -> StructureConstantAlgebra:
    """Load a custom algebra from the JSON shape
    {"basis": [names], "brackets": [{"i": ..., "j": ..., "coords": {name: scalar}}]}.

    Unlisted pairs default to zero; "i"/"j" may be labels or 0-based indices.
    """
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
        brackets[(i, j)] = coords
    return StructureConstantAlgebra(labels, brackets, name=data.get("name", "custom"))


# -- subspaces, closures, series -----------------------------------------------


def subalgebra_closure(
    algebra: StructureConstantAlgebra, gens: Sequence[TargetElement]
) -> Subspace:
    """Smallest bracket-closed subspace containing the generators (zero
    generators allowed; all-zero generators close to the zero subspace)."""
    if not gens:
        raise ValueError("need a nonempty generator list")
    space = Subspace(algebra.zero(), gens)  # ValueError on mismatch
    return _bracket_closure(space, algebra.bracket)


def _bracket_closure(space: Subspace, bracket, rounds=None) -> Subspace:
    """Add [S, S] to the span S, round after round, until it stops growing
    or ``rounds`` rounds (None: no limit) have run.

    A round brackets only the reduced-basis elements whose pivot is new
    since the last round, against the older elements and the later new ones.
    That gives the same span: an old element differs from its predecessor
    in the previous basis by a combination of new ones, and the brackets of
    the previous basis are already in the span."""
    seen: set = set()  # pivots bracketed in earlier rounds
    while rounds is None or rounds > 0:
        before = space.dim
        basis = space.basis_elements()
        old = [b for b in basis if min(b.terms) in seen]
        new = [b for b in basis if min(b.terms) not in seen]
        for i, a in enumerate(new):
            for b in old + new[i + 1 :]:
                space.add(bracket(a, b))
        seen.update(min(b.terms) for b in new)
        if space.dim == before:
            break
        rounds = None if rounds is None else rounds - 1
    return space


def _bracket_span(
    algebra: StructureConstantAlgebra, A: Subspace, B: Subspace
) -> Subspace:
    """[A, B] as a Subspace; [A, A] brackets each pair of basis elements once."""
    left = A.basis_elements()
    span = Subspace(algebra.zero())
    for i, a in enumerate(left):
        for b in left[i + 1 :] if B is A else B.basis_elements():
            span.add(algebra.bracket(a, b))
    return span


@dataclass(frozen=True)
class SeriesReport:
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
    algebra.zero()._require_same(space.zero)  # ValueError on algebra mismatch
    square = _bracket_span(algebra, space, space)
    if not all(space.contains(x) for x in square.basis_elements()):
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


@dataclass(frozen=True)
class ImageAnalysis:
    """The subalgebra generated by some elements of a finite algebra."""

    image_dim: int
    is_solvable: bool
    is_nilpotent: bool
    is_surjective: bool


def analyze_image(
    algebra: StructureConstantAlgebra, images: Sequence[TargetElement]
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
    Virasoro mode, under the key WITT_CENTRAL)."""

    __slots__ = ()

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        for k, c in (terms or {}).items():
            c = c if isinstance(c, GaussianRational) else parse_scalar(c)
            if c:
                clean[k if k == WITT_CENTRAL else int(k)] = c
        self.terms = clean

    def _space(self) -> str:
        return "witt"

    def _like(self, terms: Mapping) -> "WittElement":
        return WittElement(terms)

    def __repr__(self):
        return format_linear(
            ("c" if k == WITT_CENTRAL else f"e_{k}", self.terms[k])
            for k in sorted(self.terms)
        )


def witt_e(k: int, coeff=1) -> WittElement:
    return WittElement({k: coeff})


def witt_c(coeff=1) -> WittElement:
    return WittElement({WITT_CENTRAL: coeff})


_TWELVE = GaussianRational(12)


def witt_bracket(u: WittElement, v: WittElement, virasoro: bool = False) -> WittElement:
    """[e_n, e_m] = (m - n) e_{m+n}, plus the central cocycle
    delta_{m+n,0} (m^3 - m)/12 * c when the Virasoro flag is set.
    The central element brackets to zero."""
    terms: dict = {}
    for n, cn in u.terms.items():
        for m, cm in v.terms.items():
            if n == m or WITT_CENTRAL in (n, m):
                continue
            c = cn * cm
            accumulate(terms, n + m, c * (m - n))
            if virasoro and n + m == 0:
                accumulate(terms, WITT_CENTRAL, c * GaussianRational(m**3 - m) / _TWELVE)
    return WittElement(terms)


_WITT_LABEL = re.compile(r"^e_?(-?\d+)$")


@dataclass(frozen=True)
class WittTarget:
    """The Witt algebra, or its Virasoro extension when the flag is set.
    Basis labels are ``e_<k>`` (or ``e<k>``) and ``c``."""

    virasoro: bool = False

    def zero(self) -> WittElement:
        return WittElement()

    def basis_element(self, label: str) -> WittElement:
        return WittElement({self._key(label): 1})

    def element(self, coords: Mapping) -> WittElement:
        """Sum of the terms, so aliases such as ``e1`` and ``e_1`` add up."""
        terms: dict = {}
        for label, c in coords.items():
            key = self._key(label)
            c = c if isinstance(c, GaussianRational) else parse_scalar(c)
            accumulate(terms, key, c)
        return WittElement(terms)

    def _key(self, label: str):
        if label == "c":
            return WITT_CENTRAL
        m = _WITT_LABEL.match(label)
        if not m:
            raise KeyError(f"unknown Witt basis name {label!r} (use e_<k> or c)")
        return int(m.group(1))

    def bracket(self, u: WittElement, v: WittElement) -> WittElement:
        return witt_bracket(u, v, self.virasoro)


@dataclass(frozen=True)
class WindowReport:
    """Finite generation evidence: which e_n with |n| <= window lie in the
    span of iterated brackets up to the given depth.  This is evidence on a
    window, not a proof of generation."""

    depth: int
    window: int
    covered: tuple
    central_covered: bool
    span_dim: int

    def covers_window(self) -> bool:
        return set(self.covered) == set(range(-self.window, self.window + 1))


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

    span = _bracket_closure(Subspace(target.zero(), gens), target.bracket, depth - 1)
    # project the span onto e_{-window}..e_{window} and c, then test each
    # unit vector
    keys = (*range(-window, window + 1), WITT_CENTRAL)
    window_keys = set(keys)
    restricted = Subspace(
        target.zero(),
        (
            elem._like({k: c for k, c in elem.terms.items() if k in window_keys})
            for elem in span.basis_elements()
        ),
    )
    return WindowReport(
        depth=depth,
        window=window,
        covered=tuple(k for k in keys[:-1] if restricted.contains(witt_e(k))),
        central_covered=restricted.contains(witt_c()),
        span_dim=span.dim,
    )
