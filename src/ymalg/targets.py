"""Target Lie algebras for morphisms out of ym(n).

Finite-dimensional algebras are given by a labelled basis and structure
constants (antisymmetry completed, Jacobi verified on construction); sl(m)
and the first Heisenberg algebra come built in.  The Witt algebra and its
Virasoro central extension are handled with exact finite-support elements
over the basis {e_k : k in Z} (+ c).

Generation in the infinite-dimensional algebras is only ever certified on a
finite index window: reports carry the bracket depth and window bound used,
so "covered" is never read as full generation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .linalg import Echelon, Subspace
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
                                s = acc.get(t, _ZERO) + coeff * coeff2
                                if s:
                                    acc[t] = s
                                else:
                                    acc.pop(t, None)
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
        for i, ci in u.coords.items():
            for j, cj in v.coords.items():
                cij = ci * cj
                for k, coeff in self._pair(i, j).items():
                    s = acc.get(k, _ZERO) + cij * coeff
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
        return TargetElement(self, acc)

    def __repr__(self):
        return f"{self.name}(dim={self.dim})"


_ZERO = GaussianRational(0)


class TargetElement:
    """An element of a StructureConstantAlgebra as a sparse coefficient vector."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureConstantAlgebra, coords: Mapping):
        self.algebra = algebra
        self.coords = {k: c for k, c in coords.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def _require_same(self, other: "TargetElement"):
        if not isinstance(other, TargetElement) or other.algebra is not self.algebra:
            raise ValueError("algebra mismatch")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.coords)
        for k, c in other.coords.items():
            s = out.get(k, _ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TargetElement(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TargetElement(self.algebra, {k: -c for k, c in self.coords.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, GaussianRational):
            scalar = GaussianRational(scalar)
        return TargetElement(
            self.algebra, {k: c * scalar for k, c in self.coords.items()}
        )

    __rmul__ = __mul__

    def bracket(self, other: "TargetElement") -> "TargetElement":
        return self.algebra.bracket(self, other)

    def _vector(self) -> dict:
        return self.coords

    def _like(self, coords: Mapping) -> "TargetElement":
        """An element of the same algebra with the given coordinates."""
        return TargetElement(self.algebra, coords)

    def __eq__(self, other):
        if not isinstance(other, TargetElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.coords.items())))

    def __repr__(self):
        return format_linear(
            (self.algebra.labels[k], self.coords[k]) for k in sorted(self.coords)
        )


# -- built-in algebras ---------------------------------------------------------


@lru_cache(maxsize=None)
def sl_algebra(m: int) -> StructureConstantAlgebra:
    """sl(m) with basis {E^{ij} : i != j} and {H_i = E^{ii} - E^{i+1,i+1}}.

    Brackets come from matrix commutators.  For m = 2 the classical basis
    (e, h, f) is exposed instead, with [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    """
    if m < 2:
        raise ValueError("need m >= 2")

    def mat_E(i, j):
        return {(i, j): 1}

    if m == 2:
        labels = ("e", "h", "f")
        mats = [mat_E(1, 2), {(1, 1): 1, (2, 2): -1}, mat_E(2, 1)]
    else:
        labels = []
        mats = []
        sep = "" if m <= 9 else "_"
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i != j:
                    labels.append(f"E{i}{sep}{j}")
                    mats.append(mat_E(i, j))
        for i in range(1, m):
            labels.append(f"H{i}")
            mats.append({(i, i): 1, (i + 1, i + 1): -1})
        labels = tuple(labels)

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
        # express a traceless matrix in the chosen basis
        coords = {}
        diag = [M.get((i, i), 0) for i in range(1, m + 1)]
        if m == 2:
            if M.get((1, 2), 0):
                coords[0] = M[(1, 2)]
            if diag[0]:
                coords[1] = diag[0]
            if M.get((2, 1), 0):
                coords[2] = M[(2, 1)]
        else:
            pos = 0
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i != j:
                        if M.get((i, j), 0):
                            coords[pos] = M[(i, j)]
                        pos += 1
            run = 0
            for i in range(m - 1):
                run += diag[i]
                if run:
                    coords[pos + i] = run
        return {k: GaussianRational(v) for k, v in coords.items()}

    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            coords = decompose(commutator(mats[i], mats[j]))
            if coords:
                brackets[(i, j)] = coords
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
    if not isinstance(data, dict) or "basis" not in data:
        raise ValueError('custom algebra JSON needs a "basis" list')
    labels = [str(x) for x in data["basis"]]
    index = {lab: k for k, lab in enumerate(labels)}

    def resolve(key):
        if isinstance(key, str):
            if key not in index:
                raise ValueError(f"unknown basis label {key!r} in brackets")
            return index[key]
        k = int(key)
        if not 0 <= k < len(labels):
            raise ValueError(f"basis index {k} out of range")
        return k

    brackets = {}
    for entry in data.get("brackets", []):
        i = resolve(entry["i"])
        j = resolve(entry["j"])
        coords = {resolve(k): parse_scalar(v) for k, v in entry["coords"].items()}
        brackets[(i, j)] = coords
    return StructureConstantAlgebra(labels, brackets, name=data.get("name", "custom"))


# -- subspaces, closures, series -----------------------------------------------


def subalgebra_closure(
    algebra: StructureConstantAlgebra, gens: Sequence[TargetElement]
) -> Subspace:
    """Smallest bracket-closed subspace containing the generators.

    Iterates brackets of the current basis rows against the generators and
    against the current rows until the dimension stabilizes.
    """
    if not gens:
        raise ValueError("need a nonempty generator list")
    space = Subspace(algebra.zero(), range(algebra.dim), gens)  # ValueError on mismatch
    while True:
        before = space.dim
        current = space.basis_elements()
        for i, a in enumerate(current):
            for b in list(gens) + current[i + 1 :]:
                space.add(algebra.bracket(a, b))
        if space.dim == before:
            return space


def _bracket_span(
    algebra: StructureConstantAlgebra, A: Subspace, B: Subspace
) -> Subspace:
    span = Subspace(algebra.zero(), range(algebra.dim))
    for a in A.basis_elements():
        for b in B.basis_elements():
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
    stabilize; solvable (resp. nilpotent) iff the series reaches zero."""
    algebra.zero()._require_same(space.zero)  # ValueError on algebra mismatch
    elems = space.basis_elements()
    if not all(
        space.contains(algebra.bracket(a, b))
        for i, a in enumerate(elems)
        for b in elems[i + 1 :]
    ):
        raise ValueError("subspace is not bracket-closed")

    derived = [space]
    while derived[-1].dim:
        nxt = _bracket_span(algebra, derived[-1], derived[-1])
        if nxt.dim == derived[-1].dim:
            break
        derived.append(nxt)

    lower = [space]
    while lower[-1].dim:
        nxt = _bracket_span(algebra, space, lower[-1])
        if nxt.dim == lower[-1].dim:
            break
        lower.append(nxt)

    return SeriesReport(
        derived_series=tuple(derived),
        lower_central_series=tuple(lower),
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
    nonzero = [img for img in images if not img.is_zero]
    if not nonzero:
        return ImageAnalysis(0, True, True, algebra.dim == 0)
    space = subalgebra_closure(algebra, nonzero)
    series = series_analysis(algebra, space)
    return ImageAnalysis(
        space.dim, series.is_solvable, series.is_nilpotent, space.dim == algebra.dim
    )


# -- Witt / Virasoro ------------------------------------------------------------


class WittElement:
    """Finite-support element sum c_k e_k (+ central part in Virasoro mode)."""

    __slots__ = ("terms", "central")

    def __init__(self, terms: Mapping | None = None, central=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = c if isinstance(c, GaussianRational) else parse_scalar(c)
                if c:
                    clean[int(k)] = c
        self.terms = clean
        if central is None:
            central = _ZERO
        elif not isinstance(central, GaussianRational):
            central = parse_scalar(central)
        self.central = central

    @property
    def is_zero(self) -> bool:
        return not self.terms and not self.central

    def __add__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, _ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return WittElement(out, self.central + other.central)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WittElement(
            {k: -c for k, c in self.terms.items()}, -self.central
        )

    def __mul__(self, scalar):
        if not isinstance(scalar, GaussianRational):
            scalar = GaussianRational(scalar)
        return WittElement(
            {k: c * scalar for k, c in self.terms.items()}, self.central * scalar
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        return self.terms == other.terms and self.central == other.central

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.central))

    def __repr__(self):
        pairs = [(f"e_{k}", self.terms[k]) for k in sorted(self.terms)]
        if self.central:
            pairs.append(("c", self.central))
        return format_linear(pairs)


def witt_e(k: int, coeff=1) -> WittElement:
    return WittElement({k: coeff})


def witt_c(coeff=1) -> WittElement:
    return WittElement(None, coeff)


def witt_zero() -> WittElement:
    return WittElement()


_TWELVE = GaussianRational(12)


def witt_bracket(u: WittElement, v: WittElement, virasoro: bool = False) -> WittElement:
    """[e_n, e_m] = (m - n) e_{m+n}, plus the central cocycle
    delta_{m+n,0} (m^3 - m)/12 * c when the Virasoro flag is set.
    The central element brackets to zero."""
    terms: dict = {}
    central = _ZERO
    for n, cn in u.terms.items():
        for m, cm in v.terms.items():
            if n == m:
                continue
            c = cn * cm
            s = terms.get(n + m, _ZERO) + c * (m - n)
            if s:
                terms[n + m] = s
            else:
                terms.pop(n + m, None)
            if virasoro and n + m == 0:
                central = central + c * GaussianRational(m**3 - m) / _TWELVE
    return WittElement(terms, central)


_CENTRAL_COL = (1, 0)  # sorts after every index column (0, k)


def _witt_columns(elem: WittElement) -> dict:
    cols = {(0, k): c for k, c in elem.terms.items()}
    if elem.central:
        cols[_CENTRAL_COL] = elem.central
    return cols


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
    gens: Sequence[WittElement],
    depth: int,
    window: int,
    virasoro: bool = False,
) -> WindowReport:
    """Iterate brackets of the generators up to ``depth`` rounds (round 1 is
    the generators themselves), row-reduce coordinates restricted to indices
    |n| <= window, and report which e_n lie in the resulting span."""
    if depth < 1 or window < 1:
        raise ValueError("need depth >= 1 and window >= 1")
    if not gens:
        raise ValueError("need a nonempty generator list")

    ech = Echelon()
    basis: list = []
    for g in gens:
        if ech.insert(_witt_columns(g)):
            basis.append(g)
    for _ in range(depth - 1):
        grew = False
        current = list(basis)
        for i, a in enumerate(current):
            for b in list(gens) + current[i + 1 :]:
                w = witt_bracket(a, b, virasoro)
                if not w.is_zero and ech.insert(_witt_columns(w)):
                    basis.append(w)
                    grew = True
        if not grew:
            break

    # restrict the span to the window columns and test each unit vector
    window_ech = Echelon()
    for elem in basis:
        cols = {
            col: c
            for col, c in _witt_columns(elem).items()
            if col == _CENTRAL_COL or abs(col[1]) <= window
        }
        window_ech.insert(cols)
    covered = tuple(
        k
        for k in range(-window, window + 1)
        if window_ech.contains({(0, k): GaussianRational(1)})
    )
    central = window_ech.contains({_CENTRAL_COL: GaussianRational(1)})
    return WindowReport(
        depth=depth,
        window=window,
        covered=covered,
        central_covered=central,
        span_dim=ech.dim,
    )
