"""Graded presentations of Lie algebras, the graded ideal their relators
generate, and dimensions; the Yang-Mills presentations are the main case.

``Presentation(n, relators)`` presents f(n) modulo the Lie ideal generated by
homogeneous relators of degree >= 2.  ym(n) is the quotient by the relators
r_j = sum over i of [x_i, [x_i, x_j]], of degree 3; the "strong" presentation
instead kills every [x_i, [x_i, x_j]] individually.  Serre relators, of
degree 2 and up, present the positive part n_+ of a Kac-Moody algebra g(A);
the strong relators are the Serre relators of A = 3I - J (2 on the diagonal,
-1 off it).  So strong ym(n) is n_+ of g(3I - J): sl(3)'s for n = 2, and
affine A2^(1)'s for n = 3, whose dims are 3, 3, 2 repeating.

Since f(n) is generated in degree 1, the graded components of the ideal close
under left bracketing with the generators alone: I_d is the span of the
degree-d relators and of [V(n), I_{d-1}].
"""

from __future__ import annotations

from functools import lru_cache

from .free_lie import (
    DEFAULT_DEGREE_CAP,
    FreeLieElement,
    FreeTarget,
    GradedDims,
    _bracket_words,
    _check_cap,
    bracket,
    free_lie_dim,
)
from .linalg import Subspace, Value, require_in


class Presentation(Value):
    """Generators x_1..x_n of f(n) and relators: elements of f(n), each zero
    or homogeneous of degree >= 2."""

    __slots__ = ("n", "relators")

    def __init__(self, n: int, relators: tuple):
        self._set(n, tuple(relators))
        if n < 1:
            raise ValueError("need n >= 1")
        for r in self.relators:
            if not isinstance(r, FreeLieElement) or r.n != n:
                raise ValueError(f"relator {r!r} is not an element of f({n})")
            if not r.is_zero and (not r.is_homogeneous or r.degrees()[0] < 2):
                raise ValueError("relators must be homogeneous of degree >= 2")


@lru_cache(maxsize=None)
def ym_relations(n: int, strong: bool = False) -> Presentation:
    """The Yang-Mills presentation on n generators.

    Weak form: r_j = sum_i [x_i,[x_i,x_j]] for j = 1..n (r_j may be the zero
    element, e.g. for n = 1).  Strong form: the n^2 brackets [x_i,[x_i,x_j]]
    with the identically-zero i = j ones dropped.
    """
    grid = strong_relation_elements(n)
    if strong:
        relators = tuple(elem for (i, j), elem in grid if i != j)
    else:
        # the grid runs over i first, so column j is every n-th entry
        relators = tuple(
            sum((elem for _, elem in grid[j::n]), FreeLieElement.zero(n))
            for j in range(n)
        )
    return Presentation(n, relators)


def strong_relation_elements(n: int) -> list:
    """All n^2 strong relation elements [x_i,[x_i,x_j]], labelled by (i, j).

    Includes the identically-zero i = j entries; the strong
    ``relation_residuals`` report lists every one of them.
    """
    x = [FreeLieElement.generator(n, j) for j in range(1, n + 1)]
    return [
        ((i + 1, j + 1), bracket(x[i], bracket(x[i], x[j])))
        for i in range(n)
        for j in range(n)
    ]


@lru_cache(maxsize=None)
def _ideal_component(pres: Presentation, d: int) -> Subspace:
    n = pres.n
    # a zero relator has no degree, so it is never picked
    space = Subspace(
        FreeLieElement.zero(n), (r for r in pres.relators if r.degrees() == (d,))
    )
    if d > 1:
        generators = [{(j,): (1, 0)} for j in range(1, n + 1)]
        prev_rows = _ideal_component(pres, d - 1).echelon.rows()
        space.echelon.insert_brackets(
            ((x, row) for row in prev_rows for x in generators), _bracket_words
        )
    return space


def ideal_graded_component(
    pres: Presentation, d: int, degree_cap: int = DEFAULT_DEGREE_CAP
) -> Subspace:
    """Degree-d component of the two-sided Lie ideal generated by the
    relators, as a Subspace of f(n)_d: the degree-d relators and the
    brackets of the generators with the degree-(d-1) component, by exact row
    reduction.  Degrees below the least relator degree give the zero
    subspace.  The result is cached and shared: do not add to it."""
    if d < 1:
        raise ValueError("need d >= 1")
    _check_cap(d, degree_cap)
    return _ideal_component(pres, d)


def ym_dim(
    n: int,
    d: int,
    strong: bool = False,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> int:
    """dim ym(n)_d = free_lie_dim(n, d) - dim of the ideal component.

    Degrees 1 and 2 are untouched: the Yang-Mills relators have degree 3,
    so below it nothing is built.
    """
    if d < 3:
        _check_cap(d, degree_cap)
        return free_lie_dim(n, d)
    pres = ym_relations(n, strong)
    return free_lie_dim(n, d) - ideal_graded_component(pres, d, degree_cap).dim


def ym_graded_dims(
    n: int,
    max_degree: int,
    strong: bool = False,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> GradedDims:
    """dim ym(n)_d for d = 1..max_degree, refused over the cap before any work."""
    _check_cap(max_degree, degree_cap)
    return GradedDims(
        n=n,
        dims=tuple(
            ym_dim(n, d, strong, degree_cap) for d in range(1, max_degree + 1)
        ),
    )


def is_zero_in_ym(
    pres: Presentation,
    a: FreeLieElement,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> bool:
    """True iff every homogeneous part of ``a`` lies in the corresponding
    graded component of the relator ideal."""
    return all(ideal_membership_by_degree(pres, a, degree_cap).values())


def ideal_membership_by_degree(
    pres: Presentation,
    a: FreeLieElement,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> dict:
    """Per-degree ideal membership of the homogeneous parts of ``a``."""
    require_in(FreeTarget(pres.n), a)
    degrees = a.degrees()
    _check_cap(max(degrees, default=0), degree_cap)  # before any component is built
    return {
        d: ideal_graded_component(pres, d, degree_cap).contains(a.homogeneous_part(d))
        for d in degrees
    }


# -- dimension tables ---------------------------------------------------------


def dims_table(
    n: int,
    max_degree: int,
    strong: bool = False,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> list:
    """Rows of (degree, free_dim, ideal_dim, ym_dim): a view of ``ym_graded_dims``."""
    if max_degree < 1:
        raise ValueError("need max_degree >= 1")
    rows = []
    for d, ym in enumerate(ym_graded_dims(n, max_degree, strong, degree_cap).dims, 1):
        free = free_lie_dim(n, d)
        rows.append(dict(degree=d, free_dim=free, ideal_dim=free - ym, ym_dim=ym))
    return rows


def dims_table_csv(rows: list) -> str:
    columns = ("degree", "free_dim", "ideal_dim", "ym_dim")
    lines = [",".join(columns)]
    lines += [",".join(str(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"
