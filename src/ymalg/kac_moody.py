"""Finite linear-algebra layer for Kac-Moody realization data.

Implements the generalized-Cartan-matrix predicate, the construction of a
realization (h, Pi, Pi-check) of an arbitrary square matrix A of rank r with
dim h = 2m - r, the verification predicate, and the minimal-n arithmetic for
the Yang-Mills quotient claims.  The algebras g(A) and g~(A) themselves are
out of scope; only the finite realization is built.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .linalg import Echelon, rank
from .scalars import ONE, ZERO, clear_denominators, parse_scalar


class MatrixData(NamedTuple):
    """A square matrix over Q(i) together with its exact rank."""

    m: int
    entries: tuple
    rank: int

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "MatrixData":
        if not all(isinstance(r, (list, tuple)) for r in rows):
            raise ValueError("each matrix row must be an array")
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise ValueError("matrix must be square and nonempty")
        entries = tuple(tuple(parse_scalar(c) for c in row) for row in rows)
        return cls(m=m, entries=entries, rank=rank(entries))

    @classmethod
    def from_json(cls, data) -> "MatrixData":
        import json

        if isinstance(data, str):
            data = json.loads(data)
        if isinstance(data, dict):
            data = data.get("matrix", data.get("A"))
        if not isinstance(data, list):
            raise ValueError("matrix JSON must be an array of rows")
        return cls.from_rows(data)


class GcmCheck(NamedTuple):
    ok: bool
    reason: str | None = None


def is_generalized_cartan(A: MatrixData) -> GcmCheck:
    """Check the generalized Cartan matrix conditions: integer entries,
    a_ii = 2, a_ij <= 0 off the diagonal, and a_ij = 0 implies a_ji = 0.
    On failure the first violated condition is reported."""
    for i, row in enumerate(A.entries):
        for j, a in enumerate(row):
            if not a.is_rational_integer():
                return GcmCheck(False, f"entry ({i+1},{j+1}) = {a} is not an integer")
    for i in range(A.m):
        if A.entries[i][i] != 2:
            return GcmCheck(
                False, f"diagonal entry ({i+1},{i+1}) = {A.entries[i][i]} is not 2"
            )
    # every entry is now a rational integer n, whose Z[i] pair is (n, 0)
    values = clear_denominators(
        {(i, j): a for i, row in enumerate(A.entries) for j, a in enumerate(row)}
    )[0]
    for i in range(A.m):
        for j in range(A.m):
            if i != j and values.get((i, j), (0, 0))[0] > 0:
                return GcmCheck(
                    False,
                    f"off-diagonal entry ({i+1},{j+1}) = {A.entries[i][j]} is positive",
                )
    for i in range(A.m):
        for j in range(A.m):
            if i != j and not A.entries[i][j] and A.entries[j][i]:
                return GcmCheck(
                    False,
                    f"entry ({i+1},{j+1}) vanishes but ({j+1},{i+1}) does not",
                )
    return GcmCheck(True, None)


class RealizationOfMatrix(NamedTuple):
    """A realization of an m x m matrix: roots as rows of ``pi`` (coordinates
    on h*), coroots as rows of ``pi_check`` (coordinates on h), with
    dim h = 2m - r and pairing <alpha_i-check, alpha_j> = a_ij exactly."""

    h_dim: int
    pi: tuple
    pi_check: tuple


def build_realization(A: MatrixData) -> RealizationOfMatrix:
    """Construct a realization of A on h of dimension 2m - r.

    Coroots are the first m coordinate rows; roots are rows of the augmented
    block [A^T | X], where X marks the columns of A outside the
    lexicographically first maximal independent column set, which forces the
    root rows to be independent.  ``verify_realization`` is its one check.
    """
    m, r = A.m, A.rank
    h_dim = 2 * m - r
    # columns of A = rows of A^T; lexicographically first independent subset
    ech = Echelon()
    independent = []
    for idx in range(m):
        if ech.insert(clear_denominators({i: A.entries[i][idx] for i in range(m)})[0]):
            independent.append(idx)
    fill = [idx for idx in range(m) if idx not in independent]
    pi = []
    for j in range(m):
        row = [A.entries[i][j] for i in range(m)] + [ZERO] * (m - r)
        if j in fill:
            row[m + fill.index(j)] = ONE
        pi.append(tuple(row))
    pi_check = tuple(
        tuple(ONE if k == i else ZERO for k in range(h_dim)) for i in range(m)
    )
    return RealizationOfMatrix(h_dim=h_dim, pi=tuple(pi), pi_check=pi_check)


def pairing_matrix(R: RealizationOfMatrix) -> list:
    """The recomputed pairing <alpha_i-check, alpha_j> as a dense matrix."""
    m = len(R.pi)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = ZERO
            for x, y in zip(R.pi_check[i], R.pi[j]):
                acc = acc + x * y
            row.append(acc)
        out.append(row)
    return out


def verify_realization(R: RealizationOfMatrix, A: MatrixData) -> bool:
    """Check both independence conditions, the exact pairing identity, and
    dim h = 2m - r."""
    m = A.m
    if R.h_dim != 2 * m - A.rank:
        return False
    if len(R.pi) != m or len(R.pi_check) != m:
        return False
    if any(len(row) != R.h_dim for row in R.pi):
        return False
    if any(len(row) != R.h_dim for row in R.pi_check):
        return False
    if rank(R.pi) != m or rank(R.pi_check) != m:
        return False
    pairing = pairing_matrix(R)
    return all(
        pairing[i][j] == A.entries[i][j] for i in range(m) for j in range(m)
    )


def ym_quotient_bound(A: MatrixData) -> int:
    """Minimal n for which g(A) or g~(A) is asserted to be a quotient of
    ym(n): 4 when r + 2 >= m, otherwise 2(m - r)."""
    if A.rank + 2 >= A.m:
        return 4
    return 2 * (A.m - A.rank)


def realization_to_json(R: RealizationOfMatrix) -> dict:
    return {
        "h_dim": R.h_dim,
        "pi": [[str(c) for c in row] for row in R.pi],
        "pi_check": [[str(c) for c in row] for row in R.pi_check],
        "pairing": [[str(c) for c in row] for row in pairing_matrix(R)],
    }
