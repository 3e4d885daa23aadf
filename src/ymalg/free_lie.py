"""Exact arithmetic in the free Lie algebra f(n) over Q(i), in a Lyndon basis.

Basis convention (fixed once; every downstream coefficient table depends on
it): letters are ordered 1 < 2 < ... < n, a Lyndon word is strictly smaller
than all of its proper rotations, and the basis element b(w) attached to a
Lyndon word w of length >= 2 is [b(u), b(v)] for the standard factorization
w = u v, where v is the lexicographically least (equivalently: longest
Lyndon) proper suffix of w.

Brackets of basis elements are rewritten into the basis by the classical
Lyndon bracketing recursion, memoized per word pair, in integers: the one
rule of every f(m) bracket over Gaussian-integer rows (``row_bilinear``),
of elements and echelon rows alike.  ``clear_caches`` resets every word
cache.  ``FreeTarget(m)`` is the space of every element of f(m), and a
morphism target.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .linalg import Combination, Value, bilinear
from .scalars import ONE, format_linear

DEFAULT_DEGREE_CAP = 12


class DegreeCapExceeded(ValueError):
    """Raised when an enumeration-driven operation exceeds its degree cap."""


def _check_cap(d: int, degree_cap: int) -> None:
    if d > degree_cap:
        raise DegreeCapExceeded(
            f"degree {d} exceeds the configured cap {degree_cap}"
        )


# -- words ------------------------------------------------------------------


def is_lyndon(word: Sequence[int]) -> bool:
    """True iff the word is strictly smaller than every proper rotation."""
    w = tuple(word)
    if not w:
        return False
    return all(w < w[r:] + w[:r] for r in range(1, len(w)))


class LyndonWord(tuple):
    """A Lyndon word over letters 1..n; compares and hashes as its letter tuple."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[int]):
        w = tuple(letters)
        if any(type(x) is not int or x < 1 for x in w):
            raise ValueError("letters are 1-based positive integers")
        if not is_lyndon(w):
            raise ValueError(f"{w} is not a Lyndon word")
        return tuple.__new__(cls, w)

    @classmethod
    def _trusted(cls, letters) -> "LyndonWord":
        # skips validation; for internal use on words known to be Lyndon
        return tuple.__new__(cls, letters)

    @property
    def letters(self) -> tuple:
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self)

    def __repr__(self):
        return "⟨" + ",".join(map(str, self)) + "⟩"


def lyndon_basis(n: int, d: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> list:
    """All Lyndon words of length d over n letters, in lexicographic order.

    The count equals ``free_lie_dim(n, d)``.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    _check_cap(d, degree_cap)
    return [LyndonWord._trusted(w) for w in _duval(n, d) if len(w) == d]


def _duval(n: int, maxlen: int) -> list:
    # Duval's algorithm: all Lyndon words of length <= maxlen, lex order.
    words = []
    w = [1]
    while w:
        words.append(tuple(w))
        w = [w[i % len(w)] for i in range(maxlen)]
        while w and w[-1] == n:
            w.pop()
        if w:
            w[-1] += 1
    return words


def _mobius(k: int) -> int:
    if k == 1:
        return 1
    result = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    if k > 1:
        result = -result
    return result


def free_lie_dim(n: int, d: int) -> int:
    """Dimension of the degree-d component of f(n): the necklace formula
    (1/d) * sum over e | d of mobius(d/e) * n**e."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    total = sum(_mobius(d // e) * n**e for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


# -- bracket rewriting core (integer coefficients) ---------------------------

_std_fact_cache: dict = {}
_bracket_cache: dict = {}


def standard_factorization(w: Sequence[int]) -> tuple:
    """Split a Lyndon word of length >= 2 at its lexicographically least
    proper suffix; both halves are Lyndon and the left is smaller."""
    w = tuple(w)
    hit = _std_fact_cache.get(w)
    if hit is not None:
        return hit
    if len(w) < 2:
        raise ValueError("standard factorization needs length >= 2")
    best = 1
    for s in range(2, len(w)):
        if w[s:] < w[best:]:
            best = s
    res = (w[:best], w[best:])
    _std_fact_cache[w] = res
    return res


def _bracket_words(u: tuple, v: tuple) -> dict:
    """[b(u), b(v)] as {lyndon word: int coefficient}.  u, v Lyndon."""
    if u == v:
        return {}
    if v < u:
        return {w: -c for w, c in _bracket_words(v, u).items()}
    hit = _bracket_cache.get((u, v))
    if hit is not None:
        return hit
    if len(u) == 1 or standard_factorization(u)[1] >= v:
        # (u, v) is the standard factorization of uv, so [b(u), b(v)] = b(uv)
        res = {LyndonWord._trusted(u + v): 1}
    else:
        # u = xy standard, y < v: [[X,Y],V] = [X,[Y,V]] - [Y,[X,V]]
        x, y = standard_factorization(u)
        res = {}
        for w, c in _bracket_words(y, v).items():
            for w2, c2 in _bracket_words(x, w).items():
                res[w2] = res.get(w2, 0) + c * c2
        for w, c in _bracket_words(x, v).items():
            for w2, c2 in _bracket_words(y, w).items():
                res[w2] = res.get(w2, 0) - c * c2
        res = {w: c for w, c in res.items() if c}
    _bracket_cache[(u, v)] = res
    return res


def clear_caches() -> None:
    _std_fact_cache.clear()
    _bracket_cache.clear()


# -- elements ----------------------------------------------------------------


class FreeTarget(Value):
    """The free Lie algebra f(m): the space of its elements, and a morphism
    target."""

    __slots__ = ("m",)

    def zero(self) -> "FreeLieElement":
        return FreeLieElement.zero(self.m)

    def bracket(self, u: "FreeLieElement", v: "FreeLieElement") -> "FreeLieElement":
        return bilinear(self, u, v, _bracket_words, 1)

    def format(self, terms: Mapping) -> str:
        words = sorted(terms, key=lambda w: (len(w), w))
        return format_linear(((repr(w), terms[w]) for w in words), "·")


class FreeLieElement(Combination):
    """A finite Q(i)-linear combination of Lyndon basis brackets of f(n).

    Immutable by convention: nothing in this package mutates ``terms`` after
    construction, and zero coefficients are pruned on entry.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping | None = None):
        if n < 1:
            raise ValueError("need n >= 1")
        words = {}
        for w, c in (terms or {}).items():
            word = w if isinstance(w, LyndonWord) else LyndonWord(w)
            if max(word) > n:
                raise ValueError(f"word {word!r} uses letters above {n}")
            words[word] = c
        super().__init__(FreeTarget(n), words)

    @property
    def n(self) -> int:
        return self.space.m

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "FreeLieElement":
        return cls(n, None)

    @classmethod
    def generator(cls, n: int, j: int) -> "FreeLieElement":
        """The generator x_j of f(n), 1 <= j <= n."""
        if not 1 <= j <= n:
            raise ValueError(f"generator index {j} out of range 1..{n}")
        return cls.basis_element(n, (j,))

    @classmethod
    def basis_element(cls, n: int, word) -> "FreeLieElement":
        return cls(n, {tuple(word): ONE})

    # -- views ------------------------------------------------------------

    def degrees(self) -> tuple:
        """Sorted degrees present in the element."""
        return tuple(sorted({len(w) for w in self.row}))

    @property
    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def homogeneous_part(self, d: int) -> "FreeLieElement":
        return self._like({w: z for w, z in self.row.items() if len(w) == d}, self.den)


def bracket(a: Combination, b: Combination) -> Combination:
    """The Lie bracket [a, b] in the space of ``a``, which ``b`` must share;
    in f(n), ``FreeTarget.bracket`` expands it in the Lyndon basis."""
    return a.space.bracket(a, b)


class GradedDims(Value):
    """Per-degree dimensions of a graded subquotient of f(n), degrees 1..D."""

    __slots__ = ("n", "dims")

    def __init__(self, n: int, dims: tuple):
        self._set(n, dims)
        for k, dim in enumerate(dims, start=1):
            cap = free_lie_dim(n, k)
            if not 0 <= dim <= cap:
                raise ValueError(
                    f"degree {k}: dimension {dim} outside 0..{cap}"
                )

    def __getitem__(self, d: int) -> int:
        if not 1 <= d <= len(self.dims):
            raise IndexError(f"degree {d} not tabulated")
        return self.dims[d - 1]

    @property
    def max_degree(self) -> int:
        return len(self.dims)

    def total(self) -> int:
        return sum(self.dims)
