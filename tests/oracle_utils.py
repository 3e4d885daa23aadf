"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's rewriting and elimination
code paths: Lyndon words come from brute-force rotation checks, brackets are
cross-checked in the tensor algebra (noncommutative words), and ranks come
from a naive division-based Gaussian elimination over Q(i).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from ymalg.scalars import GaussianRational


# -- brute-force Lyndon enumeration ------------------------------------------


def brute_lyndon_words(n: int, d: int) -> list:
    """All length-d words strictly smaller than every proper rotation."""
    out = []
    for w in product(range(1, n + 1), repeat=d):
        if all(w < w[r:] + w[:r] for r in range(1, d)):
            out.append(w)
    return out


# -- tensor-algebra expansion of standard bracketings --------------------------


def _least_suffix_split(w: tuple) -> tuple:
    best = 1
    for s in range(2, len(w)):
        if w[s:] < w[best:]:
            best = s
    return w[:best], w[best:]


_word_cache: dict = {}


def tensor_of_word(w: tuple) -> dict:
    """The standard bracketing of a Lyndon word, expanded into
    noncommutative words with integer coefficients."""
    w = tuple(w)
    hit = _word_cache.get(w)
    if hit is not None:
        return hit
    if len(w) == 1:
        res = {w: 1}
    else:
        u, v = _least_suffix_split(w)
        res = tensor_commutator_int(tensor_of_word(u), tensor_of_word(v))
    _word_cache[w] = res
    return res


def tensor_commutator_int(A: dict, B: dict) -> dict:
    out: dict = {}
    for wa, ca in A.items():
        for wb, cb in B.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
            out[wb + wa] = out.get(wb + wa, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def tensor_of_element(elem) -> dict:
    """Expand a FreeLieElement into tensor-algebra coordinates over Q(i)."""
    out: dict = {}
    for w, c in elem.terms.items():
        for word, k in tensor_of_word(tuple(w)).items():
            s = out.get(word, GaussianRational(0)) + c * k
            if s:
                out[word] = s
            else:
                out.pop(word, None)
    return out


def tensor_commutator(A: dict, B: dict) -> dict:
    out: dict = {}
    zero = GaussianRational(0)
    for wa, ca in A.items():
        for wb, cb in B.items():
            c = ca * cb
            for word, sgn in ((wa + wb, 1), (wb + wa, -1)):
                s = out.get(word, zero) + (c if sgn > 0 else -c)
                if s:
                    out[word] = s
                else:
                    out.pop(word, None)
    return out


# -- naive exact rank ------------------------------------------------------------


def fraction_rank(rows) -> int:
    """Division-based Gaussian elimination over Q(i); independent of the
    fraction-free engine in ymalg.linalg."""
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [x / lead for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


# -- Hilbert-series dimensions ------------------------------------------------------


def hilbert_series_dims(n: int, max_degree: int) -> list:
    """Weak dims of ym(n) in degrees 1..max_degree, read off the Hilbert
    series H(t) = 1/(1 - n t + n t^3 - t^4) of U(ym(n)) (Connes and
    Dubois-Violette) by PBW inversion: H = prod_d (1 - t^d)^(-c_d), so the
    log-derivative t H'/H has coefficients b_k = sum over d | k of d c_d.
    Integer arithmetic only; no brackets, no elimination."""
    q = [1, -n, 0, n, -1]  # 1/H
    h = [1] + [0] * max_degree  # h = 1/q, term by term
    for k in range(1, max_degree + 1):
        h[k] = -sum(q[j] * h[k - j] for j in range(1, min(k, 4) + 1))
    # t H'/H = t (-q') / q = t (n - 3n t^2 + 4 t^3) H
    tq = [0, n, 0, -3 * n, 4]
    b = [
        sum(tq[j] * h[k - j] for j in range(1, min(k, 4) + 1))
        for k in range(max_degree + 1)
    ]
    dims = [0] * (max_degree + 1)
    for k in range(1, max_degree + 1):
        rest = b[k] - sum(d * dims[d] for d in range(1, k) if k % d == 0)
        assert rest % k == 0
        dims[k] = rest // k
    return dims[1:]


# -- random data ------------------------------------------------------------------


def rand_scalar(rng: random.Random, span: int = 3) -> GaussianRational:
    def part():
        return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))

    return GaussianRational(part(), part())


def rand_nonzero_scalar(rng: random.Random, span: int = 3) -> GaussianRational:
    while True:
        c = rand_scalar(rng, span)
        if c:
            return c


def rand_homogeneous(n: int, d: int, rng: random.Random, nterms: int = 3):
    from ymalg.free_lie import FreeLieElement, lyndon_basis

    basis = lyndon_basis(n, d)
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(basis)] = rand_scalar(rng)
    return FreeLieElement(n, terms)
