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
    return len(fraction_rref(rows))


def fraction_rref(rows) -> list:
    """The nonzero rows of the reduced row echelon form, by the same
    division-based elimination."""
    mat = [list(row) for row in rows]
    if not mat:
        return []
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
    return mat[:rank]


# -- Gaussian rationals as (Fraction, Fraction) pairs ---------------------------------
#
# The scalar oracle: (re, im) pairs of Fractions, with the scalar text grammar
# rendered from them.  Nothing here reads GaussianRational's stored ints.


def pair_add(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], x[1] + y[1])


def pair_sub(x: tuple, y: tuple) -> tuple:
    return (x[0] - y[0], x[1] - y[1])


def pair_mul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_div(x: tuple, y: tuple) -> tuple:
    norm = y[0] * y[0] + y[1] * y[1]
    return pair_mul(x, (y[0] / norm, -y[1] / norm))


def pair_str(x: tuple) -> str:
    """"3/2", "-1+2i", "i", "-3/4i", "0": the real part if nonzero, then a
    signed imaginary part with a unit coefficient left out."""
    re, im = x
    if not im:
        return str(re)
    body = ("" if abs(im) == 1 else str(abs(im))) + "i"
    sign = "-" if im < 0 else "+" if re else ""
    return (str(re) if re else "") + sign + body


# -- bracket closure over Fraction pairs ----------------------------------------------
#
# Vectors are {key: (re, im)} dicts of Fractions.  A closure round brackets
# every pair of the current basis; the span is re-reduced by fraction_rref
# after each round.  Nothing here calls ymalg.targets or ymalg.linalg.


def _cadd_into(acc: dict, key, x: tuple) -> None:
    re, im = acc.get(key, (0, 0))
    re, im = re + x[0], im + x[1]
    if re or im:
        acc[key] = (Fraction(re), Fraction(im))
    else:
        acc.pop(key, None)


def oracle_witt_bracket(u: dict, v: dict, virasoro: bool) -> dict:
    """[e_n, e_m] = (m - n) e_{m+n} + delta_{m+n,0} (m^3 - m)/12 c, with the
    central element under the key "c"."""
    out: dict = {}
    for n, x in u.items():
        for m, y in v.items():
            if "c" in (n, m):
                continue
            xy = pair_mul(x, y)
            _cadd_into(out, n + m, pair_mul(xy, (Fraction(m - n), Fraction(0))))
            if virasoro and n + m == 0:
                central = (Fraction(m**3 - m, 12), Fraction(0))
                _cadd_into(out, "c", pair_mul(xy, central))
    return out


def oracle_sl_matrix(coords: dict) -> dict:
    """The matrix {(i, j): (re, im)} of sum c * label over {label: (re, im)},
    with sl(m) labels "Eij" (or "Ei_j"), "Hi" = E_ii - E_{i+1,i+1}, and
    e, h, f for sl(2)."""
    out: dict = {}
    for label, c in coords.items():
        label = {"e": "E12", "h": "H1", "f": "E21"}.get(label, label)
        if label.startswith("H"):
            i = int(label[1:])
            _cadd_into(out, (i, i), c)
            _cadd_into(out, (i + 1, i + 1), (-c[0], -c[1]))
        else:
            i, j = label[1:].split("_") if "_" in label else (label[1], label[2:])
            _cadd_into(out, (int(i), int(j)), c)
    return out


# sl(2) in the basis (a, b, c) = (e/2, i*h, 3f), as custom-algebra JSON: its
# constants have a denominator and i.  SL2_SCALED_LABELS gives each basis
# element as an sl(2) label and a factor, for oracle_sl_matrix.
SL2_SCALED = {
    "basis": ["a", "b", "c"],
    "brackets": [
        {"i": "a", "j": "b", "coords": {"a": "-2i"}},
        {"i": "a", "j": "c", "coords": {"b": "-3/2i"}},
        {"i": "b", "j": "c", "coords": {"c": "-2i"}},
    ],
}
SL2_SCALED_LABELS = {
    "a": ("e", (Fraction(1, 2), Fraction(0))),
    "b": ("h", (Fraction(0), Fraction(1))),
    "c": ("f", (Fraction(3), Fraction(0))),
}


def oracle_matrix_bracket(A: dict, B: dict) -> dict:
    out: dict = {}
    for (a, b), x in A.items():
        for (c, d), y in B.items():
            if b == c:
                _cadd_into(out, (a, d), pair_mul(x, y))
            if d == a:
                _cadd_into(out, (c, b), pair_mul((-x[0], -x[1]), y))
    return out


def _oracle_basis(vectors: list) -> list:
    keys = sorted({k for v in vectors for k in v}, key=repr)
    zero = (Fraction(0), Fraction(0))
    rows = [[GaussianRational(*v.get(k, zero)) for k in keys] for v in vectors]
    return [
        {k: (c.re, c.im) for k, c in zip(keys, row) if c}
        for row in fraction_rref(rows)
    ]


def oracle_closure_dim(gens: list, bracket, rounds=None) -> int:
    """Dimension of the span of ``gens`` after ``rounds`` all-pairs bracket
    rounds (None: until the span stops growing)."""
    basis = _oracle_basis(gens)
    while rounds is None or rounds > 0:
        brackets = [
            bracket(a, b) for i, a in enumerate(basis) for b in basis[i + 1 :]
        ]
        grown = _oracle_basis(basis + brackets)
        if len(grown) == len(basis):
            break
        basis = grown
        rounds = None if rounds is None else rounds - 1
    return len(basis)


def oracle_matrix_evaluate(terms: dict, images: dict) -> dict:
    """The matrix of sum c * b(w) over {Lyndon word w: (re, im)} terms, where
    b(w) is the standard bracketing of w (split at its least proper suffix)
    with letter j sent to the matrix ``images[j]``."""

    def word(w):
        if len(w) == 1:
            return images[w[0]]
        u, v = _least_suffix_split(w)
        return oracle_matrix_bracket(word(u), word(v))

    out: dict = {}
    for w, c in terms.items():
        for key, x in word(tuple(w)).items():
            _cadd_into(out, key, pair_mul(c, x))
    return out


# -- the sl(2) case study's closed forms --------------------------------------------


def oracle_sl2_conditions(branch: str, alpha, beta, gamma) -> tuple:
    """The closed-form conditions for a morphism ym(3) -> sl(2) with
    phi(x_k) = alpha_k e + beta_k h + gamma_k f (k = 1, 2) and phi(x_3) = e
    ("nilpotent") or h ("semisimple"), on (re, im) Fraction pairs, with
    x.y = x_1 y_1 + x_2 y_2.  Returns (r3, rj): three values, and three
    pairs (k = 1, 2) of c_a alpha_k + c_b beta_k + c_g gamma_k, for

        nilpotent:  r3 = (2 b.b + a.g, b.g, g.g)
                    (c_a, c_b, c_g) = (2 b.b + a.g, -2 a.b, -(a.a + 1)),
                                      (-b.g, 2 a.g, -a.b),
                                      (-g.g, -2 b.g, 2 b.b + a.g)
        semisimple: r3 = (a.b, a.g, b.g)
                    (c_a, c_b, c_g) = (2 b.b + 2 + a.g, -2 a.b, -a.a),
                                      (-b.g, 2 a.g, -a.b),
                                      (-g.g, -2 b.g, 2 b.b + 2 + a.g)
    """
    a, b, g = alpha, beta, gamma

    def dot(x, y):
        return pair_add(pair_mul(x[0], y[0]), pair_mul(x[1], y[1]))

    def times(k, x):
        return pair_mul((Fraction(k), Fraction(0)), x)

    aa, bb, gg = dot(a, a), dot(b, b), dot(g, g)
    ab, ag, bg = dot(a, b), dot(a, g), dot(b, g)
    one = (Fraction(1), Fraction(0))
    if branch == "nilpotent":
        s = pair_add(times(2, bb), ag)
        r3 = (s, bg, gg)
        first = (s, times(-2, ab), times(-1, pair_add(aa, one)))
    else:
        s = pair_add(pair_add(times(2, bb), times(2, one)), ag)
        r3 = (ab, ag, bg)
        first = (s, times(-2, ab), times(-1, aa))
    coeffs = (
        first,
        (times(-1, bg), times(2, ag), times(-1, ab)),
        (times(-1, gg), times(-2, bg), s),
    )
    rj = tuple(
        tuple(
            pair_add(
                pair_add(pair_mul(ca, a[k]), pair_mul(cb, b[k])), pair_mul(cg, g[k])
            )
            for k in (0, 1)
        )
        for ca, cb, cg in coeffs
    )
    return r3, rj


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


# -- Kac-Moody root multiplicities --------------------------------------------------


def _symmetrized_form(A) -> list:
    """The invariant form (alpha_i|alpha_j) = d_i a_ij of a symmetrizable
    matrix A: d_i > 0 are Fractions, 1 on the first index of each connected
    component, with diag(d) A symmetric (AssertionError otherwise)."""
    m = len(A)
    d = [None] * m
    for start in range(m):
        if d[start] is not None:
            continue
        d[start], todo = Fraction(1), [start]
        while todo:
            i = todo.pop()
            for j in range(m):
                if A[i][j] and d[j] is None:
                    d[j] = d[i] * Fraction(A[i][j], A[j][i])
                    todo.append(j)
    form = [[d[i] * A[i][j] for j in range(m)] for i in range(m)]
    assert all(form[i][j] == form[j][i] for i in range(m) for j in range(m))
    return form


def peterson_multiplicities(A, H: int) -> dict:
    """mult(beta) of the Kac-Moody algebra g(A) for every beta in Q_+ of
    height 1..H, keyed by its coefficient tuple on the simple roots (0 where
    beta is not a root), by Peterson's recursion (Kac, Infinite-dimensional
    Lie algebras, Exercise 11.11) for a symmetrizable generalized Cartan
    matrix A:

        (beta | beta - 2 rho) c_beta = sum over beta' + beta'' = beta of
                                       (beta' | beta'') c_beta' c_beta'',

    over ordered pairs of nonzero beta', beta'' in Q_+, where
    c_beta = sum over k | beta of mult(beta / k) / k and
    (rho | alpha_i) = (alpha_i | alpha_i) / 2.  Where (beta | beta - 2 rho)
    is 0 the recursion leaves c_beta free: a simple root has multiplicity 1,
    and any other such beta is not a root, so its mult is 0 (c_beta is then
    the sum over k >= 2 alone, not 0).  Exact Fractions; every
    multiplicity is asserted to be a nonnegative integer."""
    form = _symmetrized_form(A)
    m = len(A)

    def dot(u, v):
        return sum(
            x * form[i][j] * y
            for i, x in enumerate(u) if x
            for j, y in enumerate(v) if y
        )

    c: dict = {}
    mult: dict = {}
    for h in range(1, H + 1):
        for beta in product(range(h + 1), repeat=m):
            if sum(beta) != h:
                continue
            tail = sum(
                (
                    Fraction(mult[tuple(b // k for b in beta)], k)
                    for k in range(2, h + 1)
                    if all(b % k == 0 for b in beta)
                ),
                Fraction(0),
            )
            # 2 (rho | beta) = sum of beta_i (alpha_i | alpha_i)
            lhs = dot(beta, beta) - sum(b * form[i][i] for i, b in enumerate(beta))
            rhs = Fraction(0)
            for part in product(*(range(b + 1) for b in beta)):
                rest = tuple(b - p for b, p in zip(beta, part))
                if any(part) and any(rest) and c[part] and c[rest]:
                    rhs += dot(part, rest) * c[part] * c[rest]
            if lhs:
                c[beta] = rhs / lhs
                mult[beta] = c[beta] - tail
            else:
                # the identity still holds: its right side must vanish
                assert rhs == 0, beta
                mult[beta] = Fraction(h == 1)
                c[beta] = mult[beta] + tail
            assert mult[beta].denominator == 1 and mult[beta] >= 0, (beta, mult[beta])
            mult[beta] = int(mult[beta])
    return mult


def peterson_dims_by_height(A, H: int) -> list:
    """dim of the height-h part of n_+ of g(A), the sum of mult(beta) over
    beta of height h, for h = 1..H."""
    dims = [0] * H
    for beta, k in peterson_multiplicities(A, H).items():
        dims[sum(beta) - 1] += k
    return dims


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
