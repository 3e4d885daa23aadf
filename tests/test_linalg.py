import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_utils import fraction_rank, rand_scalar
from ymalg.free_lie import FreeLieElement, lyndon_basis
from ymalg.linalg import Echelon, Subspace, rank
from ymalg.scalars import GaussianRational as GR
from ymalg.targets import (
    WITT_CENTRAL,
    WittElement,
    heisenberg,
    sl_algebra,
    witt_e,
)


def sparse(row):
    return {k: c for k, c in enumerate(row) if c}


def echelon_of(rows):
    ech = Echelon()
    for row in rows:
        ech.insert(sparse(row))
    return ech


def test_rref_small():
    rows = [
        [GR(2), GR(4), GR(0)],
        [GR(1), GR(2), GR(1)],
        [GR(3), GR(6), GR(1)],
    ]
    reduced = echelon_of(rows).rref(range(3))
    assert reduced == [
        [GR(1), GR(2), GR(0)],
        [GR(0), GR(0), GR(1)],
    ]


def test_rank_against_division_oracle():
    rng = random.Random(17)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [rand_scalar(rng, 4) for _ in range(ncols)] for _ in range(nrows)
        ]
        assert rank(rows) == fraction_rank(rows)


def test_rref_is_canonical():
    # different row orders give the same reduced matrix
    rng = random.Random(5)
    rows = [[rand_scalar(rng) for _ in range(4)] for _ in range(3)]
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert echelon_of(rows).rref(range(4)) == echelon_of(shuffled).rref(range(4))


def test_reduced_basis_matches_division_rref():
    # independent oracle: Gauss-Jordan elimination with Q(i) division
    rng = random.Random(23)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = [
            [rand_scalar(rng, 3) if rng.random() < 0.7 else GR(0) for _ in range(ncols)]
            for _ in range(rng.randint(1, 6))
        ]
        mat = [list(r) for r in rows]
        lead = 0
        for col in range(ncols):
            pivot = next((r for r in range(lead, len(mat)) if mat[r][col]), None)
            if pivot is None:
                continue
            mat[lead], mat[pivot] = mat[pivot], mat[lead]
            mat[lead] = [x / mat[lead][col] for x in mat[lead]]
            for r in range(len(mat)):
                if r != lead and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[lead])]
            lead += 1
        assert echelon_of(rows).rref(range(ncols)) == mat[:lead]


def test_membership():
    ech = Echelon()
    ech.insert(sparse([GR(1), GR(0), GR(1)]))
    ech.insert(sparse([GR(0), GR(1), GR(Fraction(1, 2))]))
    assert ech.contains(sparse([GR(2), GR(2), GR(3)]))
    assert not ech.contains(sparse([GR(0), GR(0), GR(1)]))
    assert ech.dim == 2


def test_complex_entries():
    i = GR(0, 1)
    ech = Echelon()
    assert ech.insert(sparse([GR(1), i]))
    # (i, -1) = i * (1, i) is dependent
    assert not ech.insert(sparse([i, GR(-1)]))
    assert ech.dim == 1


class TestSubspace:
    def test_add_contains_basis(self):
        sl2 = sl_algebra(2)
        e, h, f = (sl2.basis_element(k) for k in ("e", "h", "f"))
        space = Subspace(sl2.zero(), range(sl2.dim))
        assert space.add(e * 2 + h)
        assert space.add(h * GR(0, 1))
        assert not space.add(e)
        assert space.dim == 2
        assert space.contains(e) and space.contains(h) and not space.contains(f)
        assert space.basis_elements() == [e, h]
        assert space.rows == ((GR(1), GR(0), GR(0)), (GR(0), GR(1), GR(0)))
        assert space.pivots == (0, 1)

    def test_rows_follow_adds(self):
        # the cached basis is dropped on every accepted add
        sl2 = sl_algebra(2)
        e, h, f = (sl2.basis_element(k) for k in ("e", "h", "f"))
        space = Subspace(sl2.zero(), range(sl2.dim), [e + f])
        assert space.pivots == (0,)
        space.add(f)
        assert space.pivots == (0, 2)
        assert space.basis_elements() == [e, f]


# -- the shared element arithmetic ---------------------------------------------

scalars = st.builds(
    lambda a, b, d: GR(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from((1, 2)),
)


def combinations(keys, build):
    return st.dictionaries(st.sampled_from(keys), scalars, max_size=4).map(build)


_F3 = [w for d in (1, 2, 3) for w in lyndon_basis(3, d)]
ELEMENTS = {
    "free_lie": combinations(_F3, lambda t: FreeLieElement(3, t)),
    "target": combinations(range(3), sl_algebra(2).element),
    "witt": combinations([*range(-3, 4), WITT_CENTRAL], WittElement),
}


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vector_space_laws(kind, data):
    a, b, c = (data.draw(ELEMENTS[kind]) for _ in range(3))
    s, t = data.draw(scalars), data.draw(scalars)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a + -a).is_zero and (a - a).is_zero
    assert a - b == a + (-b)
    assert (a + b) * s == a * s + b * s
    assert a * (s + t) == a * s + a * t
    assert s * a == a * s
    assert (a * 0).is_zero
    x, y = (a + b) + c, c + (b + a)
    assert x == y and hash(x) == hash(y)


def test_mixed_ambients_raise_value_error():
    sl2 = sl_algebra(2)
    e = sl2.basis_element("e")
    pairs = [
        (witt_e(1), sl2.zero()),
        (FreeLieElement.generator(2, 1), e),
        (FreeLieElement.generator(2, 1), FreeLieElement.generator(3, 1)),
        (e, heisenberg().basis_element("p")),
        (witt_e(1), 1),
    ]
    for u, v in pairs:
        with pytest.raises(ValueError):
            u + v
        with pytest.raises(ValueError):
            u - v
        assert u != v
