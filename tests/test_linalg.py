import random
from fractions import Fraction

from oracle_utils import fraction_rank, rand_scalar
from ymalg.linalg import Echelon, Subspace, rank
from ymalg.scalars import GaussianRational as GR
from ymalg.targets import sl_algebra


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

    def test_ignores_foreign_columns(self):
        sl2 = sl_algebra(2)
        e, h = sl2.basis_element("e"), sl2.basis_element("h")
        # a subspace living on the e column only
        space = Subspace(sl2.zero(), [0], [e + h])
        assert space.basis_elements() == [e]
        assert space.contains(e + h * 5)
