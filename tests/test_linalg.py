import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle_utils import (
    SL2_SCALED,
    SL2_SCALED_LABELS,
    fraction_rank,
    hilbert_series_dims,
    oracle_matrix_bracket,
    oracle_sl_matrix,
    oracle_witt_bracket,
    pair_add,
    pair_mul,
    rand_scalar,
    tensor_commutator,
    tensor_of_element,
)
from ymalg.free_lie import FreeLieElement, _bracket_words, bracket, lyndon_basis
from ymalg.linalg import Combination, Echelon, Subspace, rank, row_bilinear
import ymalg.morphisms as morphisms
from ymalg.morphisms import solvable_image_audit
from ymalg.scalars import GaussianRational as GR, clear_denominators
from ymalg.targets import (
    WITT_CENTRAL,
    WittElement,
    WittTarget,
    _virasoro_row_pair,
    _witt_pair,
    algebra_from_json,
    generated_window,
    heisenberg,
    series_analysis,
    sl_algebra,
    subalgebra_closure,
    witt_e,
)
from ymalg.ym_quotient import (
    _ideal_component,
    ideal_graded_component,
    ym_graded_dims,
    ym_relations,
)


def sparse(row):
    """A dense Q(i) row as the Gaussian-integer row Echelon takes."""
    return clear_denominators(dict(enumerate(row)))[0]


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
    # single-entry rows with non-real leads among dense rows: a row led in
    # the column of a single-entry pivot row just drops that column
    leads = (GR(1, 1), GR(0, 2), GR(-3))
    for _ in range(60):
        ncols = rng.randint(2, 8)
        rows = []
        for _ in range(rng.randint(2, 12)):
            if rng.random() < 0.6:
                row = [GR(0)] * ncols
                row[rng.randrange(ncols)] = rng.choice(leads)
            else:
                row = [rand_scalar(rng, 4) for _ in range(ncols)]
            rows.append(row)
        assert rank(rows) == fraction_rank(rows)
        ech = echelon_of(rows)
        assert ech.dim == rank(rows)
        assert all(ech.contains(sparse(row)) for row in rows)


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


def test_units_follow_the_stored_row():
    ech = Echelon()
    ech.insert({0: (1, 0), 1: (1, 0)})
    # reduces to -e_1: the unit column is the stored row's pivot, 1, not 0
    ech.insert({0: (2, 0)})
    assert ech.units == {1}
    assert not ech.insert({1: (0, 3)}) and ech.units == {1}


zi_rows = st.dictionaries(
    st.integers(0, 4),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
    min_size=1,
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(zi_rows, max_size=8))
def test_units_are_the_single_entry_pivots(rows):
    ech = Echelon()
    for row in rows:
        ech.insert(row)
        assert ech.units == {min(r) for r in ech.rows() if len(r) == 1}


def _zi_rule(i, j):
    # one or two keys, int and Z[i] values, nothing on the diagonal
    if i == j:
        return {}
    return {i + j: j - i} if (i + j) % 2 else {i + j: (j - i, 1), i + j + 5: 3}


@settings(max_examples=100, deadline=None)
@given(st.lists(zi_rows, max_size=6), st.lists(zi_rows, max_size=6))
@example(
    # units 1, 3 and 5: of the two-entry rows, [rows[0], rows[1]] is
    # {1: 1, 3: 2, 5: 1}, on the units, and [rows[2], rows[2]] is zero
    spanned=[{1: (1, 0)}, {3: (1, 0)}, {5: (1, 0)}],
    rows=[{0: (1, 0), 2: (1, 0)}, {1: (1, 0), 3: (1, 0)}, {1: (1, 0), 2: (1, 0)}],
)
def test_insert_brackets_calls_the_rule_once_per_unit_pair(spanned, rows):
    # against the loop that inserts every bracket: the same rows, in the
    # same order; one insert for each bracket with a key outside the units
    # (which grow alike in both), and one rule call per pair of entries
    pairs = [(a, b) for a in rows for b in rows]
    ref, ech = Echelon(), Echelon()
    for row in spanned:
        ref.insert(row)
        ech.insert(row)
    new = 0
    for a, b in pairs:
        bracket = row_bilinear(a, b, _zi_rule)
        new += not bracket.keys() <= ref.units
        ref.insert(bracket)
    calls, inserts, insert = [], [], Echelon.insert

    def counted(i, j):
        calls.append((i, j))
        return _zi_rule(i, j)

    def counted_insert(row):
        inserts.append(row)
        return insert(ech, row)

    ech.insert = counted_insert
    ech.insert_brackets(pairs, counted)
    assert ech.rows() == ref.rows()
    assert [list(r) for r in ech.rows()] == [list(r) for r in ref.rows()]
    assert len(inserts) == new
    assert len(calls) == sum(len(a) * len(b) for a, b in pairs)


class TestSubspace:
    def test_add_contains_basis(self):
        sl2 = sl_algebra(2)
        e, h, f = (sl2.basis_element(k) for k in ("e", "h", "f"))
        space = Subspace(sl2.zero())
        assert space.add(e * 2 + h)
        assert space.add(h * GR(0, 1))
        assert not space.add(e)
        assert space.dim == 2
        assert space.contains(e) and space.contains(h) and not space.contains(f)
        assert space.basis_elements() == [e, h]

    def test_rows_follow_adds(self):
        # the canonical basis is built anew from the current rows on each call
        sl2 = sl_algebra(2)
        e, h, f = (sl2.basis_element(k) for k in ("e", "h", "f"))
        space = Subspace(sl2.zero(), [e + f])
        assert space.basis_elements() == [e + f]
        space.add(f)
        assert space.basis_elements() == [e, f]

    def test_elements_span_the_canonical_basis(self):
        sl3 = sl_algebra(3)
        rng = random.Random(5)
        space = Subspace(sl3.zero())
        for _ in range(6):
            space.add(sl3.element({lab: rand_scalar(rng, 2) for lab in sl3.labels[:5]}))
        rows, basis = space.echelon.rows(), space.basis_elements()
        assert len(rows) == len(basis) == space.dim == 5
        assert all(space.echelon.contains(r) for r in rows)
        spanned = Echelon()
        for row in rows:
            spanned.insert(row)
        assert all(spanned.contains(clear_denominators(b.terms)[0]) for b in basis)
        assert Subspace(sl3.zero(), basis).dim == space.dim

    def test_elements_are_independent(self):
        sl2 = sl_algebra(2)
        e, h, f = (sl2.basis_element(k) for k in ("e", "h", "f"))
        space = Subspace(sl2.zero(), [e + h, e * 2 + h * 2, h - f, e + f * GR(0, 1)])
        rows = space.echelon.rows()
        assert len(rows) == space.dim == 3
        fresh = Echelon()
        assert all(fresh.insert(r) for r in rows)

    def test_elements_only_grow_at_the_end(self):
        # the closures bracket only the rows past the ones they have seen
        sl3 = sl_algebra(3)
        rng = random.Random(8)
        space = Subspace(sl3.zero())
        seen: list = []
        for _ in range(12):
            labels = rng.sample(sl3.labels, 2)
            space.add(sl3.element({lab: rand_scalar(rng, 2) for lab in labels}))
            rows = space.echelon.rows()
            assert rows[: len(seen)] == seen
            assert len(rows) == space.dim
            seen = rows


def test_library_never_builds_reduced_basis(monkeypatch):
    """Ideal closure, subalgebra closure with its series, and the Witt
    window read echelon rows; none builds the canonical reduced basis."""
    gens = [witt_e(-1) + witt_e(2), witt_e(3)]
    # the audit's second chunk runs in a forked worker on any host
    monkeypatch.setattr(morphisms, "_usable_cpus", lambda: 2)

    def run():
        _ideal_component.cache_clear()
        return (
            ym_graded_dims(3, 6).dims,
            ym_graded_dims(3, 6, strong=True).dims,
            generated_window(WittTarget(True), gens, depth=4, window=3),
            solvable_image_audit(20, 0),
        )

    expected = run()
    assert expected[0] == tuple(hilbert_series_dims(3, 6))
    assert expected[1] == (3, 3, 2, 3, 3, 2)

    def refuse(self):
        raise AssertionError("the canonical reduced basis was built")

    monkeypatch.setattr(Echelon, "reduced_basis", refuse)
    assert run() == expected


def test_closures_combine_no_scalar(monkeypatch):
    """Witt and Virasoro windows, subalgebra closure with its series, and
    ideal closure bracket Gaussian-integer rows: no Q(i) product or sum is
    formed and no Combination is bracketed."""
    witt = [witt_e(-2), witt_e(3)]
    virasoro = [witt_e(-1) * GR(1, 2) + witt_e(2), witt_e(3) * GR(Fraction(1, 3))]
    sl3 = sl_algebra(3)
    gens = [sl3.element({"E12": "1", "H1": "1/2"}), sl3.element({"E23": "i"})]
    weak = ym_relations(3)

    def run():
        _ideal_component.cache_clear()
        closure = subalgebra_closure(sl3, gens)
        series = series_analysis(sl3, closure)
        return (
            generated_window(WittTarget(), witt, depth=5, window=4),
            generated_window(WittTarget(True), virasoro, depth=4, window=3),
            closure.dim,
            series.derived_dims,
            series.lower_central_dims,
            [ideal_graded_component(weak, d).dim for d in range(1, 6)],
        )

    expected = run()
    assert expected[2:] == (3, (3, 2, 0), (3, 2), [0, 0, 3, 8, 24])

    def refuse(*args):
        raise AssertionError("a closure combined Q(i) scalars")

    for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(GR, attr, refuse)
    for module in ("linalg", "targets", "free_lie"):
        monkeypatch.setattr(f"ymalg.{module}.bilinear", refuse)
    assert run() == expected


# -- the shared element arithmetic ---------------------------------------------

scalars = st.builds(
    lambda a, b, d: GR(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from((1, 2)),
)


def combinations(keys, build, coefficients=scalars):
    return st.dictionaries(st.sampled_from(keys), coefficients, max_size=4).map(build)


_F3 = [w for d in (1, 2, 3) for w in lyndon_basis(3, d)]
_SL2_SCALED = algebra_from_json(SL2_SCALED)
_SL3 = sl_algebra(3)
_WITT_KEYS = [*range(-3, 4), WITT_CENTRAL]
ELEMENTS = {
    "free_lie": combinations(_F3, lambda t: FreeLieElement(3, t)),
    "target": combinations(range(3), sl_algebra(2).element),
    "custom": combinations(range(3), _SL2_SCALED.element),
    "witt": combinations(_WITT_KEYS, WittElement),
}
# each kind's Q(i) brackets, with the integer row rules closures use for them
RULES = {
    "free_lie": [(bracket, _bracket_words)],
    "target": [(sl_algebra(2).bracket, sl_algebra(2)._row_pair)],
    "custom": [(_SL2_SCALED.bracket, _SL2_SCALED._row_pair)],
    "witt": [
        (WittTarget().bracket, _witt_pair),
        (WittTarget(True).bracket, _virasoro_row_pair),
    ],
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


# zero, i, and a scalar whose real and imaginary denominators differ, beside
# the drawn ones
oracle_scalars = st.one_of(
    st.sampled_from((GR(0), GR(0, 1), GR(Fraction(1, 2), Fraction(-3, 4)))),
    scalars,
)


def _pair_combination(*terms) -> dict:
    """The sum of z * x over (x, z) terms, term by term over Fraction pairs."""
    out = {}
    for x, z in terms:
        for k, c in x.items():
            out[k] = pair_add(out.get(k, (0, 0)), pair_mul(z, c))
    return {k: c for k, c in out.items() if any(c)}


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_element_arithmetic_matches_the_pair_oracle(kind, data):
    # the element operations against Fraction-pair arithmetic on their terms
    a, b = (data.draw(ELEMENTS[kind]) for _ in range(2))
    s = data.draw(oracle_scalars)
    x, y = _pairs(a.terms), _pairs(b.terms)
    one, minus = (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))
    assert _pairs((a + b).terms) == _pair_combination((x, one), (y, one))
    assert _pairs((a - b).terms) == _pair_combination((x, one), (y, minus))
    assert _pairs((-a).terms) == _pair_combination((x, minus))
    assert _pairs((a * s).terms) == _pair_combination((x, (s.re, s.im)))


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_bilinear_spans_the_bracket(kind, data):
    # a row rule may scale the bracket by one nonzero constant, nothing more
    u, v = (data.draw(ELEMENTS[kind]) for _ in range(2))
    for bracket_of, pair in RULES[kind]:
        ech = Echelon()
        ech.insert(
            row_bilinear(
                clear_denominators(u.terms)[0], clear_denominators(v.terms)[0], pair
            )
        )
        expected = clear_denominators(bracket_of(u, v).terms)[0]
        assert ech.dim == bool(expected) and ech.contains(expected)


# -- element brackets against oracles that share no code with the library ------

# kind -> (basis keys, element builder, the library's bracket)
BRACKETS = {
    "free_lie": (_F3, lambda t: FreeLieElement(3, t), bracket),
    "sl2": (range(3), sl_algebra(2).element, sl_algebra(2).bracket),
    "sl3": (range(8), _SL3.element, _SL3.bracket),
    "custom": (range(3), _SL2_SCALED.element, _SL2_SCALED.bracket),
    "witt": (_WITT_KEYS, WittElement, WittTarget().bracket),
    "virasoro": (_WITT_KEYS, WittElement, WittTarget(True).bracket),
}


def _pairs(terms, name=lambda k: k) -> dict:
    return {name(k): (c.re, c.im) for k, c in terms.items()}


def _sl_matrix(algebra):
    return lambda elem: oracle_sl_matrix(_pairs(elem.terms, algebra.labels.__getitem__))


def _scaled_matrix(elem):
    # each basis element of SL2_SCALED is a multiple of e, h or f
    coords = {}
    for k, c in elem.terms.items():
        label, factor = SL2_SCALED_LABELS[_SL2_SCALED.labels[k]]
        coords[label] = pair_mul(factor, (c.re, c.im))
    return oracle_sl_matrix(coords)


def _witt_pairs(elem):
    return _pairs(elem.terms, lambda k: "c" if k == WITT_CENTRAL else k)


# kind -> (element as the oracle sees it, the oracle's bracket)
ORACLES = {
    "free_lie": (tensor_of_element, tensor_commutator),
    "sl2": (_sl_matrix(sl_algebra(2)), oracle_matrix_bracket),
    "sl3": (_sl_matrix(_SL3), oracle_matrix_bracket),
    "custom": (_scaled_matrix, oracle_matrix_bracket),
    "witt": (_witt_pairs, lambda u, v: oracle_witt_bracket(u, v, False)),
    "virasoro": (_witt_pairs, lambda u, v: oracle_witt_bracket(u, v, True)),
}

# rational and complex coefficients whose denominators meet the 12 of the
# Virasoro cocycle and the 2 of SL2_SCALED's constants
fractional_scalars = st.builds(
    lambda a, b, d: GR(Fraction(a, d), Fraction(b, d)),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.sampled_from((1, 2, 3, 5)),
)


@pytest.mark.parametrize("kind", sorted(BRACKETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bracket_matches_the_oracle(kind, data):
    keys, build, bracket_of = BRACKETS[kind]
    as_oracle, oracle_bracket = ORACLES[kind]
    u, v = (data.draw(combinations(keys, build, fractional_scalars)) for _ in range(2))
    assert as_oracle(bracket_of(u, v)) == oracle_bracket(as_oracle(u), as_oracle(v))


def _assert_canonical(elem):
    assert type(elem.den) is int and elem.den > 0
    assert all(a or b for a, b in elem.row.values())
    assert gcd(elem.den, *(x for z in elem.row.values() for x in z)) == 1


@pytest.mark.parametrize("kind", sorted(BRACKETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_elements_stay_canonical(kind, data):
    # one Z[i] row over one denominator, reduced: equality and hashing are
    # structural only if every operation returns this form
    keys, build, bracket_of = BRACKETS[kind]
    u, v = (data.draw(combinations(keys, build, fractional_scalars)) for _ in range(2))
    c = data.draw(fractional_scalars.filter(bool))
    for e in (u, v, u + v, u - v, -u, u * c, c * u, u * 0, bracket_of(u, v)):
        _assert_canonical(e)
        again = Combination(e.space, e.terms)
        assert again == e and hash(again) == hash(e)
    for x in (u + v - v, (u * c) * (1 / c)):
        assert x == u and hash(x) == hash(u)


def test_element_brackets_combine_no_scalar(monkeypatch):
    """An element bracket brackets the operands' Gaussian-integer rows over
    the target's integer rule: no Q(i) product or sum is formed."""
    rng = random.Random(13)
    cases = []
    for keys, build, bracket_of in BRACKETS.values():
        for _ in range(4):
            u, v = (
                build({k: rand_scalar(rng) for k in rng.sample(list(keys), 3)})
                for _ in range(2)
            )
            cases.append((bracket_of, u, v))
    expected = [bracket_of(u, v) for bracket_of, u, v in cases]
    assert sum(not x.is_zero for x in expected) > len(cases) // 2

    def refuse(*args):
        raise AssertionError("an element bracket combined Q(i) scalars")

    for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(GR, attr, refuse)
    assert [bracket_of(u, v) for bracket_of, u, v in cases] == expected


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
