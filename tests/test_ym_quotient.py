import pytest

from oracle_utils import (
    fraction_rank,
    hilbert_series_dims,
    peterson_dims_by_height,
    peterson_multiplicities,
    tensor_of_element,
)
from ymalg.free_lie import (
    DegreeCapExceeded,
    FreeLieElement,
    _bracket_words,
    bracket,
    free_lie_dim,
)
from ymalg.linalg import Echelon, Subspace, row_bilinear
from ymalg.scalars import GaussianRational as GR
from ymalg.targets import sl_algebra
from ymalg.ym_quotient import (
    Presentation,
    _ideal_component,
    dims_table,
    dims_table_csv,
    ideal_graded_component,
    ideal_membership_by_degree,
    is_zero_in_ym,
    strong_relation_elements,
    ym_dim,
    ym_graded_dims,
    ym_relations,
)


def gens(n):
    return [FreeLieElement.generator(n, j) for j in range(1, n + 1)]


def tensor_rank(elements, degree, n):
    """Independent ideal-dimension oracle: rank of the elements expanded in
    tensor-algebra coordinates, by division-based elimination."""
    from itertools import product

    words = list(product(range(1, n + 1), repeat=degree))
    index = {w: k for k, w in enumerate(words)}
    rows = []
    for e in elements:
        exp = tensor_of_element(e)
        row = [GR(0)] * len(words)
        for w, c in exp.items():
            row[index[w]] = c
        rows.append(row)
    return fraction_rank(rows)


class TestRelations:
    def test_weak_n2(self):
        pres = ym_relations(2)
        x1, x2 = gens(2)
        assert pres.relators[0] == bracket(x2, bracket(x2, x1))
        assert pres.relators[1] == bracket(x1, bracket(x1, x2))

    def test_weak_n1_is_zero(self):
        pres = ym_relations(1)
        assert len(pres.relators) == 1
        assert pres.relators[0].is_zero

    def test_weak_n3_shape(self):
        pres = ym_relations(3)
        assert len(pres.relators) == 3
        for r in pres.relators:
            assert r.degrees() == (3,)
            assert len(r.terms) == 2  # sum of two basis words

    def test_strong_drops_identically_zero(self):
        pres = ym_relations(3, strong=True)
        assert len(pres.relators) == 6
        assert all(not r.is_zero for r in pres.relators)

    def test_strong_relation_elements_full_grid(self):
        elems = strong_relation_elements(3)
        assert len(elems) == 9
        zero_pairs = [lab for lab, e in elems if e.is_zero]
        assert zero_pairs == [(1, 1), (2, 2), (3, 3)]

    def test_weak_is_sum_of_strong(self):
        for n in range(1, 9):
            pres = ym_relations(n)
            strong = dict(strong_relation_elements(n))
            assert len(pres.relators) == n
            for j in range(1, n + 1):
                total = FreeLieElement.zero(n)
                for i in range(1, n + 1):
                    total = total + strong[(i, j)]
                assert total == pres.relators[j - 1]


class TestIdealComponents:
    def test_degree3_dimensions(self):
        assert ideal_graded_component(ym_relations(2), 3).dim == 2
        assert ideal_graded_component(ym_relations(3), 3).dim == 3

    def test_degree3_against_tensor_oracle(self):
        for n in (2, 3):
            pres = ym_relations(n)
            nonzero = [r for r in pres.relators if not r.is_zero]
            assert ideal_graded_component(pres, 3).dim == tensor_rank(nonzero, 3, n)

    def test_degree4_n2_full(self):
        pres = ym_relations(2)
        comp = ideal_graded_component(pres, 4)
        assert comp.dim == 3 == free_lie_dim(2, 4)
        # independent closure oracle in tensor coordinates
        closure = [
            bracket(x, r) for r in pres.relators for x in gens(2)
        ]
        assert tensor_rank(closure, 4, 2) == 3

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^need d >= 1$"):
            ideal_graded_component(ym_relations(3), 0)

    def test_below_degree_three_is_zero(self):
        comp = ideal_graded_component(ym_relations(3), 2)
        assert comp.dim == 0

    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded):
            ideal_graded_component(ym_relations(2), 13)

    def test_rows_are_canonical_rref(self):
        comp = ideal_graded_component(ym_relations(3), 4)
        basis = comp.basis_elements()
        pivots = [min(b.terms) for b in basis]
        for b, p in zip(basis, pivots):
            assert b.terms[p] == GR(1)
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == comp.dim
        # zeros above every pivot as well (reduced, not just echelon)
        for i, b in enumerate(basis):
            for j, p in enumerate(pivots):
                if i != j:
                    assert p not in b.terms


class TestYmDim:
    def test_heisenberg_profile(self):
        assert [ym_dim(2, d) for d in range(1, 7)] == [2, 1, 0, 0, 0, 0]

    def test_degree_two_is_untouched(self):
        for n in range(1, 5):
            assert ym_dim(n, 2) == n * (n - 1) // 2

    def test_n3_degree3(self):
        assert ym_dim(3, 3) == 5  # 8 - 3

    def test_graded_dims(self):
        gd = ym_graded_dims(2, 6)
        assert gd.dims == (2, 1, 0, 0, 0, 0)
        assert gd.total() == 3
        assert ym_graded_dims(1, 2).dims == (1, 0)

    def test_strong_quotient_smaller(self):
        # the strong ideal contains the weak one degreewise
        for d in (3, 4, 5):
            assert ym_dim(3, d, strong=True) <= ym_dim(3, d)

    def test_degrees_below_three_build_no_presentation(self, monkeypatch):
        # degrees 1 and 2 lie below every Yang-Mills relator: they are the
        # free dimensions, read off without building the n^2 relator grid
        def refuse(*args):
            raise AssertionError("built the Yang-Mills presentation")

        monkeypatch.setattr("ymalg.ym_quotient.ym_relations", refuse)
        for strong in (False, True):
            assert ym_graded_dims(50, 2, strong).dims == (50, 1225)


class TestMembership:
    def test_relators_in_ideal(self):
        pres = ym_relations(3)
        assert is_zero_in_ym(pres, pres.relators[0])

    def test_ideal_absorbs_brackets(self):
        pres = ym_relations(3)
        x1 = FreeLieElement.generator(3, 1)
        assert is_zero_in_ym(pres, bracket(x1, pres.relators[1]))

    def test_single_word_not_in_ideal(self):
        pres = ym_relations(3)
        assert not is_zero_in_ym(pres, FreeLieElement.basis_element(3, (1, 1, 2)))

    def test_low_degree_parts(self):
        pres = ym_relations(3)
        x1 = FreeLieElement.generator(3, 1)
        assert not is_zero_in_ym(pres, x1 + pres.relators[0])
        by_degree = ideal_membership_by_degree(pres, x1 + pres.relators[0])
        assert by_degree == {1: False, 3: True}

    def test_cap_error(self):
        pres = ym_relations(2)
        word = tuple([1] * 12 + [2])
        elem = FreeLieElement.basis_element(2, word)
        with pytest.raises(DegreeCapExceeded):
            is_zero_in_ym(pres, elem)

    def test_generator_count_mismatch(self):
        with pytest.raises(ValueError):
            is_zero_in_ym(ym_relations(2), FreeLieElement.generator(3, 1))

    def test_element_of_another_algebra(self):
        e = sl_algebra(2).basis_element("e")
        with pytest.raises(ValueError, match="^cannot combine elements of "):
            is_zero_in_ym(ym_relations(3), e)


def _refuse_components(monkeypatch):
    import ymalg.ym_quotient as yq

    def refuse(pres, d):
        raise AssertionError(f"built the degree-{d} component")

    monkeypatch.setattr(yq, "_ideal_component", refuse)


class TestCapBeforeWork:
    # a degree over the cap is refused before any ideal component is built,
    # not after the components below it

    def test_graded_dims(self, monkeypatch):
        _refuse_components(monkeypatch)
        with pytest.raises(DegreeCapExceeded):
            ym_graded_dims(3, 13)

    def test_membership_checks_the_top_degree_first(self, monkeypatch):
        _refuse_components(monkeypatch)
        low = FreeLieElement.basis_element(3, (1,) * 8 + (2,))
        high = FreeLieElement.basis_element(3, (1,) * 12 + (2,))
        with pytest.raises(DegreeCapExceeded):
            is_zero_in_ym(ym_relations(3), low + high)


class TestInvariants:
    def test_monotone_closure(self):
        # bracketing the degree-d component with each generator lands in d+1
        pres = ym_relations(3)
        for d in (3, 4):
            comp = ideal_graded_component(pres, d)
            nxt = ideal_graded_component(pres, d + 1)
            for elem in comp.basis_elements():
                for x in gens(3):
                    assert nxt.contains(bracket(x, elem))

    def test_strong_contains_weak_degreewise(self):
        weak = ym_relations(3)
        strong = ym_relations(3, strong=True)
        for d in (3, 4, 5):
            weak_comp = ideal_graded_component(weak, d)
            strong_comp = ideal_graded_component(strong, d)
            assert strong_comp.dim >= weak_comp.dim
            for elem in weak_comp.basis_elements():
                assert strong_comp.contains(elem)

    def test_surjection_compatibility(self):
        # x_3 -> 0 sends the relators of ym(3) into the ideal of ym(2)
        from ymalg.morphisms import projection_morphism

        phi = projection_morphism(3, 2)
        pres2 = ym_relations(2)
        for r in ym_relations(3).relators:
            assert is_zero_in_ym(pres2, phi.evaluate(r))


class TestTables:
    def test_rows(self):
        rows = dims_table(3, 3)
        assert rows == [
            {"degree": 1, "free_dim": 3, "ideal_dim": 0, "ym_dim": 3},
            {"degree": 2, "free_dim": 3, "ideal_dim": 0, "ym_dim": 3},
            {"degree": 3, "free_dim": 8, "ideal_dim": 3, "ym_dim": 5},
        ]

    def test_max_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^need max_degree >= 1$"):
            dims_table(3, 0)

    def test_csv(self):
        out = dims_table_csv(dims_table(2, 3))
        assert out.splitlines() == [
            "degree,free_dim,ideal_dim,ym_dim",
            "1,2,0,2",
            "2,1,0,1",
            "3,2,2,0",
        ]

    def test_zero_subspace_constructor(self):
        z = Subspace(FreeLieElement.zero(3))
        assert z.dim == 0
        assert z.contains(FreeLieElement.zero(3))
        assert not z.contains(bracket(*gens(3)[:2]))


class TestPresentation:
    def test_relators_must_be_homogeneous_of_degree_two_or_more(self):
        x1, x2 = gens(2)
        for relators in [(x1,), (bracket(x1, x2) + x1,)]:
            with pytest.raises(ValueError, match="degree >= 2"):
                Presentation(2, relators)
        pres = Presentation(2, [FreeLieElement.zero(2), bracket(x1, x2)])
        assert pres.relators == (FreeLieElement.zero(2), bracket(x1, x2))
        assert ideal_graded_component(pres, 2).dim == 1

    def test_relators_must_lie_in_the_free_algebra(self):
        x1, x2, x3 = gens(3)
        for relator in [bracket(x1, x3), "[x1,x2]"]:
            with pytest.raises(ValueError, match=r"not an element of f\(2\)"):
                Presentation(2, (relator,))
        with pytest.raises(ValueError, match="n >= 1"):
            Presentation(0, ())


def serre_presentation(cartan):
    """f(m) modulo the Serre relators ad(x_i)^(1 - a_ij) x_j, i != j."""
    m = len(cartan)
    x = gens(m)
    relators = []
    for i in range(m):
        for j in range(m):
            if i != j:
                r = x[j]
                for _ in range(1 - cartan[i][j]):
                    r = bracket(x[i], r)
                relators.append(r)
    return Presentation(m, tuple(relators))


# Cartan matrix and the number of positive roots of each height, from Kac,
# Infinite-dimensional Lie algebras (root systems of the finite types; the
# affine A1^(1) has real roots at odd heights and imaginary ones, each of
# multiplicity 1, at even heights)
SERRE_CASES = {
    "A2": ([[2, -1], [-1, 2]], [2, 1, 0]),
    "B2": ([[2, -2], [-1, 2]], [2, 1, 1, 0]),
    "G2": ([[2, -1], [-3, 2]], [2, 1, 1, 1, 1, 0]),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [3, 2, 1, 0]),
    "A1xA1": ([[2, 0], [0, 2]], [2, 0]),
    "A1^(1)": ([[2, -2], [-2, 2]], [2, 1, 2, 1, 2, 1, 2, 1]),
}


@pytest.mark.parametrize("name", list(SERRE_CASES))
def test_serre_quotient_has_the_root_counts_by_height(name):
    # Gabber-Kac: n+ of g(A) is f(m) modulo the Serre relators, and its
    # degree-d component is the sum of the root spaces of height d
    cartan, counts = SERRE_CASES[name]
    m = len(cartan)
    pres = serre_presentation(cartan)
    quotient = [
        free_lie_dim(m, d) - ideal_graded_component(pres, d).dim
        for d in range(1, len(counts) + 1)
    ]
    assert quotient == counts


@pytest.mark.parametrize(
    "n, max_degree", [(2, 10), (3, 7), (3, 9), (4, 6), (5, 5), (6, 5)]
)
def test_weak_dims_match_hilbert_series(n, max_degree):
    assert list(ym_graded_dims(n, max_degree).dims) == hilbert_series_dims(
        n, max_degree
    )


# -- strong ym(n) is n_+ of the Kac-Moody algebra of 3I - J -------------------


def strong_cartan(n):
    """3I - J: 2 on the diagonal, -1 off it."""
    return [[2 if i == j else -1 for j in range(n)] for i in range(n)]


class TestPetersonOracle:
    def test_a2(self):
        # past height 4, so that c at 2a_1 + 2a_2, where the recursion's left
        # side vanishes, is used
        assert peterson_dims_by_height([[2, -1], [-1, 2]], 6) == [2, 1, 0, 0, 0, 0]

    def test_affine_a1(self):
        assert peterson_dims_by_height([[2, -2], [-2, 2]], 10) == [2, 1] * 5

    def test_hyperbolic_multiplicity(self):
        assert peterson_multiplicities([[2, -3], [-3, 2]], 10)[(5, 5)] == 16

    @pytest.mark.parametrize("name", list(SERRE_CASES))
    def test_serre_cases(self, name):
        cartan, counts = SERRE_CASES[name]
        assert peterson_dims_by_height(cartan, len(counts)) == counts


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_strong_presentation_is_serre_of_3i_minus_j(n):
    assert ym_relations(n, strong=True) == serre_presentation(strong_cartan(n))


@pytest.mark.parametrize("n, max_degree", [(3, 9), (4, 7), (5, 6)])
def test_strong_dims_match_peterson(n, max_degree):
    # Gabber-Kac: strong ym(n) is n_+ of g(3I - J), graded by height
    assert list(ym_graded_dims(n, max_degree, strong=True).dims) == (
        peterson_dims_by_height(strong_cartan(n), max_degree)
    )


IDEAL_ROW_CASES = {
    "weak-ym3": (ym_relations(3), 6),
    "strong-ym3": (ym_relations(3, strong=True), 8),
    "ym2": (ym_relations(2), 8),
    "serre-A1^(1)": (serre_presentation(SERRE_CASES["A1^(1)"][0]), 8),
}


@pytest.mark.parametrize("name", list(IDEAL_ROW_CASES))
def test_ideal_rows_against_inserting_every_bracket(name, monkeypatch):
    # the components' rows, in order, against a closure that inserts every
    # [x, row], rows outer and generators inner
    pres, top = IDEAL_ROW_CASES[name]
    generators = [{(j,): (1, 0)} for j in range(1, pres.n + 1)]
    calls = []
    original = Echelon.insert

    def counted(self, row):
        calls.append(row)
        return original(self, row)

    monkeypatch.setattr(Echelon, "insert", counted)
    _ideal_component.cache_clear()
    library = [_ideal_component(pres, d).echelon.rows() for d in range(1, top + 1)]
    library_calls = len(calls)
    calls.clear()
    reference, prev = [], []
    for d in range(1, top + 1):
        ech = Echelon()
        for r in pres.relators:
            if r.degrees() == (d,):
                ech.insert(r.row)
        for row in prev:
            for x in generators:
                ech.insert(row_bilinear(x, row, _bracket_words))
        prev = ech.rows()
        reference.append(prev)
    assert library == reference
    if name == "strong-ym3":
        # some brackets of two single-entry rows land on spanned units
        assert library_calls < len(calls)
