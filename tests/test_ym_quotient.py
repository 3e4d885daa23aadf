import pytest

from oracle_utils import fraction_rank, hilbert_series_dims, tensor_of_element
from ymalg.free_lie import (
    DegreeCapExceeded,
    FreeLieElement,
    bracket,
    free_lie_dim,
    lyndon_basis,
)
from ymalg.linalg import Subspace
from ymalg.scalars import GaussianRational as GR
from ymalg.ym_quotient import (
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
        pres = ym_relations(3)
        strong = dict(strong_relation_elements(3))
        for j in range(1, 4):
            total = FreeLieElement.zero(3)
            for i in range(1, 4):
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

    def test_below_degree_three_is_zero(self):
        comp = ideal_graded_component(ym_relations(3), 2)
        assert comp.dim == 0

    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded):
            ideal_graded_component(ym_relations(2), 13)

    def test_rows_are_canonical_rref(self):
        comp = ideal_graded_component(ym_relations(3), 4)
        for row, p in zip(comp.rows, comp.pivots):
            assert row[p] == GR(1)
            assert not any(row[:p])
        assert list(comp.pivots) == sorted(comp.pivots)
        assert len(set(comp.pivots)) == comp.dim
        # zeros above every pivot as well (reduced, not just echelon)
        for i, row in enumerate(comp.rows):
            for j, p in enumerate(comp.pivots):
                if i != j:
                    assert not row[p]


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

    def test_csv(self):
        out = dims_table_csv(dims_table(2, 3))
        assert out.splitlines() == [
            "degree,free_dim,ideal_dim,ym_dim",
            "1,2,0,2",
            "2,1,0,1",
            "3,2,2,0",
        ]

    def test_zero_subspace_constructor(self):
        z = Subspace(FreeLieElement.zero(3), lyndon_basis(3, 2))
        assert z.dim == 0
        assert z.contains(FreeLieElement.zero(3))
        assert not z.contains(bracket(*gens(3)[:2]))


@pytest.mark.parametrize("n, max_degree", [(2, 10), (3, 7), (4, 6), (5, 5), (6, 5)])
def test_weak_dims_match_hilbert_series(n, max_degree):
    assert list(ym_graded_dims(n, max_degree).dims) == hilbert_series_dims(
        n, max_degree
    )
