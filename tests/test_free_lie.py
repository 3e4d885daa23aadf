import random

import pytest
from hypothesis import given, settings, strategies as st

from oracle_utils import (
    brute_lyndon_words,
    rand_homogeneous,
    rand_scalar,
    tensor_commutator,
    tensor_of_element,
)
from ymalg.free_lie import (
    DegreeCapExceeded,
    FreeLieElement,
    FreeTarget,
    GradedDims,
    LyndonWord,
    bracket,
    free_lie_dim,
    is_lyndon,
    lyndon_basis,
    standard_factorization,
)
from ymalg.scalars import I, ONE
from ymalg.targets import sl_algebra


def words(n, d):
    return [tuple(w) for w in lyndon_basis(n, d)]


class TestLyndonBasis:
    def test_frozen_examples(self):
        assert words(2, 1) == [(1,), (2,)]
        assert words(2, 2) == [(1, 2)]
        # brute-force enumeration of aperiodic minimal rotations gives these
        assert words(2, 3) == [(1, 1, 2), (1, 2, 2)]

    def test_against_brute_force(self):
        for n in range(1, 4):
            for d in range(1, 7):
                assert words(n, d) == brute_lyndon_words(n, d), (n, d)

    def test_count_matches_formula(self):
        for n in range(1, 5):
            for d in range(1, 7):
                assert len(lyndon_basis(n, d)) == free_lie_dim(n, d)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lyndon_basis(0, 1)
        with pytest.raises(ValueError):
            lyndon_basis(2, 0)
        with pytest.raises(DegreeCapExceeded):
            lyndon_basis(2, 13)
        # a raised cap is allowed explicitly
        assert lyndon_basis(1, 13, degree_cap=13) == []


class TestFreeLieDim:
    def test_examples(self):
        assert free_lie_dim(2, 1) == 2
        assert free_lie_dim(2, 3) == 2  # (2^3 - 2)/3
        assert free_lie_dim(3, 3) == 8  # (3^3 - 3)/3

    def test_degree_one_and_abelian(self):
        for n in range(1, 6):
            assert free_lie_dim(n, 1) == n
            assert free_lie_dim(n, 2) == n * (n - 1) // 2
        assert free_lie_dim(1, 5) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError, match=r"^need n >= 1 and d >= 1$"):
            free_lie_dim(0, 1)


class TestLyndonWord:
    def test_validation(self):
        w = LyndonWord((1, 1, 2))
        assert w.degree == 3
        assert w.letters == (1, 1, 2)
        with pytest.raises(ValueError):
            LyndonWord((2, 1))
        with pytest.raises(ValueError):
            LyndonWord((1, 1))  # periodic
        with pytest.raises(ValueError):
            LyndonWord(())
        with pytest.raises(ValueError):
            LyndonWord((0, 1))
        # letters are ints, not truncated through int()
        for letters in ((1.9, 2), (1.0, 2), (True, 2), (1, "2")):
            with pytest.raises(ValueError, match="1-based positive integers"):
                LyndonWord(letters)

    def test_repr(self):
        assert repr(LyndonWord((1, 1, 2))) == "⟨1,1,2⟩"

    def test_is_lyndon(self):
        assert is_lyndon((1, 2, 2))
        assert not is_lyndon((1, 2, 1, 2))
        assert not is_lyndon(())

    def test_standard_factorization(self):
        assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
        assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
        assert standard_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))
        with pytest.raises(ValueError):
            standard_factorization((1,))


class TestBracket:
    def setup_method(self):
        self.x = [FreeLieElement.generator(3, j) for j in (1, 2, 3)]

    def test_generator_examples(self):
        x1, x2, _ = self.x
        assert bracket(x1, x2) == FreeLieElement.basis_element(3, (1, 2))
        assert bracket(x2, x1) == FreeLieElement.basis_element(3, (1, 2)) * (-1)
        assert bracket(x1, bracket(x1, x2)) == FreeLieElement.basis_element(
            3, (1, 1, 2)
        )

    def test_mismatched_generator_counts(self):
        with pytest.raises(ValueError):
            bracket(FreeLieElement.generator(2, 1), FreeLieElement.generator(3, 1))

    def test_target_refuses_elements_of_another_free_algebra(self):
        x1, x2, _ = self.x
        with pytest.raises(ValueError, match="^cannot combine elements of "):
            FreeTarget(2).bracket(x1, x2)
        assert FreeTarget(3).bracket(x1, x2) == bracket(x1, x2)

    def test_bracket_is_that_of_the_first_operands_space(self):
        sl2 = sl_algebra(2)
        e, f = sl2.basis_element("e"), sl2.basis_element("f")
        assert bracket(e, f) == sl2.bracket(e, f)

    def test_tensor_oracle_on_basis_pairs(self):
        # every rewriting of degree <= 6 basis pairs agrees with the
        # commutator computed in the tensor algebra
        for da in range(1, 4):
            for db in range(1, 4):
                for wa in lyndon_basis(2, da):
                    for wb in lyndon_basis(2, db):
                        a = FreeLieElement.basis_element(2, wa)
                        b = FreeLieElement.basis_element(2, wb)
                        assert tensor_of_element(bracket(a, b)) == tensor_commutator(
                            tensor_of_element(a), tensor_of_element(b)
                        ), (wa, wb)

    def test_tensor_oracle_on_random_elements(self):
        rng = random.Random(23)
        for _ in range(25):
            a = rand_homogeneous(3, rng.randint(1, 4), rng)
            b = rand_homogeneous(3, rng.randint(1, 4), rng)
            assert tensor_of_element(bracket(a, b)) == tensor_commutator(
                tensor_of_element(a), tensor_of_element(b)
            )

    def test_laws_on_random_triples(self):
        rng = random.Random(5)
        for _ in range(60):
            p, q, r = (rng.randint(1, 4) for _ in range(3))
            a = rand_homogeneous(3, p, rng)
            b = rand_homogeneous(3, q, rng)
            c = rand_homogeneous(3, r, rng)
            assert (bracket(a, b) + bracket(b, a)).is_zero
            assert bracket(a, a).is_zero
            ab = bracket(a, b)
            assert ab.is_zero or ab.degrees() == (p + q,)
            jac = (
                bracket(a, bracket(b, c))
                + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))
            )
            assert jac.is_zero


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 10**6),
)
def test_bracket_antisymmetry_property(da, db, seed):
    rng = random.Random(seed)
    a = rand_homogeneous(2, da, rng)
    b = rand_homogeneous(2, db, rng)
    assert (bracket(a, b) + bracket(b, a)).is_zero


class TestElements:
    def test_no_zero_coefficients_stored(self):
        rng = random.Random(3)
        for _ in range(40):
            a = rand_homogeneous(2, 3, rng)
            b = rand_homogeneous(2, 3, rng)
            for e in (a + b, a - b, a * rand_scalar(rng), bracket(a, b)):
                assert all(c for c in e.terms.values())

    def test_letters_bounded_by_n(self):
        with pytest.raises(ValueError):
            FreeLieElement(2, {(1, 3): ONE})
        with pytest.raises(ValueError):
            FreeLieElement.basis_element(2, (1, 2, 3))

    def test_generator_count_and_index_checked(self):
        with pytest.raises(ValueError, match=r"^need n >= 1$"):
            FreeLieElement(0)
        with pytest.raises(ValueError, match=r"^generator index 4 out of range 1\.\.3$"):
            FreeLieElement.generator(3, 4)

    def test_grading_helpers(self):
        x1 = FreeLieElement.generator(2, 1)
        w = FreeLieElement.basis_element(2, (1, 2, 2))
        e = x1 + w
        assert e.degrees() == (1, 3)
        assert not e.is_homogeneous
        assert e.homogeneous_part(3) == w
        assert e.homogeneous_part(2).is_zero

    def test_repr(self):
        x1 = FreeLieElement.generator(2, 1)
        w = FreeLieElement.basis_element(2, (1, 2))
        assert repr(x1 + w * (-I)) == "⟨1⟩ - i·⟨1,2⟩"
        assert repr(FreeLieElement.zero(2)) == "0"


class TestGradedDims:
    def test_validation(self):
        gd = GradedDims(n=2, dims=(2, 1, 0))
        assert gd[1] == 2 and gd[3] == 0
        assert gd.total() == 3
        assert gd.max_degree == 3
        with pytest.raises(ValueError):
            GradedDims(n=2, dims=(3,))  # exceeds free_lie_dim(2, 1)
        with pytest.raises(IndexError):
            gd[4]
