import random
from fractions import Fraction

import pytest

from oracle_utils import fraction_rank, rand_scalar
from ymalg.kac_moody import (
    MatrixData,
    RealizationOfMatrix,
    build_realization,
    is_generalized_cartan,
    pairing_matrix,
    realization_to_json,
    verify_realization,
    ym_quotient_bound,
)
from ymalg.scalars import GaussianRational as GR

A2 = MatrixData.from_rows([[2, -1], [-1, 2]])
AFFINE_A1 = MatrixData.from_rows([[2, -2], [-2, 2]])


def random_matrix_of_rank(m: int, r: int, rng: random.Random) -> MatrixData:
    """Draw B (m x r) and C (r x m) with small Q(i) entries until B*C has
    rank exactly r."""
    while True:
        if r == 0:
            return MatrixData.from_rows([[GR(0)] * m for _ in range(m)])
        B = [[rand_scalar(rng, 2) for _ in range(r)] for _ in range(m)]
        C = [[rand_scalar(rng, 2) for _ in range(m)] for _ in range(r)]
        M = [
            [sum((B[i][k] * C[k][j] for k in range(r)), GR(0)) for j in range(m)]
            for i in range(m)
        ]
        A = MatrixData.from_rows(M)
        if A.rank == r:
            return A


class TestMatrixData:
    def test_rank_matches_division_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            m = rng.randint(1, 5)
            rows = [[rand_scalar(rng, 2) for _ in range(m)] for _ in range(m)]
            A = MatrixData.from_rows(rows)
            assert A.rank == fraction_rank(rows)

    def test_from_json_shapes(self):
        A = MatrixData.from_json('[["2", "-1"], ["-1", "2"]]')
        assert A.entries == A2.entries
        B = MatrixData.from_json({"matrix": [[2, -1], [-1, 2]]})
        assert B.entries == A2.entries

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            MatrixData.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            MatrixData.from_rows([])


class TestGcm:
    def test_standard_a2(self):
        assert is_generalized_cartan(A2).ok

    def test_affine_a1(self):
        check = is_generalized_cartan(AFFINE_A1)
        assert check.ok and check.reason is None

    def test_positive_off_diagonal_rejected(self):
        check = is_generalized_cartan(MatrixData.from_rows([[2, 1], [0, 2]]))
        assert not check.ok
        assert "(1,2)" in check.reason and "positive" in check.reason

    def test_first_violation_reported(self):
        check = is_generalized_cartan(
            MatrixData.from_rows([["1/2", "0"], ["0", "2"]])
        )
        assert not check.ok and "integer" in check.reason
        check = is_generalized_cartan(MatrixData.from_rows([[3, 0], [0, 2]]))
        assert not check.ok and "not 2" in check.reason

    def test_zero_symmetry(self):
        check = is_generalized_cartan(MatrixData.from_rows([[2, 0], [-1, 2]]))
        assert not check.ok and "vanishes" in check.reason


class TestRealization:
    def test_rank_one_example(self):
        A = MatrixData.from_rows([[2]])
        R = build_realization(A)
        assert R.h_dim == 1
        assert R.pi == ((GR(2),),)
        assert R.pi_check == ((GR(1),),)
        assert pairing_matrix(R) == [[GR(2)]]

    def test_affine_a1(self):
        R = build_realization(AFFINE_A1)
        assert R.h_dim == 3
        assert verify_realization(R, AFFINE_A1)
        assert pairing_matrix(R) == [list(r) for r in AFFINE_A1.entries]

    def test_zero_matrix(self):
        A = MatrixData.from_rows([[0]])
        R = build_realization(A)
        assert R.h_dim == 2
        assert any(R.pi[0]) and any(R.pi_check[0])
        assert pairing_matrix(R) == [[GR(0)]]

    def test_random_matrices_all_ranks(self):
        rng = random.Random(55)
        for m in range(1, 6):
            for r in range(0, m + 1):
                A = random_matrix_of_rank(m, r, rng)
                R = build_realization(A)
                assert verify_realization(R, A)
                assert R.h_dim == 2 * m - r

    def test_perturbed_entry_fails(self):
        R = build_realization(AFFINE_A1)
        pi = [list(row) for row in R.pi]
        pi[0][0] = pi[0][0] + GR(1)
        bad = RealizationOfMatrix(R.h_dim, tuple(tuple(r) for r in pi), R.pi_check)
        assert not verify_realization(bad, AFFINE_A1)

    def test_duplicated_row_fails(self):
        R = build_realization(AFFINE_A1)
        bad = RealizationOfMatrix(R.h_dim, (R.pi[0], R.pi[0]), R.pi_check)
        assert not verify_realization(bad, AFFINE_A1)

    def test_wrong_h_dim_fails(self):
        R = build_realization(AFFINE_A1)
        padded = tuple(row + (GR(0),) for row in R.pi)
        padded_check = tuple(row + (GR(0),) for row in R.pi_check)
        bad = RealizationOfMatrix(R.h_dim + 1, padded, padded_check)
        assert not verify_realization(bad, AFFINE_A1)

    def test_wrong_shape_fails(self):
        # a wrong number of root or coroot rows, then a root or coroot row
        # of the wrong length
        R = build_realization(AFFINE_A1)
        pi, check = R.pi, R.pi_check
        for bad_pi, bad_check in [
            (pi[:1], check),
            (pi, check + check[:1]),
            ((pi[0][:-1],) + pi[1:], check),
            (pi, check[:1] + (check[1] + (GR(0),),)),
        ]:
            bad = RealizationOfMatrix(R.h_dim, bad_pi, bad_check)
            assert not verify_realization(bad, AFFINE_A1)

    def test_json_payload(self):
        data = realization_to_json(build_realization(A2))
        assert data["h_dim"] == 2
        assert data["pairing"] == [["2", "-1"], ["-1", "2"]]


class TestQuotientBound:
    def test_affine_a1_bound(self):
        assert ym_quotient_bound(AFFINE_A1) == 4

    def test_nonsingular_bound(self):
        assert ym_quotient_bound(A2) == 4

    def test_low_rank_bound(self):
        rng = random.Random(8)
        A = random_matrix_of_rank(6, 2, rng)
        assert ym_quotient_bound(A) == 8  # 2 * (6 - 2)

    def test_monotone_in_rank(self):
        rng = random.Random(9)
        bounds = [
            ym_quotient_bound(random_matrix_of_rank(6, r, rng)) for r in range(7)
        ]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] == 4
