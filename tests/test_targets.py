import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_utils import (
    oracle_closure_dim,
    oracle_matrix_bracket,
    oracle_witt_bracket,
    oracle_sl_matrix,
    rand_scalar,
)
from ymalg.linalg import Subspace
from ymalg.scalars import GaussianRational as GR
from ymalg.targets import (
    StructureConstantAlgebra,
    WittElement,
    WittTarget,
    algebra_from_json,
    generated_window,
    heisenberg,
    series_analysis,
    sl_algebra,
    subalgebra_closure,
    witt_bracket,
    witt_c,
    witt_e,
)

WITT = WittTarget()


def sl2_elems():
    sl2 = sl_algebra(2)
    return sl2, *(sl2.basis_element(lab) for lab in "ehf")


class TestSlAlgebra:
    def test_sl2_named_basis(self):
        sl2, e, h, f = sl2_elems()
        assert sl2.bracket(e, f) == h
        assert sl2.bracket(h, e) == e * 2
        assert sl2.bracket(h, f) == f * (-2)

    def test_sl3_defining_brackets(self):
        sl3 = sl_algebra(3)
        E = {k: sl3.basis_element(k) for k in ("E12", "E23", "E13", "E31")}
        assert sl3.bracket(E["E12"], E["E23"]) == E["E13"]
        assert sl3.bracket(E["E12"], E["E13"]).is_zero

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_against_matrix_commutators(self, m):
        # independent oracle: evaluate both sides as honest m x m matrices
        alg = sl_algebra(m)
        sl2_names = {"e": "E12", "h": "H1", "f": "E21"}

        def as_matrix(elem):
            M = [[Fraction(0)] * m for _ in range(m)]
            for idx, c in elem.terms.items():
                assert c.im == 0
                lab = sl2_names.get(alg.labels[idx], alg.labels[idx])
                if lab.startswith("E"):
                    i, j = int(lab[1]), int(lab[2])
                    M[i - 1][j - 1] += c.re
                else:
                    i = int(lab[1])
                    M[i - 1][i - 1] += c.re
                    M[i][i] -= c.re
            return M

        def commutator(A, B):
            AB = [
                [sum(A[i][k] * B[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)
            ]
            BA = [
                [sum(B[i][k] * A[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)
            ]
            return [
                [AB[i][j] - BA[i][j] for j in range(m)] for i in range(m)
            ]

        for i in range(alg.dim):
            for j in range(alg.dim):
                u = alg.basis_element(alg.labels[i])
                v = alg.basis_element(alg.labels[j])
                assert as_matrix(alg.bracket(u, v)) == commutator(
                    as_matrix(u), as_matrix(v)
                )

    def test_dimension(self):
        for m in (2, 3, 4):
            assert sl_algebra(m).dim == m * m - 1

    def test_full_algebra_not_solvable(self):
        for m in (2, 3):
            alg = sl_algebra(m)
            full = subalgebra_closure(
                alg, [alg.basis_element(lab) for lab in alg.labels]
            )
            assert full.dim == alg.dim
            assert not series_analysis(alg, full).is_solvable

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sl_algebra(1)


class TestHeisenberg:
    def test_defining_relations(self):
        h1 = heisenberg()
        p, q, z = (h1.basis_element(lab) for lab in "pqz")
        assert h1.bracket(p, q) == z
        assert h1.bracket(p, z).is_zero
        assert h1.bracket(q, z).is_zero

    def test_series(self):
        h1 = heisenberg()
        full = subalgebra_closure(
            h1, [h1.basis_element("p"), h1.basis_element("q")]
        )
        report = series_analysis(h1, full)
        assert report.derived_dims == (3, 1, 0)
        assert report.is_solvable and report.is_nilpotent


class TestBracketIn:
    def test_linearity_examples(self):
        sl2, e, h, f = sl2_elems()
        assert sl2.bracket(h, e + f) == e * 2 - f * 2
        a, b, g = GR(2), GR(3), GR(5)
        # [alpha e + beta h + gamma f, e] = 2 beta e - gamma h
        assert sl2.bracket(e * a + h * b + f * g, e) == e * (2 * b) - h * g

    def test_self_bracket_is_zero(self):
        sl2, e, h, f = sl2_elems()
        rng = random.Random(2)
        for _ in range(20):
            u = e * rand_scalar(rng) + h * rand_scalar(rng) + f * rand_scalar(rng)
            assert sl2.bracket(u, u).is_zero

    def test_algebra_mismatch(self):
        sl2, e, _, _ = sl2_elems()
        h1 = heisenberg()
        with pytest.raises(ValueError):
            sl2.bracket(e, h1.basis_element("p"))
        with pytest.raises(ValueError):
            h1.bracket(e, e)


class TestConstructionValidation:
    def test_jacobi_rejected(self):
        with pytest.raises(ValueError, match="Jacobi"):
            StructureConstantAlgebra(
                ("a", "b", "c"),
                {
                    (0, 1): {2: GR(1)},  # [a,b] = c
                    (1, 2): {0: GR(1)},  # [b,c] = a
                    (0, 2): {2: GR(1)},  # [a,c] = c   breaks Jacobi
                },
            )

    def test_so3_like_accepted(self):
        alg = StructureConstantAlgebra(
            ("a", "b", "c"),
            {
                (0, 1): {2: GR(1)},
                (1, 2): {0: GR(1)},
                (2, 0): {1: GR(1)},
            },
        )
        assert alg.dim == 3

    def test_antisymmetry_conflict(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            StructureConstantAlgebra(
                ("a", "b"),
                {(0, 1): {0: GR(1)}, (1, 0): {0: GR(1)}},
            )

    def test_nonzero_self_bracket_rejected(self):
        with pytest.raises(ValueError):
            StructureConstantAlgebra(("a",), {(0, 0): {0: GR(1)}})


class TestClosure:
    def test_examples(self):
        sl2, e, h, f = sl2_elems()
        assert subalgebra_closure(sl2, [e, f]).dim == 3
        span_eh = subalgebra_closure(sl2, [e, h])
        assert span_eh.dim == 2
        assert span_eh.contains(e) and span_eh.contains(h)
        assert not span_eh.contains(f)
        sl3 = sl_algebra(3)
        triple = [sl3.basis_element(k) for k in ("E12", "E23", "E31")]
        assert subalgebra_closure(sl3, triple).dim == 8

    def test_idempotent_and_monotone(self):
        sl2, e, h, f = sl2_elems()
        once = subalgebra_closure(sl2, [e, h])
        again = subalgebra_closure(sl2, once.basis_elements())
        assert once.basis_elements() == again.basis_elements()
        bigger = subalgebra_closure(sl2, [e, h, f])
        for elem in once.basis_elements():
            assert bigger.contains(elem)

    def test_empty_generators_rejected(self):
        sl2, *_ = sl2_elems()
        with pytest.raises(ValueError):
            subalgebra_closure(sl2, [])


class TestSeries:
    def test_examples(self):
        sl2, e, h, f = sl2_elems()
        borel = subalgebra_closure(sl2, [e, h])
        report = series_analysis(sl2, borel)
        assert report.is_solvable and not report.is_nilpotent
        full = subalgebra_closure(sl2, [e, f])
        assert not series_analysis(sl2, full).is_solvable
        line = subalgebra_closure(sl2, [e])
        report = series_analysis(sl2, line)
        assert report.is_solvable and report.is_nilpotent

    def test_requires_bracket_closed(self):
        sl2, e, h, f = sl2_elems()
        not_closed = Subspace(sl2.zero(), [e, f])
        with pytest.raises(ValueError, match="bracket-closed"):
            series_analysis(sl2, not_closed)


witt_indices = st.integers(-6, 6)


def witt_strategy():
    return st.dictionaries(witt_indices, st.integers(-4, 4), max_size=3).map(
        lambda d: WittElement({k: GR(v) for k, v in d.items()})
    )


class TestWitt:
    def test_bracket_examples(self):
        assert witt_bracket(witt_e(-2), witt_e(3)) == witt_e(1) * 5
        vir = witt_bracket(witt_e(2), witt_e(-2), virasoro=True)
        assert vir == witt_e(0) * (-4) + witt_c(GR(Fraction(-1, 2)))
        assert witt_bracket(witt_e(5), witt_c()).is_zero
        assert witt_bracket(witt_e(2), witt_e(-2)) == witt_e(0) * (-4)

    def test_central_is_central(self):
        rng = random.Random(4)
        for _ in range(10):
            u = WittElement({rng.randint(-5, 5): rand_scalar(rng)})
            assert witt_bracket(u, witt_c(), virasoro=True).is_zero

    @settings(max_examples=60, deadline=None)
    @given(witt_strategy(), witt_strategy(), st.booleans())
    def test_antisymmetry(self, u, v, vir):
        assert (witt_bracket(u, v, vir) + witt_bracket(v, u, vir)).is_zero

    @settings(max_examples=60, deadline=None)
    @given(witt_strategy(), witt_strategy(), witt_strategy(), st.booleans())
    def test_jacobi(self, u, v, w, vir):
        total = (
            witt_bracket(u, witt_bracket(v, w, vir), vir)
            + witt_bracket(v, witt_bracket(w, u, vir), vir)
            + witt_bracket(w, witt_bracket(u, v, vir), vir)
        )
        assert total.is_zero

    def test_element_repr(self):
        elem = witt_e(1) * 5 - witt_c(GR(Fraction(1, 2)))
        assert repr(elem) == "5*e_1 - 1/2*c"
        assert repr(WITT.zero()) == "0"


class TestWittTarget:
    def test_basis_elements(self):
        assert WITT.basis_element("c") == witt_c()
        assert WITT.basis_element("e_-2") == witt_e(-2)
        assert WITT.basis_element("e5") == witt_e(5)
        assert WittTarget(True).basis_element("e_0") == witt_e(0)

    def test_element_sums_aliases(self):
        assert WITT.element({"e1": "1", "e_1": "-1"}).is_zero
        assert WITT.element({"e_2": "1/2", "e2": "1/2", "c": "i"}) == (
            witt_e(2) + witt_c(GR(0, 1))
        )
        assert WITT.element({}) == WITT.zero()

    @pytest.mark.parametrize("label", ["x_1", "e", "e_", "e_1.5", "C", "f_2"])
    def test_unknown_label(self, label):
        with pytest.raises(KeyError) as info:
            WITT.basis_element(label)
        assert info.value.args == (
            f"unknown Witt basis name {label!r} (use e_<k> or c)",
        )
        with pytest.raises(KeyError):
            WITT.element({label: "0"})


class TestGeneratedWindow:
    def test_depth_two_covers_e1(self):
        report = generated_window(WITT, [witt_e(-2), witt_e(3)], depth=2, window=1)
        assert report.covered == (1,)

    def test_full_window_at_depth_eight(self):
        report = generated_window(WITT, [witt_e(-2), witt_e(3)], depth=8, window=10)
        assert report.covers_window()

    def test_window_projects_the_span(self):
        # e_9 lies outside the window, so the span's projection holds e_1
        report = generated_window(WITT, [witt_e(1) + witt_e(9)], depth=1, window=2)
        assert report.covered == (1,) and report.span_dim == 1

    def test_single_central_generator(self):
        report = generated_window(WITT, [witt_e(0)], depth=5, window=3)
        assert report.covered == (0,)

    def test_monotone_in_depth_and_window(self):
        gens = [witt_e(-2), witt_e(3)]
        prev: set = set()
        for depth in range(1, 7):
            covered = set(generated_window(WITT, gens, depth, 6).covered)
            assert prev <= covered
            prev = covered
        wide = set(generated_window(WITT, gens, 6, 8).covered)
        assert prev <= wide

    def test_virasoro_central_coverage(self):
        report = generated_window(
            WittTarget(True), [witt_e(-2), witt_e(3)], depth=6, window=4
        )
        assert report.central_covered

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generated_window(WITT, [], 2, 2)
        with pytest.raises(ValueError):
            generated_window(WITT, [witt_e(1)], 0, 2)


def _pairs(terms: dict) -> dict:
    return {k: (c.re, c.im) for k, c in terms.items()}


class TestClosureOracle:
    """Closure dimensions against the all-pairs closure in oracle_utils."""

    WITT_GENS = [
        ({1: 1, 9: 1}, {-3: 1}),
        ({-2: 1}, {3: 1}),
        ({2: 1, -1: GR(0, 1)}, {3: 1}),
        ({0: 1, 1: 2}, {-1: 1}),
    ]

    @pytest.mark.parametrize("virasoro", [False, True])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("gens", WITT_GENS)
    def test_window_span_dim(self, gens, depth, virasoro):
        gens = [WittElement(g) for g in gens]
        report = generated_window(
            WittTarget(virasoro), gens, depth=depth, window=3
        )
        assert report.span_dim == oracle_closure_dim(
            [_pairs(g.terms) for g in gens],
            lambda u, v: oracle_witt_bracket(u, v, virasoro),
            depth - 1,
        )

    @pytest.mark.parametrize("m", [2, 3])
    def test_subalgebra_closure_dim(self, m):
        alg = sl_algebra(m)
        rng = random.Random(m)
        for _ in range(12):
            coords = [
                {lab: rand_scalar(rng, 2) for lab in rng.sample(alg.labels, k)}
                for k in (rng.randint(1, 2), rng.randint(1, 3))
            ]
            gens = [alg.element(c) for c in coords if any(c.values())]
            if not gens:
                continue
            assert subalgebra_closure(alg, gens).dim == oracle_closure_dim(
                [oracle_sl_matrix(_pairs(c)) for c in coords], oracle_matrix_bracket
            )


class TestCustomAlgebraJson:
    def test_round_trip(self):
        alg = algebra_from_json(
            {
                "basis": ["x", "y", "z"],
                "brackets": [
                    {"i": "x", "j": "y", "coords": {"z": "1"}},
                ],
            }
        )
        x, y, z = (alg.basis_element(lab) for lab in "xyz")
        assert alg.bracket(x, y) == z
        assert alg.bracket(y, x) == -z
        assert alg.bracket(x, z).is_zero

    def test_integer_indices(self):
        alg = algebra_from_json(
            {"basis": ["a", "b", "c"], "brackets": [{"i": 0, "j": 1, "coords": {2: "2"}}]}
        )
        assert alg.bracket(alg.basis_element("a"), alg.basis_element("b")) == (
            alg.basis_element("c") * 2
        )

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            algebra_from_json({"brackets": []})
        with pytest.raises(ValueError):
            algebra_from_json(
                {"basis": ["a"], "brackets": [{"i": "q", "j": "a", "coords": {}}]}
            )
        with pytest.raises(ValueError, match="Jacobi"):
            algebra_from_json(
                {
                    "basis": ["a", "b", "c"],
                    "brackets": [
                        {"i": "a", "j": "b", "coords": {"c": "1"}},
                        {"i": "b", "j": "c", "coords": {"a": "1"}},
                        {"i": "a", "j": "c", "coords": {"c": "1"}},
                    ],
                }
            )
