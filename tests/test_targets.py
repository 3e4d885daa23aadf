import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_utils import (
    SL2_SCALED,
    SL2_SCALED_LABELS,
    oracle_closure_dim,
    oracle_matrix_bracket,
    pair_mul,
    oracle_witt_bracket,
    oracle_sl_matrix,
    rand_scalar,
)
from ymalg import free_lie, targets
from ymalg.linalg import Echelon, Subspace, row_bilinear
from ymalg.scalars import GaussianRational as GR
from ymalg.targets import (
    StructureConstantAlgebra,
    WittElement,
    WITT_CENTRAL,
    WittTarget,
    _bracket_closure,
    _virasoro_row_pair,
    _witt_degree,
    _witt_pair,
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

    def test_element_resolves_zero_coefficient_labels(self):
        sl2 = sl_algebra(2)
        with pytest.raises(KeyError, match="unknown basis label 'q' in sl"):
            sl2.element({"q": "0"})
        # a label and its index name one basis element, and their terms add up
        assert sl2.element({"e": "1", 0: "-1"}).is_zero

    @pytest.mark.parametrize("label", [1.7, 2.9, True, False, -1, 3, None, 1.0])
    def test_only_labels_and_int_indices_name_basis_elements(self, label):
        sl2 = sl_algebra(2)
        with pytest.raises(KeyError):
            sl2.element({label: "1"})
        with pytest.raises(KeyError):
            sl2.basis_element(label)

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

    @pytest.mark.parametrize(
        "make",
        [lambda: sl_algebra(2), lambda: sl_algebra(3), heisenberg],
        ids=["sl2", "sl3", "heisenberg"],
    )
    def test_reversed_pairs_negate(self, make):
        algebra = make()
        basis = [algebra.basis_element(lab) for lab in algebra.labels]
        for i, u in enumerate(basis):
            for v in basis[i:]:
                assert algebra.bracket(v, u) == -algebra.bracket(u, v)

    def test_algebra_mismatch(self):
        sl2, e, _, _ = sl2_elems()
        h1 = heisenberg()
        with pytest.raises(ValueError):
            sl2.bracket(e, h1.basis_element("p"))
        with pytest.raises(ValueError):
            h1.bracket(e, e)


@pytest.mark.parametrize(
    "bracket, native",
    [
        (witt_bracket, witt_e(1)),
        (lambda u, v: witt_bracket(u, v, True), witt_e(1)),
        (WittTarget(True).bracket, witt_e(1)),
        (sl_algebra(3).bracket, sl_algebra(3).basis_element("E12")),
        (free_lie.bracket, free_lie.FreeLieElement.generator(2, 1)),
    ],
    ids=["witt", "virasoro", "virasoro-target", "sl3", "free-lie"],
)
def test_bracket_refuses_foreign_elements(bracket, native):
    # every element bracket checks its operands' space in linalg.bilinear
    _, e, _, f = sl2_elems()
    for u, v in ((native, e), (f, native)):
        with pytest.raises(ValueError, match="^cannot combine elements of "):
            bracket(u, v)
    assert bracket(native, native).is_zero


def test_witt_bracket_refuses_two_sl2_elements():
    _, e, h, f = sl2_elems()
    for bracket, u, v in ((witt_bracket, e, f), (WittTarget(True).bracket, e, h)):
        with pytest.raises(ValueError, match="^cannot combine elements of "):
            bracket(u, v)


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
        a, b, c = (alg.basis_element(lab) for lab in "abc")
        # only the reversed pair (2, 0) was given
        assert alg.bracket(c, a) == b
        assert alg.bracket(a, c) == -b

    def test_antisymmetry_conflict(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            StructureConstantAlgebra(
                ("a", "b"),
                {(0, 1): {0: GR(1)}, (1, 0): {0: GR(1)}},
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="^duplicate basis labels$"):
            StructureConstantAlgebra(("a", "a"), {})

    def test_nonzero_self_bracket_rejected(self):
        with pytest.raises(ValueError):
            StructureConstantAlgebra(("a",), {(0, 0): {0: GR(1)}})

    def test_jacobi_rejected_with_fractional_complex_constants(self):
        # Jacobi is checked on the table cleared to Z[i]: on (a, b, c) the
        # sum is [[a, b], c] = i/6 * a
        with pytest.raises(ValueError, match="Jacobi"):
            StructureConstantAlgebra(
                ("a", "b", "c"), {(0, 1): {1: "1/2i"}, (1, 2): {0: "1/3"}}
            )

    @pytest.mark.parametrize(
        "brackets",
        [
            {(0, 1): {5: "1"}},
            {(0, 1): {2: "1"}},
            {(0, 7): {1: "1"}},
            {("x", 0): {1: "1"}},
            {(0, 1): {"b": "1"}},
            {(0, True): {1: "1"}},
            {(-1, 1): {0: "1"}},
        ],
    )
    def test_keys_outside_the_basis_rejected(self, brackets):
        with pytest.raises(ValueError, match="not a basis index"):
            StructureConstantAlgebra(("a", "b"), brackets)


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

    @pytest.mark.parametrize("key", [1.7, 1.0, True, "1", None])
    def test_keys_are_ints_or_central(self, key):
        # a float or bool key is not truncated to e_1
        with pytest.raises(KeyError, match="neither an int nor WITT_CENTRAL"):
            WittElement({key: "1"})
        assert WittElement({1: "1", WITT_CENTRAL: "2"}) == witt_e(1) + witt_c(2)

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

    @pytest.mark.parametrize(
        "label",
        ["x_1", "e", "e_", "e_1.5", "C", "f_2", 5, None, 1.0, True, "e_3\n",
         "e_\u0663", "e\u0663"],
    )
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

    @pytest.mark.parametrize("target", [WITT, WittTarget(True)])
    def test_huge_window_costs_what_the_span_costs(self, target):
        # only the indices in the span's support are tested, so a window of
        # 10**12 reports what a window of 1000 does
        gens = [witt_e(-2), witt_e(3)]
        small = generated_window(target, gens, depth=6, window=1000)
        huge = generated_window(target, gens, depth=6, window=10**12)
        assert huge == small._replace(window=10**12)
        assert not huge.covers_window()
        assert small.central_covered == target.virasoro

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generated_window(WITT, [], 2, 2)
        with pytest.raises(ValueError):
            generated_window(WITT, [witt_e(1)], 0, 2)


def _pairs(terms: dict) -> dict:
    # the oracle's central key is "c"
    return {"c" if k == WITT_CENTRAL else k: (c.re, c.im) for k, c in terms.items()}


class TestClosureOracle:
    """Closure dimensions against the all-pairs closure in oracle_utils."""

    WITT_GENS = [
        ({1: 1, 9: 1}, {-3: 1}),
        ({-2: 1}, {3: 1}),
        ({2: 1, -1: GR(0, 1)}, {3: 1}),
        ({0: 1, 1: 2}, {-1: 1}),
        # fractional and complex coefficients: the closure brackets rows
        # cleared to Z[i], with 12 times the Virasoro rule
        ({2: "1/2", -1: "1/3i"}, {3: 1}),
        ({1: "2+i", 4: "-3/2"}, {-2: 1}),
        # single-entry rows, whose brackets the closure skips once their
        # columns are spanned, beside rows with several entries (the skip
        # first fires at depth 4)
        ({-2: 1}, {0: 1, 3: "i"}),
        # single entries whose spanned unit degrees keep holes, so the
        # graded closure tests each earlier row instead of reading a run
        ({-5: 1}, {7: 1}),
        # a homogeneous degree-0 row with two entries, which the graded
        # closure pairs with every row
        ({-2: 1}, {2: 1}, {0: 1, WITT_CENTRAL: "1/2"}),
    ]
    # the deepest depth checked for each set: past 4 on the three where the
    # skip fires most
    WITT_DEPTHS = (4, 6, 4, 4, 4, 4, 5, 6, 4)

    @pytest.mark.parametrize("virasoro", [False, True])
    @pytest.mark.parametrize(
        "gens, depth",
        [
            pytest.param(g, d, id=f"gens{k}-{d}")
            for k, (g, top) in enumerate(zip(WITT_GENS, WITT_DEPTHS))
            for d in range(1, top + 1)
        ],
    )
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

    def test_window_insert_count(self, monkeypatch):
        # all rows of e_-2, e_3 are single-entry: brackets that land on
        # spanned unit columns are skipped, not inserted and rejected
        calls = []
        original = Echelon.insert

        def counted(self, row):
            calls.append(row)
            return original(self, row)

        monkeypatch.setattr(Echelon, "insert", counted)
        report = generated_window(WITT, [witt_e(-2), witt_e(3)], 8, 10)
        assert report.span_dim == 123
        assert len(calls) <= 3 * report.span_dim

    # generator sets on which the graded closure drops pairs, with the
    # rounds run: single entries; a two-entry row of degree 0, after the
    # rows of nonzero degree and before them; c; a row of mixed degrees;
    # single entries whose unit degrees keep holes (each earlier row is
    # tested) and whose unit degrees are soon one long run (partners are
    # read from the degree index); a row of mixed degrees whose brackets
    # reduce to units that no degree sum of the last row's partners names
    GRADED_SETS = [
        (({-2: 1}, {3: 1}), 6),
        (({-2: 1}, {2: 1}, {0: 1, WITT_CENTRAL: "1/2"}), 4),
        (({0: 1, WITT_CENTRAL: "1/2"}, {-2: 1}, {3: 1}), 4),
        (({-5: 1}, {5: 1}, {WITT_CENTRAL: 1}), 4),
        (({-2: 1}, {0: 1, 3: "i"}), 4),
        (({-5: 1}, {7: 1}), 5),
        (({-2: 1}, {3: 1}), 8),
        (({-1: 1}, {0: "i", 1: -1}, {3: 1}), 2),
    ]

    @pytest.mark.parametrize("virasoro", [False, True])
    def test_skip_keeps_the_rows(self, monkeypatch, virasoro):
        # the closure's rows, in order, against rounds that insert every
        # bracket; under the Witt grading the closure inserts the same rows
        # in the same order as without it
        pair = _virasoro_row_pair if virasoro else _witt_pair
        inserted, insert = [], Echelon.insert
        monkeypatch.setattr(
            Echelon, "insert", lambda ech, row: inserted.append(row) or insert(ech, row)
        )

        def closure(gens, rounds, **grading):
            inserted.clear()
            space = Subspace(WITT.zero(), gens)
            span = _bracket_closure(space, pair, rounds, **grading)
            return span.echelon.rows(), list(inserted)

        for gens, rounds in self.GRADED_SETS:
            gens = [WittElement(g) for g in gens]
            ungraded = closure(gens, rounds)
            assert closure(gens, rounds, degree=_witt_degree) == ungraded
            ech, done = Echelon(), 0
            for g in gens:
                ech.insert(g.row)
            for _ in range(rounds):
                rows = ech.rows()
                for i in range(done, len(rows)):
                    for b in rows[:i]:
                        ech.insert(row_bilinear(rows[i], b, pair))
                done = len(rows)
            assert ungraded[0] == ech.rows()

    @pytest.mark.parametrize("virasoro", [False, True])
    def test_partners_are_the_kept_rows(self, monkeypatch, virasoro):
        # the pairs of the graded closure, in order, against a closure that
        # tests each earlier row of a row of degree p: it keeps the rows of
        # no degree and those of degree q with p + q zero or not in units
        pair = _virasoro_row_pair if virasoro else _witt_pair
        pairs, insert_brackets = [], Echelon.insert_brackets

        def recorded(ech, todo, rule):
            # lazily: each row's partners are found after the pairs before
            def record():
                for ab in todo:
                    pairs.append(ab)
                    yield ab

            insert_brackets(ech, record(), rule)

        def reference(gens, rounds):
            ech, done, kept, degrees = Echelon(), 0, [], []
            for g in gens:
                ech.insert(g.row)
            for _ in range(rounds):
                rows = ech.rows()
                degrees += map(_witt_degree, rows[len(degrees):])
                for i in range(done, len(rows)):
                    p, units = degrees[i], ech.units
                    row_pairs = [
                        (rows[i], b)
                        for b, q in zip(rows[:i], degrees)
                        if p is None or q is None or not (p + q and p + q in units)
                    ]
                    kept += row_pairs
                    for a, b in row_pairs:
                        if not (r := row_bilinear(a, b, pair)).keys() <= units:
                            ech.insert(r)
                if ech.dim == len(rows):
                    break
                done = len(rows)
            return kept

        for gens, rounds in self.GRADED_SETS:
            gens = [WittElement(g) for g in gens]
            want, space = reference(gens, rounds), Subspace(WITT.zero(), gens)
            with monkeypatch.context() as m:
                m.setattr(Echelon, "insert_brackets", recorded)
                pairs.clear()
                _bracket_closure(space, pair, rounds, _witt_degree)
            assert pairs == want

    @pytest.mark.parametrize("virasoro", [False, True], ids=["witt", "virasoro"])
    def test_window_rule_calls(self, monkeypatch, virasoro):
        # the graded closure calls the rule about once per spanned row: a
        # pair whose degree is a spanned unit column, e_0 included, is
        # dropped before the call (1,953 Witt and 2,016 Virasoro calls
        # without the grading; 137 and 138 with it)
        calls = []
        for name in ("_witt_pair", "_virasoro_row_pair"):
            rule = getattr(targets, name)

            def counted(n, m, rule=rule):
                calls.append((n, m))
                return rule(n, m)

            monkeypatch.setattr(targets, name, counted)
        report = generated_window(
            WittTarget(virasoro), [witt_e(-2), witt_e(3)], 8, 10
        )
        assert report.span_dim == (124 if virasoro else 123)
        assert len(calls) <= 1.25 * report.span_dim

    @pytest.mark.parametrize("virasoro", [False, True], ids=["witt", "virasoro"])
    def test_window_unit_tests(self, monkeypatch, virasoro):
        # the graded closure reads a row's partners from a degree index and
        # the run of spanned unit degrees, and tests only the degree sums
        # the last row's brackets could have made units: 285 Witt and 302
        # Virasoro membership tests of ``units``, against 2,073 and 2,151
        # when each earlier row is tested
        tests = []

        class Counted(set):
            def __contains__(self, key):
                tests.append(key)
                return super().__contains__(key)

        init = Echelon.__init__

        def counted_init(ech):
            init(ech)
            ech.units = Counted()

        monkeypatch.setattr(Echelon, "__init__", counted_init)
        report = generated_window(
            WittTarget(virasoro), [witt_e(-2), witt_e(3)], 8, 10
        )
        assert report.span_dim == (124 if virasoro else 123)
        assert len(tests) <= 3 * report.span_dim

    @pytest.mark.parametrize("virasoro", [False, True], ids=["witt", "virasoro"])
    def test_window_inserts_are_accepted(self, monkeypatch, virasoro):
        # the bracket of e_p with the two-entry degree-0 row is -p a e_p,
        # dropped once e_p is spanned: every insert of the closure (the
        # generators, one new row) and of the window's projection adds a row
        accepted, insert = [], Echelon.insert

        def counted(ech, row):
            accepted.append(insert(ech, row))
            return accepted[-1]

        monkeypatch.setattr(Echelon, "insert", counted)
        gens = [WittElement(g) for g in self.WITT_GENS[-1]]
        report = generated_window(WittTarget(virasoro), gens, 8, 10)
        assert report.span_dim == 4
        assert accepted == [True] * 8

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

    def test_custom_algebra_closure_dim(self):
        # constants with a denominator and i, cleared by one lcm before the
        # closure brackets rows with them
        alg = algebra_from_json(SL2_SCALED)
        rng = random.Random(11)
        for _ in range(16):
            coords = [
                {lab: rand_scalar(rng, 2) for lab in rng.sample("abc", k)}
                for k in (rng.randint(1, 2), rng.randint(1, 3))
            ]
            gens = [alg.element(c) for c in coords if any(c.values())]
            if not gens:
                continue
            matrices = [
                oracle_sl_matrix(
                    {
                        SL2_SCALED_LABELS[lab][0]: pair_mul(
                            SL2_SCALED_LABELS[lab][1], (x.re, x.im)
                        )
                        for lab, x in c.items()
                    }
                )
                for c in coords
            ]
            assert subalgebra_closure(alg, gens).dim == oracle_closure_dim(
                matrices, oracle_matrix_bracket
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

    def test_duplicate_entries_must_agree(self):
        # [x,y] = z and [x,y] = 2z in one spec is an error, not the last one winning
        def spec(*coords):
            return {
                "basis": ["x", "y", "z"],
                "brackets": [{"i": "x", "j": "y", "coords": c} for c in coords],
            }

        with pytest.raises(ValueError, match=r"conflicting entries for \[x, y\]"):
            algebra_from_json(spec({"z": "1"}, {"z": "2"}))
        # an exact repeat, up to zero coefficients, is the same bracket
        alg = algebra_from_json(spec({"z": "1"}, {"z": "1", "x": "0"}))
        x, y, z = (alg.basis_element(lab) for lab in "xyz")
        assert alg.bracket(x, y) == z
