import hashlib
import os
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_utils import (
    _least_suffix_split,
    oracle_matrix_evaluate,
    oracle_sl2_conditions,
    oracle_sl_matrix,
    rand_homogeneous,
    rand_scalar,
)
from ymalg.free_lie import DEFAULT_DEGREE_CAP, FreeLieElement, bracket
import ymalg.morphisms as morphisms
from ymalg.morphisms import (
    FreeTarget,
    GeneratorMorphism,
    Sl2CaseConditions,
    Sl2CaseParameters,
    _audit_candidates,
    _split_samples,
    analyze_sl2_morphism,
    assemble_sl2_morphism,
    case_oracle_mismatches,
    doubling_morphism,
    isotropic_orthogonal_witness,
    pair_to_ym4_morphism,
    projection_morphism,
    sample_case_parameters,
    sl2_case_residual,
    solvable_image_audit,
    solvable_non_nilpotent_example,
    yu_morphism,
)
from ymalg.scalars import GaussianRational as GR, I, ONE
from ymalg.targets import (
    ImageAnalysis,
    StructureConstantAlgebra,
    WittTarget,
    analyze_image,
    sl_algebra,
    subalgebra_closure,
    witt_e,
)
from ymalg.ym_quotient import is_zero_in_ym, ym_relations

ZERO2 = (GR(0), GR(0))


def x(n, j):
    return FreeLieElement.generator(n, j)


class TestEvaluate:
    def test_agrees_on_generators(self):
        phi = yu_morphism()
        for j in (1, 2, 3):
            assert phi.evaluate(x(3, j)) == phi.images[j - 1]

    def test_yu_bracket_images(self):
        phi = yu_morphism()
        sl3 = phi.target
        assert phi.evaluate(bracket(x(3, 1), x(3, 2))) == sl3.basis_element("E13")
        assert phi.evaluate(bracket(x(3, 2), x(3, 3))) == sl3.basis_element("E21")

    def test_ef_images(self):
        sl2 = sl_algebra(2)
        phi = GeneratorMorphism(
            3, sl2, [sl2.basis_element("e"), sl2.basis_element("f"), sl2.zero()]
        )
        assert phi.evaluate(bracket(x(3, 1), x(3, 2))) == sl2.basis_element("h")

    def test_generator_count_mismatch(self):
        phi = yu_morphism()
        with pytest.raises(ValueError):
            phi.evaluate(FreeLieElement.generator(4, 4))

    def test_element_of_another_space(self):
        # f(k) elements evaluate for every k <= n; anything else is refused
        # with the space it lives in
        phi = doubling_morphism(1)
        assert phi.evaluate(FreeLieElement.generator(1, 1)) == phi.images[0]
        with pytest.raises(ValueError, match=r"^cannot evaluate an element of sl\(2\)"):
            phi.evaluate(sl_algebra(2).basis_element("e"))
        with pytest.raises(ValueError, match=r"^cannot evaluate an element of int"):
            phi.evaluate(0)
        with pytest.raises(ValueError, match=r"^element uses 3 generators"):
            phi.evaluate(FreeLieElement.generator(3, 3))

    def test_morphism_property_into_sl3(self):
        rng = random.Random(31)
        phi = yu_morphism()
        sl3 = phi.target
        for _ in range(20):
            a = rand_homogeneous(3, rng.randint(1, 3), rng)
            b = rand_homogeneous(3, rng.randint(1, 3), rng)
            assert phi.evaluate(bracket(a, b)) == sl3.bracket(
                phi.evaluate(a), phi.evaluate(b)
            )

    def test_morphism_property_into_free(self):
        rng = random.Random(32)
        phi = doubling_morphism(2)
        for _ in range(15):
            a = rand_homogeneous(4, rng.randint(1, 3), rng)
            b = rand_homogeneous(4, rng.randint(1, 3), rng)
            assert phi.evaluate(bracket(a, b)) == bracket(
                phi.evaluate(a), phi.evaluate(b)
            )

    def test_relators_share_word_images(self, monkeypatch):
        # the three weak relators of ym(3) use 9 distinct Lyndon words of
        # degrees 2 and 3 between them; each is bracketed once
        sl2 = sl_algebra(2)
        rng = random.Random(33)
        e, h, f = (sl2.basis_element(k) for k in "ehf")
        images = [
            e * rand_scalar(rng) + h * rand_scalar(rng) + f * rand_scalar(rng)
            for _ in range(3)
        ]
        # one morphism per relator: nothing is shared
        separate = [
            GeneratorMorphism(3, sl2, images).evaluate(r)
            for r in ym_relations(3).relators
        ]
        assert not all(r.is_zero for r in separate)
        calls = []
        original = StructureConstantAlgebra.bracket

        def counted(self, u, v):
            calls.append((u, v))
            return original(self, u, v)

        monkeypatch.setattr(StructureConstantAlgebra, "bracket", counted)
        phi = GeneratorMorphism(3, sl2, images)
        assert phi.relation_residuals() == separate
        assert len(calls) == 9
        # the word images live as long as the morphism: no bracket is redone
        assert [phi.evaluate(r) for r in ym_relations(3).relators] == separate
        assert len(calls) == 9

    def test_word_program_matches_the_matrix_oracle(self):
        # each Lyndon word's standard bracketing of three random elements
        # of sl(3), as 3x3 matrices multiplied out without the library
        sl3 = sl_algebra(3)
        rng = random.Random(34)
        coords = [{lab: rand_scalar(rng) for lab in sl3.labels} for _ in range(3)]
        phi = GeneratorMorphism(3, sl3, [sl3.element(c) for c in coords])
        gens = {
            j: oracle_sl_matrix({lab: (c.re, c.im) for lab, c in cj.items()})
            for j, cj in enumerate(coords, 1)
        }
        # every degree up to the cap, the deepest word recursion included;
        # unlike E12, E23, E31, random images keep the deep brackets nonzero
        for d in range(1, DEFAULT_DEGREE_CAP + 1):
            for _ in range(8 if d <= 5 else 2):
                a = rand_homogeneous(3, d, rng)
                image = phi.evaluate(a)
                assert not image.is_zero
                assert oracle_sl_matrix(
                    {sl3.labels[k]: (c.re, c.im) for k, c in image.terms.items()}
                ) == oracle_matrix_evaluate(
                    {w: (c.re, c.im) for w, c in a.terms.items()}, gens
                )

    def test_sum_after_summand_brackets_no_word_twice(self, monkeypatch):
        sl2 = sl_algebra(2)
        rng = random.Random(35)
        images = [
            sl2.element({lab: rand_scalar(rng) for lab in "ehf"}) for _ in range(3)
        ]
        r1, r2, _ = ym_relations(3).relators

        def words(*elems):
            # every word of length >= 2 that the standard bracketings use
            todo = [w for e in elems for w in e.row]
            seen = set()
            while todo:
                w = tuple(todo.pop())
                if len(w) > 1 and w not in seen:
                    seen.add(w)
                    todo += _least_suffix_split(w)
            return seen

        expected = [
            GeneratorMorphism(3, sl2, images).evaluate(r) for r in (r1, r1 + r2)
        ]
        calls = []
        original = StructureConstantAlgebra.bracket

        def counted(self, u, v):
            calls.append((u, v))
            return original(self, u, v)

        monkeypatch.setattr(StructureConstantAlgebra, "bracket", counted)
        phi = GeneratorMorphism(3, sl2, images)
        assert phi.evaluate(r1) == expected[0]
        assert len(calls) == len(words(r1))
        assert phi.evaluate(r1 + r2) == expected[1]
        assert len(calls) == len(words(r1, r2)) > len(words(r1))

    def test_image_arity_checked(self):
        sl2 = sl_algebra(2)
        with pytest.raises(ValueError):
            GeneratorMorphism(3, sl2, [sl2.zero()] * 2)
        with pytest.raises(ValueError):
            GeneratorMorphism(2, sl2, [sl2.zero(), witt_e(1)])


class TestDoubling:
    def test_residuals_vanish(self):
        for m in (1, 2, 3):
            phi = doubling_morphism(m)
            assert phi.n == 2 * m
            res = phi.relation_residuals()
            assert len(res) == 2 * m
            assert all(r.is_zero for r in res)

    def test_images(self):
        phi = doubling_morphism(2)
        y1 = FreeLieElement.generator(2, 1)
        assert phi.images[0] == y1
        assert phi.images[2] == y1 * I
        assert phi.evaluate(bracket(x(4, 1), x(4, 2))) == bracket(
            y1, FreeLieElement.generator(2, 2)
        )

    def test_preconditions(self):
        with pytest.raises(ValueError, match=r"^need m >= 1$"):
            doubling_morphism(0)

    def test_composed_into_any_target_still_kills_relators(self):
        # push the doubled images of ym(6) through y -> (E12, E23, E31)
        sl3 = sl_algebra(3)
        imgs = [sl3.basis_element(k) for k in ("E12", "E23", "E31")]
        composed = GeneratorMorphism(6, sl3, imgs + [im * I for im in imgs])
        assert composed.residuals_vanish()
        # and through y -> (e, f) into sl(2) for m = 2
        sl2 = sl_algebra(2)
        imgs2 = [sl2.basis_element("e"), sl2.basis_element("f")]
        composed2 = GeneratorMorphism(4, sl2, imgs2 + [im * I for im in imgs2])
        assert composed2.residuals_vanish()


class TestProjection:
    def test_residuals_land_in_smaller_ideal(self):
        phi = projection_morphism(3, 2)
        pres2 = ym_relations(2)
        residuals = phi.relation_residuals()
        assert all(is_zero_in_ym(pres2, r) for r in residuals)
        # r_1 and r_2 map onto the ym(2) relators (nonzero in f(2)); every
        # summand of r_3 contains x_3, so its image vanishes outright
        assert residuals[0] == pres2.relators[0]
        assert residuals[1] == pres2.relators[1]
        assert residuals[2].is_zero

    def test_identity_case(self):
        phi = projection_morphism(2, 2)
        pres = ym_relations(2)
        for r in phi.relation_residuals():
            assert is_zero_in_ym(pres, r)

    def test_projection_to_abelian(self):
        phi = projection_morphism(2, 1)
        assert all(r.is_zero for r in phi.relation_residuals())

    def test_preconditions(self):
        with pytest.raises(ValueError):
            projection_morphism(2, 3)
        with pytest.raises(ValueError):
            projection_morphism(2, 0)


class TestYu:
    def test_strong_residuals(self):
        phi = yu_morphism()
        res = phi.relation_residuals(strong=True)
        assert len(res) == 9
        assert all(r.is_zero for r in res)

    def test_weak_follows(self):
        assert yu_morphism().residuals_vanish(strong=False)

    def test_image_generates_sl3(self):
        phi = yu_morphism()
        assert subalgebra_closure(phi.target, list(phi.images)).dim == 8


class TestPairMorphisms:
    def test_sl2_ef_surjective(self):
        sl2 = sl_algebra(2)
        e, f = sl2.basis_element("e"), sl2.basis_element("f")
        phi = pair_to_ym4_morphism(sl2, e, f)
        assert phi.residuals_vanish()
        assert subalgebra_closure(sl2, [e, f]).dim == 3

    def test_sl2_eh_not_surjective(self):
        sl2 = sl_algebra(2)
        e, h = sl2.basis_element("e"), sl2.basis_element("h")
        phi = pair_to_ym4_morphism(sl2, e, h)
        assert phi.residuals_vanish()
        assert subalgebra_closure(sl2, [e, h]).dim == 2

    def test_sl3_pair_closures(self):
        sl3 = sl_algebra(3)
        a = sl3.basis_element("E12") + sl3.basis_element("E23")
        b = sl3.basis_element("E21") + sl3.basis_element("E32")
        phi = pair_to_ym4_morphism(sl3, a, b)
        assert phi.residuals_vanish()
        # this pair closes on an sl(2)-copy of dimension 3, not on all of
        # sl(3): [a,b] = diag(1,0,-1) and bracketing returns to span{a,b}
        assert subalgebra_closure(sl3, [a, b]).dim == 3
        # a generic second generator does surject
        b_generic = sl3.basis_element("E21") + sl3.basis_element("E32") * 3
        phi = pair_to_ym4_morphism(sl3, a, b_generic)
        assert phi.residuals_vanish()
        assert subalgebra_closure(sl3, [a, b_generic]).dim == 8


class TestWittMorphism:
    def test_residuals_both_flags(self):
        for virasoro in (False, True):
            phi = pair_to_ym4_morphism(WittTarget(virasoro), witt_e(-2), witt_e(3))
            res = phi.relation_residuals()
            assert all(r.is_zero for r in res), virasoro

    def test_default_images(self):
        phi = pair_to_ym4_morphism(WittTarget(), witt_e(-2), witt_e(3))
        assert phi.images[0] == witt_e(-2)
        assert phi.images[1] == witt_e(3)
        assert phi.images[2] == witt_e(-2) * I
        assert phi.images[3] == witt_e(3) * I

    def test_bracket_image(self):
        phi = pair_to_ym4_morphism(WittTarget(), witt_e(-2), witt_e(3))
        assert phi.evaluate(bracket(x(4, 1), x(4, 2))) == witt_e(1) * 5


class TestIsotropicWitness:
    def test_examples(self):
        assert isotropic_orthogonal_witness((GR(1), I), (GR(2), GR(0, 2))) == GR(2)
        assert isotropic_orthogonal_witness((GR(1), I), (GR(0), GR(0))) == GR(0)
        assert isotropic_orthogonal_witness((GR(1), -I), (GR(0, 3), GR(3))) == GR(0, 3)

    def test_string_pairs_accepted(self):
        assert isotropic_orthogonal_witness(("1", "i"), ("2", "2i")) == GR(2)

    def test_precondition_diagnostics(self):
        with pytest.raises(ValueError, match="x is zero"):
            isotropic_orthogonal_witness((GR(0), GR(0)), (GR(1), I))
        with pytest.raises(ValueError, match="isotropic"):
            isotropic_orthogonal_witness((GR(1), GR(0)), (GR(0), GR(0)))
        with pytest.raises(ValueError, match="x.y"):
            isotropic_orthogonal_witness((GR(1), I), (GR(1), GR(0)))

    def test_corollary_y_dot_y(self):
        rng = random.Random(9)
        for _ in range(50):
            t = rand_scalar(rng)
            while not t:
                t = rand_scalar(rng)
            eps = I if rng.random() < 0.5 else -I
            xv = (t, t * eps)
            lam = rand_scalar(rng)
            yv = (xv[0] * lam, xv[1] * lam)
            got = isotropic_orthogonal_witness(xv, yv)
            assert got == lam
            assert yv[0] * yv[0] + yv[1] * yv[1] == GR(0)


class TestSl2Case:
    def test_semisimple_isotropic_beta(self):
        p = Sl2CaseParameters("semisimple", ZERO2, (ONE, I), ZERO2)
        conditions = sl2_case_residual(p)
        assert conditions.all_zero
        assert assemble_sl2_morphism(p).residuals_vanish()

    def test_nilpotent_gamma_fails(self):
        p = Sl2CaseParameters("nilpotent", ZERO2, ZERO2, (ONE, GR(0)))
        conditions = sl2_case_residual(p)
        assert not conditions.all_zero
        assert conditions.r3_conditions[2] == ONE  # gamma.gamma = 1

    def test_semisimple_alpha_fails_on_rj(self):
        p = Sl2CaseParameters("semisimple", (ONE, GR(0)), ZERO2, ZERO2)
        conditions = sl2_case_residual(p)
        assert not any(conditions.r3_conditions)
        assert conditions.rj_conditions[0] == (GR(2), GR(0))  # 2*alpha

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            Sl2CaseParameters("other", ZERO2, ZERO2, ZERO2)
        with pytest.raises(ValueError):
            Sl2CaseParameters("nilpotent", (1, 2), ZERO2, ZERO2)

    def test_oracle_equivalence_sampled(self):
        for branch in ("nilpotent", "semisimple"):
            assert case_oracle_mismatches(150, 13, branch) == 0

    def test_equivalence_on_crafted_zero_families(self):
        rng = random.Random(20)
        for _ in range(20):
            beta = (rand_scalar(rng), rand_scalar(rng))
            p = Sl2CaseParameters("semisimple", ZERO2, beta, ZERO2)
            assert sl2_case_residual(p).all_zero
            assert assemble_sl2_morphism(p).residuals_vanish()
        for _ in range(20):
            s, t = rand_scalar(rng), rand_scalar(rng)
            w = (ONE, I)
            p = Sl2CaseParameters(
                "nilpotent", (s * w[0], s * w[1]), (t * w[0], t * w[1]), ZERO2
            )
            assert sl2_case_residual(p).all_zero
            assert assemble_sl2_morphism(p).residuals_vanish()

    @pytest.mark.parametrize("branch", ["nilpotent", "semisimple"])
    def test_assembled_images_match_the_matrix_oracle(self, branch):
        # phi(x_k) = alpha_k E12 + beta_k H1 + gamma_k E21 for k = 1, 2, and
        # phi(x_3) = E12 or H1, as 2x2 matrices built without the library
        sl2 = sl_algebra(2)

        def matrix(elem):
            return oracle_sl_matrix(
                {sl2.labels[k]: (c.re, c.im) for k, c in elem.terms.items()}
            )

        for k in range(200):
            p = sample_case_parameters(random.Random(f"images:{k}"), branch)
            images = assemble_sl2_morphism(p).images
            for j in (0, 1):
                assert matrix(images[j]) == oracle_sl_matrix({
                    "E12": (p.alpha[j].re, p.alpha[j].im),
                    "H1": (p.beta[j].re, p.beta[j].im),
                    "E21": (p.gamma[j].re, p.gamma[j].im),
                })
            third = "E12" if branch == "nilpotent" else "H1"
            assert matrix(images[2]) == oracle_sl_matrix({third: (1, 0)})


_PARTS = st.builds(Fraction, st.integers(-50, 50), st.sampled_from((1, 2, 3, 6)))
_SCALARS = st.tuples(_PARTS, _PARTS)


class TestClosedForms:
    @pytest.mark.parametrize("branch", ["nilpotent", "semisimple"])
    @settings(max_examples=150, deadline=None)
    @given(params=st.lists(_SCALARS, min_size=6, max_size=6))
    def test_all_nine_values_match_the_oracle(self, branch, params):
        # mixed denominators 1, 2, 3 and 6 across the six parameters
        gr = [GR(*x) for x in params]
        conditions = sl2_case_residual(
            Sl2CaseParameters(branch, tuple(gr[0:2]), tuple(gr[2:4]), tuple(gr[4:6]))
        )
        r3, rj = oracle_sl2_conditions(
            branch, tuple(params[0:2]), tuple(params[2:4]), tuple(params[4:6])
        )
        assert [(c.re, c.im) for c in conditions.r3_conditions] == list(r3)
        assert [
            tuple((c.re, c.im) for c in pair) for pair in conditions.rj_conditions
        ] == list(rj)

    def test_closed_forms_form_no_scalar(self, monkeypatch):
        # the parameters are cleared to Z[i] once; only the nine returned
        # values are built as scalars
        params = [
            sample_case_parameters(random.Random(f"zi:{k}"), branch)
            for branch in ("nilpotent", "semisimple")
            for k in range(50)
        ]
        expected = [sl2_case_residual(p) for p in params]
        assert {c.all_zero for c in expected} == {True, False}

        def refuse(*args):
            raise AssertionError("a closed form combined Q(i) scalars")

        for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
            monkeypatch.setattr(GR, attr, refuse)
        assert [sl2_case_residual(p) for p in params] == expected


class TestAudit:
    def test_non_nilpotent_example(self):
        analysis = analyze_sl2_morphism(solvable_non_nilpotent_example())
        assert analysis.residuals_zero
        assert analysis.is_solvable
        assert not analysis.is_nilpotent
        assert analysis.image_dim == 2

    def test_zero_morphism(self):
        sl2 = sl_algebra(2)
        phi = GeneratorMorphism(3, sl2, [sl2.zero()] * 3)
        analysis = analyze_sl2_morphism(phi)
        assert analysis.residuals_zero and analysis.is_solvable
        assert analysis.image_dim == 0

    def test_audit_runs_clean(self):
        report = solvable_image_audit(60, 3)
        assert report.solvable_violations == ()
        assert report.residual_zero >= 2  # the two fixed candidates at least
        assert report.non_residual_zero > 0  # random candidates got filtered
        assert report.candidates == report.residual_zero + report.non_residual_zero
        assert not report.non_nilpotent_example.is_nilpotent

    def test_audit_reports_each_violation(self, monkeypatch):
        # no image is really non-solvable, so a stub reports every
        # residual-zero candidate as one; each is named by index and images
        stub = ImageAnalysis(0, False, False, False)
        monkeypatch.setattr(morphisms, "analyze_image", lambda alg, gens: stub)
        report = solvable_image_audit(30, 5)
        assert report.candidates == 32
        assert len(report.solvable_violations) == report.residual_zero >= 2
        assert report.solvable_violations[:2] == (
            "candidate 0: GeneratorMorphism(x_1 -> h, x_2 -> e, x_3 -> i*h)",
            "candidate 1: GeneratorMorphism(x_1 -> 0, x_2 -> 0, x_3 -> 0)",
        )
        indices = [int(v.split()[1][:-1]) for v in report.solvable_violations]
        assert indices == sorted(set(indices))

    def test_audit_seeded_reproducibility(self):
        a = solvable_image_audit(40, 11)
        b = solvable_image_audit(40, 11)
        assert a == b

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            solvable_image_audit(0, 1)

    @pytest.mark.parametrize("seed, digest", [
        (1, "6be4a6c22aec5c993bc9373b9182270d77e44921f00dadfb7c2ee62ebc32e4b5"),
        (7, "c7447ce7670581e51606886022b650eb86e299cc2ce148e7dea3b594f5630402"),
    ])
    def test_candidates_are_pinned(self, seed, digest):
        # the images and the order of the random draws behind them
        text = "\n".join(repr(phi) for phi in _audit_candidates(300, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [1, 7])
    def test_each_candidate_is_built_once(self, seed, monkeypatch):
        # the two fixed candidates and one morphism per sample: a scaled
        # candidate is built from its images, not from a second morphism
        built = []
        original = GeneratorMorphism.__init__

        def counted(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(GeneratorMorphism, "__init__", counted)
        assert sum(1 for _ in _audit_candidates(300, seed)) == 302
        assert len(built) == 302


def fake_cpus(monkeypatch, count):
    """Fake ``count`` usable CPUs, which is the sample loops' chunk count up
    to the sample count."""
    monkeypatch.setattr(morphisms, "_usable_cpus", lambda: count)


@pytest.fixture
def forks(monkeypatch):
    """The forks made during the test, by the pid that made each."""
    made = []
    fork = os.fork

    def counted():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


_BOTH = ("nilpotent", "semisimple")


class TestSplitSamples:
    """The sample loops run each chunk of ``range(samples)`` but the first
    in a forked worker; nothing they return may depend on the cut."""

    @pytest.mark.parametrize("samples", [1, 2, 3, 30])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_results_do_not_depend_on_the_chunk_count(
        self, forks, monkeypatch, samples, seed
    ):
        results = []
        for count in (1, 2, 3):
            fake_cpus(monkeypatch, count)
            before = len(forks)
            results.append((
                solvable_image_audit(samples, seed),
                [case_oracle_mismatches(samples, seed, b) for b in _BOTH],
            ))
            # one worker per chunk past the first, in each of the three loops
            assert len(forks) - before == 3 * (min(count, samples) - 1)
        assert results[1] == results[0] == results[2]

    def test_violations_and_mismatches_cross_chunks(self, forks, monkeypatch):
        # a stub reports every residual-zero candidate as a violation, and
        # closed forms that always vanish make every nonzero residual a
        # mismatch, so each chunk has some of both
        stub = ImageAnalysis(0, False, False, False)
        monkeypatch.setattr(morphisms, "analyze_image", lambda alg, gens: stub)
        always_zero = Sl2CaseConditions((), ())
        monkeypatch.setattr(morphisms, "sl2_case_residual", lambda p: always_zero)
        results = []
        for count in (1, 2, 3):
            fake_cpus(monkeypatch, count)
            results.append((
                solvable_image_audit(30, 5),
                [case_oracle_mismatches(30, 5, b) for b in _BOTH],
            ))
        assert results[1] == results[0] == results[2]
        report, mismatches = results[0]
        assert min(mismatches) > 0
        assert report.candidates == 32
        assert len(report.solvable_violations) == report.residual_zero
        indices = [int(v.split()[1][:-1]) for v in report.solvable_violations]
        assert indices == sorted(set(indices))
        # candidates 0 and 1 come first, and the last third has violations
        assert indices[:2] == [0, 1] and indices[-1] >= 22

    def test_no_worker_outlives_a_call(self, forks, monkeypatch):
        fake_cpus(monkeypatch, 3)
        solvable_image_audit(30, 1)
        case_oracle_mismatches(30, 1, "nilpotent")
        assert len(forks) == 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_exception_reaches_the_caller(self, forks, monkeypatch):
        parent = os.getpid()

        def analyze(alg, gens):
            if os.getpid() != parent:
                raise AssertionError("raised in a worker")
            return analyze_image(alg, gens)

        monkeypatch.setattr(morphisms, "analyze_image", analyze)
        fake_cpus(monkeypatch, 2)
        with pytest.raises(AssertionError, match="raised in a worker"):
            solvable_image_audit(30, 1)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_dies_without_a_result(self, monkeypatch):
        def work(ks):
            if ks.start:
                os._exit(3)
            return 0

        fake_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="without a result"):
            _split_samples(work, 4)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_in_process_without_fork(self, monkeypatch):
        fake_cpus(monkeypatch, 3)
        expected = solvable_image_audit(30, 2)
        monkeypatch.delattr(os, "fork")
        assert solvable_image_audit(30, 2) == expected

    def test_in_process_while_another_thread_runs(self, forks, monkeypatch):
        # forking a threaded process is what Python 3.12+ warns about
        fake_cpus(monkeypatch, 3)
        expected = solvable_image_audit(30, 2)
        assert len(forks) == 2
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert solvable_image_audit(30, 2) == expected
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(forks) == 2


class TestResidualEvaluation:
    @staticmethod
    def morphisms():
        rng = random.Random(21)
        sl2_cases = [
            assemble_sl2_morphism(sample_case_parameters(rng, branch))
            for branch in ("nilpotent", "semisimple") * 3
        ]
        return sl2_cases + [
            yu_morphism(),
            pair_to_ym4_morphism(WittTarget(), witt_e(-1), witt_e(2)),
            pair_to_ym4_morphism(WittTarget(True), witt_e(-2), witt_e(3) * GR(1, 2)),
            doubling_morphism(2),
        ]

    def test_residuals_form_no_scalar(self, monkeypatch):
        # word images are Z[i] rows over one denominator, so the residuals
        # are summed without one Q(i) product or sum
        flags = (False, True)
        expected = [
            [phi.residuals_vanish(s) for s in flags] for phi in self.morphisms()
        ]
        assert {tuple(v) for v in expected} >= {(True, True), (False, False)}
        fresh = self.morphisms()

        def refuse(*args):
            raise AssertionError("a residual combined Q(i) scalars")

        for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
            monkeypatch.setattr(GR, attr, refuse)
        assert [[phi.residuals_vanish(s) for s in flags] for phi in fresh] == expected

    def test_strong_check_builds_no_relator_grid(self, monkeypatch):
        # the strong presentation drops only the identically-zero
        # [x_i,[x_i,x_i]], so its cached relators answer for all n^2 residuals
        def cases():
            p = sample_case_parameters(random.Random(1), "semisimple")
            return [yu_morphism(), doubling_morphism(2), assemble_sl2_morphism(p)]

        expected = [phi.residuals_vanish(True) for phi in cases()]
        assert expected == [
            all(r.is_zero for r in phi.relation_residuals(True)) for phi in cases()
        ]
        assert set(expected) == {True, False}

        def refuse(n):
            raise AssertionError("the n^2 strong relator grid was built")

        monkeypatch.setattr("ymalg.morphisms.strong_relation_elements", refuse)
        assert [phi.residuals_vanish(True) for phi in cases()] == expected

    @pytest.mark.parametrize("seed", [4, 9])
    def test_early_stop_changes_no_answer(self, seed):
        for phi in _audit_candidates(60, seed):
            for strong in (False, True):
                residuals = phi.relation_residuals(strong)
                assert phi.residuals_vanish(strong) == all(
                    r.is_zero for r in residuals
                )


class TestModuleLevelWrappers:
    def test_relation_residuals_wrapper(self):
        phi = doubling_morphism(1)
        assert [r.is_zero for r in phi.relation_residuals()] == [True, True]

    def test_free_target_validation(self):
        with pytest.raises(ValueError):
            GeneratorMorphism(2, FreeTarget(2), [x(3, 1), x(3, 2)])

    def test_witt_target_validation(self):
        with pytest.raises(ValueError):
            GeneratorMorphism(1, WittTarget(), [x(2, 1)])
