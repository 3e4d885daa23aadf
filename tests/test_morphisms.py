import random

import pytest

from oracle_utils import rand_homogeneous, rand_scalar
from ymalg.free_lie import FreeLieElement, bracket
from ymalg.morphisms import (
    FreeTarget,
    GeneratorMorphism,
    Sl2CaseParameters,
    analyze_sl2_morphism,
    assemble_sl2_morphism,
    case_oracle_mismatches,
    doubling_morphism,
    isotropic_orthogonal_witness,
    pair_to_ym4_morphism,
    projection_morphism,
    sl2_case_residual,
    solvable_image_audit,
    solvable_non_nilpotent_example,
    yu_morphism,
)
from ymalg.scalars import GaussianRational as GR, I, ONE
from ymalg.targets import (
    StructureConstantAlgebra,
    WittTarget,
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
        assert GeneratorMorphism(3, sl2, images).relation_residuals() == separate
        assert len(calls) == 9

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

    def test_audit_seeded_reproducibility(self):
        a = solvable_image_audit(40, 11)
        b = solvable_image_audit(40, 11)
        assert a == b

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            solvable_image_audit(0, 1)


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
