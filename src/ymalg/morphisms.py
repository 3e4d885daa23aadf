"""Generator-defined Lie morphisms out of free and Yang-Mills algebras.

A GeneratorMorphism is fixed by images of the generators x_1..x_n in a
target: a free Lie algebra f(m) (``FreeTarget``), or one of the algebras in
``targets``, a structure-constant algebra or ``WittTarget`` (Witt/Virasoro).
Evaluation replaces each Lyndon basis word by its standard bracketing
computed in the target; a morphism factors through the (strong) Yang-Mills
algebra iff all relation residuals vanish.  ``pair_to_ym4_morphism`` is the
one ym(4) pair map, for any target.

The sl(2) case study of ym(3) is implemented twice on purpose: once through
closed-form scalar conditions in the branch parameters, once by direct
residual evaluation, so the two code paths can be checked against each
other exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .free_lie import FreeLieElement, bracket, standard_factorization
from .linalg import Combination
from .scalars import GaussianRational, parse_scalar
from .targets import StructureConstantAlgebra, WittTarget, analyze_image, sl_algebra
from .ym_quotient import strong_relation_elements, ym_relations

_I = GaussianRational(0, 1)
_ONE = GaussianRational(1)


# -- targets -------------------------------------------------------------------


@dataclass(frozen=True)
class FreeTarget:
    """The free Lie algebra f(m) as a morphism target."""

    m: int

    def zero(self) -> FreeLieElement:
        return FreeLieElement.zero(self.m)

    def bracket(self, u: FreeLieElement, v: FreeLieElement) -> FreeLieElement:
        return bracket(u, v)


class GeneratorMorphism:
    """A Lie morphism out of f(n) (or ym(n), once residuals vanish) given by
    the images of the generators x_1..x_n."""

    def __init__(self, n: int, target, images: Sequence):
        if len(images) != n:
            raise ValueError(f"expected {n} images, got {len(images)}")
        if not isinstance(target, (FreeTarget, StructureConstantAlgebra, WittTarget)):
            raise TypeError(f"unsupported morphism target {target!r}")
        zero = target.zero()
        for k, img in enumerate(images, start=1):
            if not isinstance(img, Combination) or img._space() != zero._space():
                raise ValueError(f"image of x_{k} does not live in the target")
        self.n = n
        self.target = target
        self.images = tuple(images)
        # Lyndon word -> image, shared by the evaluations of one
        # relation_residuals call and dropped after it
        self._shared_words = None

    def evaluate(self, a: FreeLieElement):
        """Image of ``a``: each Lyndon word is replaced by its standard
        bracketing evaluated in the target; linear over Q(i)."""
        if a.n > self.n:
            raise ValueError(
                f"element uses {a.n} generators, morphism has {self.n}"
            )
        br = self.target.bracket
        memo = {} if self._shared_words is None else self._shared_words

        def eval_word(w: tuple):
            if len(w) == 1:
                return self.images[w[0] - 1]
            hit = memo.get(w)
            if hit is None:
                u, v = standard_factorization(w)
                hit = br(eval_word(u), eval_word(v))
                memo[w] = hit
            return hit

        out = self.target.zero()
        for w, c in a.terms.items():
            out = out + eval_word(tuple(w)) * c
        return out

    def relation_residuals(self, strong: bool = False) -> list:
        """Images of the Yang-Mills relators.

        Weak: the n residuals of r_j = sum_i [x_i,[x_i,x_j]].  Strong: all
        n^2 residuals of [x_i,[x_i,x_j]] in (i, j) order (the i = j ones are
        identically zero and evaluate to zero).
        """
        if strong:
            elements = [elem for _, elem in strong_relation_elements(self.n)]
        else:
            elements = list(ym_relations(self.n).relators)
        # the relators have low-degree words in common: bracket each once
        self._shared_words = {}
        try:
            return [self.evaluate(r) for r in elements]
        finally:
            self._shared_words = None

    def residuals_vanish(self, strong: bool = False) -> bool:
        return all(r.is_zero for r in self.relation_residuals(strong))

    def __repr__(self):
        imgs = ", ".join(f"x_{k+1} -> {img!r}" for k, img in enumerate(self.images))
        return f"GeneratorMorphism({imgs})"


# -- canonical quotient constructions ----------------------------------------------


def doubling_morphism(m: int) -> GeneratorMorphism:
    """ym(2m) -> f(m): x_j -> y_j and x_{m+j} -> i*y_j.

    The weak relation residuals cancel in telescoping pairs because the
    doubled images contribute with factors 1 and i^2 = -1.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    ys = [FreeLieElement.generator(m, j) for j in range(1, m + 1)]
    images = ys + [y * _I for y in ys]
    return GeneratorMorphism(2 * m, FreeTarget(m), images)


def projection_morphism(n: int, m: int) -> GeneratorMorphism:
    """ym(n) -> ym(m) (represented in f(m) coordinates): x_i -> x_i for
    i <= m and x_i -> 0 above."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    images = [FreeLieElement.generator(m, j) for j in range(1, m + 1)]
    images += [FreeLieElement.zero(m)] * (n - m)
    return GeneratorMorphism(n, FreeTarget(m), images)


def yu_morphism() -> GeneratorMorphism:
    """ym(3) -> sl(3): x_1 -> E^{12}, x_2 -> E^{23}, x_3 -> E^{31}.

    All nine strong residuals vanish and the images generate sl(3)."""
    sl3 = sl_algebra(3)
    return GeneratorMorphism(
        3, sl3, [sl3.basis_element(lab) for lab in ("E12", "E23", "E31")]
    )


def pair_to_ym4_morphism(target, a, b) -> GeneratorMorphism:
    """ym(4) -> target with images (a, b, i*a, i*b), for any target.  The
    weak residuals vanish identically by the doubling cancellation; the
    Virasoro cocycle terms cancel as well.  For a finite g the morphism is
    surjective iff {a, b} generates g."""
    return GeneratorMorphism(4, target, [a, b, a * _I, b * _I])


# -- Fact 1: isotropic orthogonality ----------------------------------------------


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1]


def _as_pair(p):
    x0, x1 = p
    return (
        x0 if isinstance(x0, GaussianRational) else parse_scalar(x0),
        x1 if isinstance(x1, GaussianRational) else parse_scalar(x1),
    )


def isotropic_orthogonal_witness(x, y) -> GaussianRational:
    """Given x != 0 with x.x = 0 and x.y = 0 (canonical symmetric form
    x.y = x_1 y_1 + x_2 y_2), return the unique scalar with y = lambda * x.
    As a corollary y.y = 0 exactly.  Violated preconditions raise ValueError
    naming the failing one."""
    x = _as_pair(x)
    y = _as_pair(y)
    if not (x[0] or x[1]):
        raise ValueError("precondition failed: x is zero")
    if _dot(x, x):
        raise ValueError("precondition failed: x is not isotropic (x.x != 0)")
    if _dot(x, y):
        raise ValueError("precondition failed: x.y != 0")
    base = x[0] if x[0] else x[1]
    other = y[0] if x[0] else y[1]
    lam = other / base
    if y[0] != lam * x[0] or y[1] != lam * x[1]:
        # cannot happen when the preconditions hold; guards a misuse
        raise ValueError("y is not a scalar multiple of x")
    assert not _dot(y, y)
    return lam


# -- Proposition ym3: the sl(2) case analysis --------------------------------------

_BRANCHES = ("nilpotent", "semisimple")


@dataclass(frozen=True)
class Sl2CaseParameters:
    """Branch data for morphisms ym(3) -> sl(2) with normalized third image:
    phi(x_3) = e on the nilpotent branch, phi(x_3) = h on the semisimple one;
    phi(x_i) = alpha_i e + beta_i h + gamma_i f for i = 1, 2."""

    branch: str
    alpha: tuple
    beta: tuple
    gamma: tuple

    def __post_init__(self):
        if self.branch not in _BRANCHES:
            raise ValueError(f"branch must be one of {_BRANCHES}")
        for vec in (self.alpha, self.beta, self.gamma):
            if len(vec) != 2 or not all(
                isinstance(c, GaussianRational) for c in vec
            ):
                raise ValueError("alpha, beta, gamma must be pairs over Q(i)")


@dataclass(frozen=True)
class Sl2CaseConditions:
    """Closed-form vanishing conditions: three scalars from the residual of
    r_3 and three coefficient-pair vectors from the residuals of r_1, r_2."""

    r3_conditions: tuple
    rj_conditions: tuple

    @property
    def all_zero(self) -> bool:
        return not any(self.r3_conditions) and not any(
            c for pair in self.rj_conditions for c in pair
        )


def sl2_case_residual(p: Sl2CaseParameters) -> Sl2CaseConditions:
    """Evaluate the branch's closed-form conditions exactly.

    All six vanish iff the assembled morphism kills r_1, r_2, r_3 (the
    independent check is ``relation_residuals`` on
    ``assemble_sl2_morphism(p)``).
    """
    a, b, g = p.alpha, p.beta, p.gamma
    aa, bb, gg = _dot(a, a), _dot(b, b), _dot(g, g)
    ab, ag, bg = _dot(a, b), _dot(a, g), _dot(b, g)
    two = GaussianRational(2)

    def comb(ca, cb, cg):
        return tuple(ca * a[k] + cb * b[k] + cg * g[k] for k in (0, 1))

    if p.branch == "nilpotent":
        r3 = (two * bb + ag, bg, gg)
        rj = (
            comb(two * bb + ag, -two * ab, -(aa + _ONE)),
            comb(-bg, two * ag, -ab),
            comb(-gg, -two * bg, two * bb + ag),
        )
    else:
        r3 = (ab, ag, bg)
        rj = (
            comb(two * bb + two + ag, -two * ab, -aa),
            comb(-bg, two * ag, -ab),
            comb(-gg, -two * bg, two * bb + two + ag),
        )
    return Sl2CaseConditions(r3_conditions=r3, rj_conditions=rj)


def assemble_sl2_morphism(p: Sl2CaseParameters) -> GeneratorMorphism:
    """The morphism ym(3) -> sl(2) described by the branch parameters."""
    sl2 = sl_algebra(2)
    e, h, f = (sl2.basis_element(lab) for lab in ("e", "h", "f"))
    images = [
        e * p.alpha[k] + h * p.beta[k] + f * p.gamma[k] for k in (0, 1)
    ]
    images.append(e if p.branch == "nilpotent" else h)
    return GeneratorMorphism(3, sl2, images)


# -- the solvable-image audit -------------------------------------------------------


def solvable_non_nilpotent_example() -> GeneratorMorphism:
    """x_1 -> h, x_2 -> e, x_3 -> i*h: residual-zero with solvable,
    non-nilpotent image."""
    sl2 = sl_algebra(2)
    e, h = sl2.basis_element("e"), sl2.basis_element("h")
    return GeneratorMorphism(3, sl2, [h, e, h * _I])


@dataclass(frozen=True)
class MorphismAnalysis:
    residuals_zero: bool
    image_dim: int
    is_solvable: bool
    is_nilpotent: bool


def analyze_sl2_morphism(phi: GeneratorMorphism) -> MorphismAnalysis:
    image = analyze_image(phi.target, phi.images)
    return MorphismAnalysis(
        phi.residuals_vanish(), image.image_dim, image.is_solvable, image.is_nilpotent
    )


@dataclass(frozen=True)
class AuditReport:
    """Outcome of sampling candidate morphisms ym(3) -> sl(2): every
    residual-zero candidate must have solvable image."""

    samples: int
    seed: int
    candidates: int
    residual_zero: int
    non_residual_zero: int
    solvable_violations: tuple
    non_nilpotent_example: MorphismAnalysis


def _rand_scalar(rng: random.Random, span: int = 3) -> GaussianRational:
    def part():
        return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))

    return GaussianRational(part(), part())


def _rand_pair(rng):
    return (_rand_scalar(rng), _rand_scalar(rng))


_ZERO_PAIR = (GaussianRational(0), GaussianRational(0))


def sample_case_parameters(rng: random.Random, branch: str) -> Sl2CaseParameters:
    """Draw branch parameters.  Mixes unconstrained draws with targeted
    families: pure uniform sampling almost never hits the residual variety,
    so residual-zero and near-miss families are included deliberately."""
    kind = rng.randrange(5)
    if kind <= 1:  # unconstrained
        return Sl2CaseParameters(
            branch, _rand_pair(rng), _rand_pair(rng), _rand_pair(rng)
        )
    if kind == 2:  # residual-zero family
        if branch == "semisimple":
            # alpha = gamma = 0, beta free: image inside span{h}
            return Sl2CaseParameters(branch, _ZERO_PAIR, _rand_pair(rng), _ZERO_PAIR)
        # gamma = 0, beta isotropic, alpha a multiple of beta
        s, t = _rand_scalar(rng), _rand_scalar(rng)
        w = (_ONE, _I if rng.random() < 0.5 else -_I)
        return Sl2CaseParameters(
            branch,
            (s * w[0], s * w[1]),
            (t * w[0], t * w[1]),
            _ZERO_PAIR,
        )
    if kind == 3:  # residual-zero: everything on the normalized axis
        if branch == "nilpotent":
            return Sl2CaseParameters(branch, _rand_pair(rng), _ZERO_PAIR, _ZERO_PAIR)
        return Sl2CaseParameters(branch, _ZERO_PAIR, _ZERO_PAIR, _ZERO_PAIR)
    # near miss: r_3 conditions hold, the r_j ones generically fail
    if branch == "semisimple":
        return Sl2CaseParameters(branch, _rand_pair(rng), _ZERO_PAIR, _ZERO_PAIR)
    w = (_ONE, _I)
    t = _rand_scalar(rng)
    return Sl2CaseParameters(
        branch, _rand_pair(rng), (t * w[0], t * w[1]), _ZERO_PAIR
    )


def case_oracle_mismatches(samples: int, seed: int, branch: str) -> int:
    """Count disagreements between the closed-form conditions and direct
    residual evaluation over ``samples`` seeded parameter draws."""
    mismatches = 0
    for k in range(samples):
        rng = random.Random(f"{seed}:{branch}:{k}")
        p = sample_case_parameters(rng, branch)
        closed = sl2_case_residual(p).all_zero
        direct = assemble_sl2_morphism(p).residuals_vanish()
        if closed != direct:
            mismatches += 1
    return mismatches


def solvable_image_audit(samples: int, seed: int) -> AuditReport:
    """Generate candidate morphisms ym(3) -> sl(2) (random images plus the
    targeted residual-zero families and the non-nilpotent example); for every
    candidate with vanishing residuals, check that the image is solvable."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    sl2 = sl_algebra(2)
    e, h, f = (sl2.basis_element(lab) for lab in ("e", "h", "f"))
    candidates = [
        solvable_non_nilpotent_example(),
        GeneratorMorphism(3, sl2, [sl2.zero()] * 3),
    ]
    for k in range(samples):
        rng = random.Random(f"{seed}:audit:{k}")
        branch = rng.choice(_BRANCHES)
        mode = rng.randrange(3)
        if mode == 0:
            # unconstrained random images (residuals almost surely nonzero)
            images = [
                e * _rand_scalar(rng) + h * _rand_scalar(rng) + f * _rand_scalar(rng)
                for _ in range(3)
            ]
            candidates.append(GeneratorMorphism(3, sl2, images))
        else:
            p = sample_case_parameters(rng, branch)
            phi = assemble_sl2_morphism(p)
            if mode == 2:
                # scale all images; residuals scale by the cube, so the
                # residual-zero property is preserved
                lam = _rand_scalar(rng)
                phi = GeneratorMorphism(
                    3, sl2, [img * lam for img in phi.images]
                )
            candidates.append(phi)

    # only residual-zero candidates need their image analysed; candidate 0,
    # the non-nilpotent example, is one of them
    images = {
        idx: analyze_image(sl2, phi.images)
        for idx, phi in enumerate(candidates)
        if phi.residuals_vanish()
    }
    example = images[0]
    return AuditReport(
        samples=samples,
        seed=seed,
        candidates=len(candidates),
        residual_zero=len(images),
        non_residual_zero=len(candidates) - len(images),
        solvable_violations=tuple(
            f"candidate {idx}: {candidates[idx]!r}"
            for idx, image in images.items()
            if not image.is_solvable
        ),
        non_nilpotent_example=MorphismAnalysis(
            True, example.image_dim, example.is_solvable, example.is_nilpotent
        ),
    )
