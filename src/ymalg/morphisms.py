"""Generator-defined Lie morphisms out of free and Yang-Mills algebras.

A GeneratorMorphism is fixed by images of the generators x_1..x_n in a
target, anything with ``zero()`` and ``bracket(u, v)``: f(m)
(``free_lie.FreeTarget``) or an algebra in ``targets``.
Evaluation replaces each Lyndon basis word by its standard bracketing
computed in the target, memoized per morphism, and sums the word images on
their Z[i] rows; a morphism factors through the (strong) Yang-Mills algebra
iff all relation residuals vanish.
``pair_to_ym4_morphism`` is the one ym(4) pair map, for any target.

The sl(2) case study of ym(3) is implemented twice on purpose: once through
closed-form conditions in the branch parameters, evaluated over Z[i] after
clearing the parameters to one denominator, once by direct residual
evaluation, so the two code paths can be checked against each other exactly.
Its sample loops (the oracle comparison and the solvable-image audit) are
each one function of the sample index, which ``_split_samples`` alone maps
over ``range(samples)``: in contiguous chunks, one per usable CPU, each but
the first in a forked worker, or in-process where ``os.fork`` is missing or
other threads run.  Each sample seeds its own generator, so the results do
not depend on the CPU count.
"""

from __future__ import annotations

import _thread
import os
import random
from collections.abc import Sequence

from .free_lie import FreeLieElement, FreeTarget, standard_factorization
from .linalg import Value, require_in
from .scalars import I, ONE, ZERO, GaussianRational, from_ints, parse_scalar
from .scalars import clear_denominators
from .targets import analyze_image, sl_algebra
from .ym_quotient import strong_relation_elements, ym_relations


class GeneratorMorphism:
    """A Lie morphism out of f(n) (or ym(n), once residuals vanish) given by
    the images of the generators x_1..x_n."""

    def __init__(self, n: int, target, images: Sequence):
        if len(images) != n:
            raise ValueError(f"expected {n} images, got {len(images)}")
        space = target.zero().space
        for img in images:
            require_in(space, img)
        self.n = n
        self.target = target
        self.images = tuple(images)
        # Lyndon word -> image, from the generators on, for the morphism's
        # lifetime: the relators' common low-degree words are bracketed once
        self._words = {(j,): img for j, img in enumerate(self.images, 1)}

    def evaluate(self, a: FreeLieElement):
        """Image of ``a``: each Lyndon word is replaced by its standard
        bracketing evaluated in the target; linear over Q(i).  The word
        images are summed on their Z[i] rows (``Combination._combine``)."""
        if not isinstance(a, FreeLieElement):
            theirs = getattr(a, "space", type(a).__name__)
            raise ValueError(f"cannot evaluate an element of {theirs} in f({self.n})")
        if a.n > self.n:
            raise ValueError(
                f"element uses {a.n} generators, morphism has {self.n}"
            )
        return self.target.zero()._combine(
            [(self._image(w), z) for w, z in a.row.items()], a.den
        )

    def _image(self, w):
        # the image of Lyndon word w: on a miss, the bracket of the images of
        # its standard factors, a recursion no deeper than the word
        image = self._words.get(w)
        if image is None:
            u, v = standard_factorization(w)
            image = self._words[w] = self.target.bracket(
                self._image(u), self._image(v)
            )
        return image

    def relation_residuals(self, strong: bool = False) -> list:
        """Images of the Yang-Mills relators.

        Weak: the n residuals of r_j = sum_i [x_i,[x_i,x_j]].  Strong: all
        n^2 residuals of [x_i,[x_i,x_j]] in (i, j) order (the i = j ones are
        identically zero and evaluate to zero).
        """
        if strong:
            relators = [elem for _, elem in strong_relation_elements(self.n)]
        else:
            relators = ym_relations(self.n).relators
        return [self.evaluate(r) for r in relators]

    def residuals_vanish(self, strong: bool = False) -> bool:
        """True iff every relator of ``ym_relations(n, strong)`` maps to zero
        (the strong ones leave out only the zero [x_i,[x_i,x_i]]); evaluation
        stops at the first relator that does not."""
        relators = ym_relations(self.n, strong).relators
        return all(self.evaluate(r).is_zero for r in relators)

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
    images = ys + [y * I for y in ys]
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
    return GeneratorMorphism(4, target, [a, b, a * I, b * I])


# -- Fact 1: isotropic orthogonality ----------------------------------------------


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1]


def _zdot(x, y) -> tuple:
    """The sum of x_k y_k over two sequences of Z[i] pairs (a, b) = a + bi."""
    re = im = 0
    for (a, b), (c, d) in zip(x, y):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _zlin(*terms) -> tuple:
    """The sum of k z over (k, z) terms: ints k and Z[i] pairs z."""
    re = im = 0
    for k, (x, y) in terms:
        re += k * x
        im += k * y
    return re, im


def _as_pair(p):
    x0, x1 = p
    return parse_scalar(x0), parse_scalar(x1)


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


class Sl2CaseParameters(Value):
    """Branch data for morphisms ym(3) -> sl(2) with normalized third image:
    phi(x_3) = e on the nilpotent branch, phi(x_3) = h on the semisimple one;
    phi(x_i) = alpha_i e + beta_i h + gamma_i f for i = 1, 2."""

    __slots__ = ("branch", "alpha", "beta", "gamma")

    def __init__(self, branch: str, alpha: tuple, beta: tuple, gamma: tuple):
        self._set(branch, alpha, beta, gamma)
        if branch not in _BRANCHES:
            raise ValueError(f"branch must be one of {_BRANCHES}")
        for vec in (alpha, beta, gamma):
            if len(vec) != 2 or not all(
                isinstance(c, GaussianRational) for c in vec
            ):
                raise ValueError("alpha, beta, gamma must be pairs over Q(i)")


class Sl2CaseConditions(Value):
    """Closed-form vanishing conditions: three scalars from the residual of
    r_3 and three coefficient-pair vectors from the residuals of r_1, r_2."""

    __slots__ = ("r3_conditions", "rj_conditions")

    @property
    def all_zero(self) -> bool:
        return not any(self.r3_conditions) and not any(
            c for pair in self.rj_conditions for c in pair
        )


def sl2_case_residual(p: Sl2CaseParameters) -> Sl2CaseConditions:
    """Evaluate the branch's closed-form conditions exactly.

    All six vanish iff the assembled morphism kills r_1, r_2, r_3 (the
    independent check is ``relation_residuals`` on
    ``assemble_sl2_morphism(p)``).  The six parameters are cleared to Z[i]
    over one denominator D, so dot products are over D^2 and combinations of
    alpha, beta, gamma over D^3; only the nine results are scalars.
    """
    z, den = clear_denominators(dict(enumerate(p.alpha + p.beta + p.gamma)))
    a, b, g = ((z.get(k, (0, 0)), z.get(k + 1, (0, 0))) for k in (0, 2, 4))
    aa, bb, gg = _zdot(a, a), _zdot(b, b), _zdot(g, g)
    ab, ag, bg = _zdot(a, b), _zdot(a, g), _zdot(b, g)
    d2 = den * den
    one = (d2, 0)  # the constant 1 over D^2
    if p.branch == "nilpotent":
        s = _zlin((2, bb), (1, ag))
        r3 = (s, bg, gg)
        first = (s, _zlin((-2, ab)), _zlin((-1, aa), (-1, one)))
    else:
        s = _zlin((2, bb), (2, one), (1, ag))
        r3 = (ab, ag, bg)
        first = (s, _zlin((-2, ab)), _zlin((-1, aa)))
    # the coefficients of alpha, beta, gamma in the residuals of r_1, r_2
    rj = (
        first,
        (_zlin((-1, bg)), _zlin((2, ag)), _zlin((-1, ab))),
        (_zlin((-1, gg)), _zlin((-2, bg)), s),
    )
    c0, c1 = zip(a, b, g)
    d3 = d2 * den
    rj = tuple((from_ints(*_zdot(c, c0), d3), from_ints(*_zdot(c, c1), d3)) for c in rj)
    return Sl2CaseConditions(tuple(from_ints(*x, d2) for x in r3), rj)


def _sl2_case_images(p: Sl2CaseParameters) -> list:
    """The images of x_1, x_2, x_3 in sl(2) described by the branch parameters."""
    sl2 = sl_algebra(2)
    images = [
        sl2.element({"e": p.alpha[k], "h": p.beta[k], "f": p.gamma[k]})
        for k in (0, 1)
    ]
    images.append(sl2.basis_element("e" if p.branch == "nilpotent" else "h"))
    return images


def assemble_sl2_morphism(p: Sl2CaseParameters) -> GeneratorMorphism:
    """The morphism ym(3) -> sl(2) described by the branch parameters."""
    return GeneratorMorphism(3, sl_algebra(2), _sl2_case_images(p))


# -- the solvable-image audit -------------------------------------------------------


def solvable_non_nilpotent_example() -> GeneratorMorphism:
    """x_1 -> h, x_2 -> e, x_3 -> i*h: residual-zero with solvable,
    non-nilpotent image."""
    sl2 = sl_algebra(2)
    e, h = sl2.basis_element("e"), sl2.basis_element("h")
    return GeneratorMorphism(3, sl2, [h, e, h * I])


class MorphismAnalysis(Value):
    __slots__ = ("residuals_zero", "image_dim", "is_solvable", "is_nilpotent")


def analyze_sl2_morphism(phi: GeneratorMorphism) -> MorphismAnalysis:
    image = analyze_image(phi.target, phi.images)
    return MorphismAnalysis(
        phi.residuals_vanish(), image.image_dim, image.is_solvable, image.is_nilpotent
    )


class AuditReport(Value):
    """Outcome of sampling candidate morphisms ym(3) -> sl(2): every
    residual-zero candidate must have solvable image."""

    __slots__ = (
        "samples", "seed", "candidates", "residual_zero", "non_residual_zero",
        "solvable_violations", "non_nilpotent_example",
    )


def _rand_scalar(rng: random.Random) -> GaussianRational:
    a, p = rng.randint(-3, 3), rng.choice((1, 1, 2))
    b, q = rng.randint(-3, 3), rng.choice((1, 1, 2))
    return from_ints(a * q, b * p, p * q)


def _rand_pair(rng):
    return (_rand_scalar(rng), _rand_scalar(rng))


_ZERO_PAIR = (ZERO, ZERO)


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
        w = (ONE, I if rng.random() < 0.5 else -I)
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
    w = (ONE, I)
    t = _rand_scalar(rng)
    return Sl2CaseParameters(
        branch, _rand_pair(rng), (t * w[0], t * w[1]), _ZERO_PAIR
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_samples(sample, samples: int) -> list:
    """``[sample(k) for k in range(samples)]`` over contiguous chunks of
    ``range(samples)``, one per usable CPU.  Chunk 0 runs here, each other
    one in a forked worker that pickles back its results, or the exception
    it raised, which is raised here.  Where ``os.fork`` is missing or
    another thread runs (a fork can deadlock it, and Python 3.12+ warns),
    there is one chunk and no worker."""
    import pickle

    count = 1
    if hasattr(os, "fork") and not _thread._count():
        count = max(1, min(samples, _usable_cpus()))
    cuts = [samples * c // count for c in range(count + 1)]
    chunks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    workers = []  # (pid, the read end of its pipe) per chunk past the first
    try:
        for chunk in chunks[1:]:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                _run_worker(sample, chunk, wfd)
            os.close(wfd)
            workers.append((pid, open(rfd, "rb")))
        results = [sample(k) for k in chunks[0]]
        replies = [pipe.read() for _, pipe in workers]
    finally:
        # each worker ends once its chunk is done, also after an error here
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)
    for reply in replies:
        if not reply:
            raise RuntimeError("a sample worker ended without a result")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results += value
    return results


def _run_worker(sample, chunk, wfd: int):
    """The forked side of ``_split_samples``.  It never returns into the
    caller's stack: ``os._exit`` skips every inherited buffer and handler."""
    status = 1
    try:
        import pickle

        try:
            reply = pickle.dumps((True, [sample(k) for k in chunk]))
        except BaseException as exc:  # raised again in the parent
            reply = pickle.dumps((False, exc))
        with open(wfd, "wb") as out:
            out.write(reply)
        status = 0
    finally:
        os._exit(status)


def case_oracle_mismatches(samples: int, seed: int, branch: str) -> int:
    """Count disagreements between the closed-form conditions and direct
    residual evaluation over ``samples`` seeded parameter draws."""

    def mismatch(k):
        p = sample_case_parameters(random.Random(f"{seed}:{branch}:{k}"), branch)
        closed = sl2_case_residual(p).all_zero
        return closed != assemble_sl2_morphism(p).residuals_vanish()

    return sum(_split_samples(mismatch, samples))


def _sampled_candidate(seed: int, k: int) -> GeneratorMorphism:
    """The audit's candidate for sample k, drawn from its own seeded
    generator."""
    sl2 = sl_algebra(2)
    rng = random.Random(f"{seed}:audit:{k}")
    branch = rng.choice(_BRANCHES)
    mode = rng.randrange(3)
    if mode == 0:
        # unconstrained random images (residuals almost surely nonzero)
        images = [
            sl2.element({lab: _rand_scalar(rng) for lab in ("e", "h", "f")})
            for _ in range(3)
        ]
    else:
        images = _sl2_case_images(sample_case_parameters(rng, branch))
        if mode == 2:
            # scaled images scale the residuals by lam cubed: zero stays zero
            lam = _rand_scalar(rng)
            images = [img * lam for img in images]
    return GeneratorMorphism(3, sl2, images)


def solvable_image_audit(samples: int, seed: int) -> AuditReport:
    """Check candidate morphisms ym(3) -> sl(2): candidate 0 is the
    non-nilpotent example, candidate 1 the zero map, and candidate k + 2
    sample k's draw (random images plus the targeted residual-zero
    families).  Every candidate with vanishing residuals must have
    solvable image."""
    if samples < 1:
        raise ValueError("need samples >= 1")

    def check(idx, phi, image=None):
        # None for a nonzero residual, else "" for a solvable image and the
        # violation line otherwise; the image is analysed only when needed
        if image is None:
            if not phi.residuals_vanish():
                return None
            image = analyze_image(phi.target, phi.images)
        return "" if image.is_solvable else f"candidate {idx}: {phi!r}"

    example = solvable_non_nilpotent_example()
    found = analyze_sl2_morphism(example)
    sl2 = example.target
    checks = [
        check(0, example, found) if found.residuals_zero else None,
        check(1, GeneratorMorphism(3, sl2, [sl2.zero()] * 3)),
        *_split_samples(lambda k: check(k + 2, _sampled_candidate(seed, k)), samples),
    ]
    residual_zero = sum(c is not None for c in checks)
    return AuditReport(
        samples=samples,
        seed=seed,
        candidates=samples + 2,
        residual_zero=residual_zero,
        non_residual_zero=samples + 2 - residual_zero,
        solvable_violations=tuple(filter(None, checks)),
        non_nilpotent_example=found,
    )
