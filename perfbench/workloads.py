"""The benchmark's workloads: seeded command lists for the ymalg CLI, each
command paired with the check its output must pass.

A workload is a list of ``Command``s.  ``build(name, seed, workdir)`` makes
it, writing any input files (morphism specs, matrices) under ``workdir``.
The same seed gives the same commands and the same files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles
from oracles import g, gfmt, gmul

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

WORKLOADS = ("closure", "audit", "window", "interactive")


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``check(code, stdout)`` returns None when the
    exit code and the output are right, else a reason."""

    argv: tuple
    check: Callable


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _report_check(inner: Callable) -> Callable:
    """Wrap a check of the parsed report: malformed stdout fails first."""

    def check(code, stdout):
        report = oracles.parse_report(stdout)
        if isinstance(report, str):
            return report
        return inner(code, report)

    return check


def _digest_check(argv: tuple) -> Callable:
    want = _golden()[" ".join(argv)]

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        got = oracles.sha256(stdout)
        return None if got == want else f"stdout sha256 {got[:12]} != {want[:12]}"

    return check


def _weak_dims(n: int, max_degree: int) -> Command:
    argv = ("dims", "--n", str(n), "--max-degree", str(max_degree))

    def inner(code, report):
        if code != 0:
            return f"exit code {code}"
        return oracles.check_weak_dims(report, n, max_degree)

    return Command(argv, _report_check(inner))


def _fixed(*argv: str) -> Command:
    return Command(argv, _digest_check(argv))


# -- closure, audit, window: fixed inputs ------------------------------------------


def _closure() -> list:
    # A non-saturated ideal (weak ym(3)), a nearly saturated one (strong
    # ym(3): 309 of 312 at degree 7), a larger generator count, and a fully
    # saturated one (ym(2) from degree 4 on).
    return [
        _weak_dims(3, 7),
        _fixed("dims", "--n", "3", "--max-degree", "7", "--strong"),
        _weak_dims(4, 5),
        _weak_dims(2, 10),
    ]


def _audit(seed: int) -> list:
    samples = 1000
    argv = ("case-study", "--samples", str(samples), "--seed", str(seed))

    def inner(code, report):
        return oracles.check_case_study(code, report, samples)

    return [Command(argv, _report_check(inner))]


def _window() -> list:
    return [
        _fixed("pair", "--target", "witt", "--depth", "11", "--window", "25"),
        _fixed("pair", "--target", "virasoro", "--depth", "10", "--window", "20"),
    ]


# -- interactive: many small seeded commands -----------------------------------------

_SCALARS = [g(1), g(2), g(-1), g(3), g(1, 1), g(0, 1), g(-2, 1), g("1/2"), g(0, "-3/2")]

_FINITE_TARGETS = {
    "sl2": ("e", "h", "f"),
    "sl(3)": ("E12", "E13", "E21", "E23", "E31", "E32", "H1", "H2"),
    "sl(4)": ("E12", "E23", "E34", "E21", "E32", "E43", "E14", "E41", "H1", "H2", "H3"),
    "heisenberg": ("p", "q", "z"),
}


def _rand_scalar(rng) -> tuple:
    # shaped like the library's own sampler: small integers, denominators 1 or 2
    def part():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))

    return (part(), part())


def _rand_combo(rng, labels) -> dict:
    picks = rng.sample(labels, rng.randint(1, 3))
    return {lab: rng.choice(_SCALARS) for lab in picks}


def _element_text(combo: dict) -> str:
    """{label: scalar} -> "2*E12+(1+i)*E21" in the pair grammar."""
    text = ""
    for lab, c in combo.items():
        s = gfmt(c)
        if s == "1":
            term = lab
        elif s == "-1":
            term = "-" + lab
        else:
            term = f"({s})*{lab}"
        text += term if not text or term.startswith("-") else "+" + term
    return text


def _spec(workdir: str, idx: int, payload: dict) -> str:
    path = os.path.join(workdir, f"spec_{idx:03d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _images_json(images: list) -> list:
    return [{lab: gfmt(c) for lab, c in img.items()} for img in images]


def _sl2_case_images(rng, family: int) -> list:
    """Images of x_1, x_2, x_3 in sl(2) as {label: scalar} maps."""
    i = g(0, 1)
    if family == 0:  # everything in span{h}: abelian image, residuals vanish
        return [{"h": _rand_scalar(rng)} for _ in range(2)] + [{"h": g(1)}]
    if family == 1:  # everything in span{e}
        return [{"e": _rand_scalar(rng)} for _ in range(2)] + [{"e": g(1)}]
    if family == 2:  # the solvable non-nilpotent example h, e, i*h
        return [{"h": g(1)}, {"e": g(1)}, {"h": i}]
    # unconstrained images, third image normalized to e or h
    imgs = [
        {lab: _rand_scalar(rng) for lab in ("e", "h", "f")} for _ in range(2)
    ]
    return imgs + [{rng.choice(("e", "h")): g(1)}]


def _sl2_verify(workdir: str, idx: int, images: list) -> Command:
    path = _spec(workdir, idx, {"n": 3, "target": "sl2", "images": _images_json(images)})

    def inner(code, report):
        return oracles.check_sl2_verify(code, report, images)

    return Command(("verify", path), _report_check(inner))


def _yu_verify(workdir: str, idx: int) -> Command:
    images = [{"E12": "1"}, {"E23": "1"}, {"E31": "1"}]
    path = _spec(workdir, idx, {"n": 3, "target": "sl(3)", "images": images})

    def inner(code, report):
        bad = oracles.check_all_residuals_zero(code, report, 9)
        res = report["results"]
        if bad is None and (res.get("image_dim"), res.get("surjective")) != (8, True):
            bad = "Yu's morphism must be onto sl(3)"
        return bad

    return Command(("verify", path, "--strong"), _report_check(inner))


def _doubled_verify(rng, workdir: str, idx: int) -> Command:
    target = rng.choice(("sl2", "sl(3)", "heisenberg"))
    labels = _FINITE_TARGETS[target]
    a, b = _rand_combo(rng, labels), _rand_combo(rng, labels)
    i = g(0, 1)
    ia = {lab: gmul(i, c) for lab, c in a.items()}
    ib = {lab: gmul(i, c) for lab, c in b.items()}
    path = _spec(
        workdir, idx, {"n": 4, "target": target, "images": _images_json([a, b, ia, ib])}
    )

    def inner(code, report):
        return oracles.check_all_residuals_zero(code, report, 4)

    return Command(("verify", path), _report_check(inner))


def _pair_finite(rng) -> Command:
    target = rng.choice(sorted(_FINITE_TARGETS))
    labels = _FINITE_TARGETS[target]
    a = _element_text(_rand_combo(rng, labels))
    b = _element_text(_rand_combo(rng, labels))
    # "=" keeps argparse from reading a leading "-" as an option
    argv = ("pair", "--target", target, f"--a={a}", f"--b={b}")

    def inner(code, report):
        return oracles.check_all_residuals_zero(code, report, 4)

    return Command(argv, _report_check(inner))


def _matrix(rng, kind: int) -> list:
    m = rng.randint(2, 8)
    if kind == 0:  # Cartan matrix of A_m: a GCM of full rank
        return [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(m)]
            for i in range(m)
        ]
    if kind in (1, 2):  # random GCM, symmetric zero pattern
        A = [[2 if i == j else 0 for j in range(m)] for i in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.5:
                    A[i][j], A[j][i] = -rng.randint(1, 3), -rng.randint(1, 3)
        if kind == 2:  # a decoupled affine A_1 block makes it rank-deficient
            for j in range(2, m):
                A[0][j] = A[j][0] = A[1][j] = A[j][1] = 0
            A[0][1] = A[1][0] = -2
        return A
    if kind == 4:
        m = max(m, 3)
    A = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
    if kind == 4:  # rank-deficient: last row = row 0 + row 1
        A[-1] = [x + y for x, y in zip(A[0], A[1])]
    return A


def _realization(rng, workdir: str, idx: int, kind: int) -> Command:
    A = _matrix(rng, kind)
    path = os.path.join(workdir, f"matrix_{idx:03d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[str(x) for x in row] for row in A], fh)

    def inner(code, report):
        return oracles.check_realization(code, report, A)

    return Command(("realization", path), _report_check(inner))


def _interactive(seed: int, workdir: str) -> list:
    """100 commands; the count of each kind is fixed and only the
    parameters and the order depend on the seed, so the work per run
    varies little from seed to seed."""
    rng = random.Random(f"interactive:{seed}")
    cmds = []
    for k in range(20):
        cmds.append(_realization(rng, workdir, len(cmds), k % 5))
    for k in range(12):
        cmds.append(_sl2_verify(workdir, len(cmds), _sl2_case_images(rng, k % 4)))
    for _ in range(4):
        cmds.append(_yu_verify(workdir, len(cmds)))
    for _ in range(8):
        cmds.append(_doubled_verify(rng, workdir, len(cmds)))
    for _ in range(28):
        cmds.append(_pair_finite(rng))
    for _ in range(8):
        cmds.append(_fixed("pair", "--target", "witt", "--depth", "6", "--window", "6"))
    for _ in range(20):
        cmds.append(_weak_dims(rng.randint(2, 5), rng.randint(1, 4)))
    rng.shuffle(cmds)
    return cmds


def build(name: str, seed: int, workdir: str) -> list:
    if name == "closure":
        return _closure()
    if name == "audit":
        return _audit(seed)
    if name == "window":
        return _window()
    if name == "interactive":
        return _interactive(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
