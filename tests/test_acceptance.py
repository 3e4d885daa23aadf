"""Acceptance gate: one test per criterion, exact checks, stated time limits.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output).  All checks are exact; the limits are wall-clock bounds on
desk-scale hardware.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from oracle_utils import rand_homogeneous, rand_scalar
from ymalg.free_lie import FreeLieElement, bracket, free_lie_dim, lyndon_basis
from ymalg.kac_moody import (
    MatrixData,
    build_realization,
    verify_realization,
    ym_quotient_bound,
)
from ymalg.morphisms import (
    GeneratorMorphism,
    Sl2CaseParameters,
    analyze_sl2_morphism,
    assemble_sl2_morphism,
    doubling_morphism,
    isotropic_orthogonal_witness,
    pair_to_ym4_morphism,
    sample_case_parameters,
    solvable_non_nilpotent_example,
    sl2_case_residual,
    solvable_image_audit,
    yu_morphism,
)
from ymalg.scalars import GaussianRational as GR, I
from ymalg.targets import (
    WittTarget,
    generated_window,
    sl_algebra,
    subalgebra_closure,
    witt_e,
)
from ymalg.ym_quotient import ym_graded_dims

CLI = [sys.executable, "-m", "ymalg.cli"]


@contextmanager
def criterion(number: int, name: str, limit_s: float):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed else ("PASS" if elapsed < limit_s else "FAIL (over time limit)")
        print(
            f"[acceptance] criterion {number:2d} ({name}): {verdict} "
            f"in {elapsed:.2f}s (limit {limit_s:g}s)"
        )
        if not failed:
            assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=120)


def test_criterion_01_heisenberg_dims():
    with criterion(1, "heisenberg check", 1.0):
        proc = run_cli("dims", "--n", "2", "--max-degree", "6")
        assert proc.returncode == 0
        dims = json.loads(proc.stdout)["results"]["ym_dims"]
        assert dims == [2, 1, 0, 0, 0, 0]
        assert sum(dims) == 3
        assert ym_graded_dims(2, 6).dims == (2, 1, 0, 0, 0, 0)


def test_criterion_02_free_lie_oracle():
    with criterion(2, "lyndon basis vs necklace formula", 5.0):
        for n in range(1, 5):
            for d in range(1, 9):
                assert len(lyndon_basis(n, d)) == free_lie_dim(n, d), (n, d)


def test_criterion_03_bracket_laws():
    with criterion(3, "antisymmetry/Jacobi/grading on 500 triples", 30.0):
        rng = random.Random(2024)
        for _ in range(500):
            p, q, r = (rng.randint(1, 5) for _ in range(3))
            a = rand_homogeneous(3, p, rng)
            b = rand_homogeneous(3, q, rng)
            c = rand_homogeneous(3, r, rng)
            assert (bracket(a, b) + bracket(b, a)).is_zero
            ab = bracket(a, b)
            assert ab.is_zero or ab.degrees() == (p + q,)
            jac = (
                bracket(a, bracket(b, c))
                + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))
            )
            assert jac.is_zero


def test_criterion_04_doubling_morphism():
    with criterion(4, "doubling residuals m=1..3", 5.0):
        for m in (1, 2, 3):
            residuals = doubling_morphism(m).relation_residuals()
            assert len(residuals) == 2 * m
            assert all(r.is_zero for r in residuals)


def test_criterion_05_yu_example():
    with criterion(5, "Yu morphism ym(3) -> sl(3)", 1.0):
        phi = yu_morphism()
        residuals = phi.relation_residuals(strong=True)
        assert len(residuals) == 9
        assert all(r.is_zero for r in residuals)
        assert subalgebra_closure(phi.target, list(phi.images)).dim == 8


def test_criterion_06_witt_virasoro():
    with criterion(6, "Witt/Virasoro quotient evidence", 10.0):
        for virasoro in (False, True):
            target = WittTarget(virasoro)
            phi = pair_to_ym4_morphism(target, witt_e(-2), witt_e(3))
            assert all(r.is_zero for r in phi.relation_residuals()), virasoro
        report = generated_window(
            WittTarget(), [witt_e(-2), witt_e(3)], depth=8, window=10
        )
        assert set(report.covered) == set(range(-10, 11))


def test_criterion_07_sl2_oracle_equivalence():
    with criterion(7, "closed-form vs residual oracle, 1000/branch", 60.0):
        for branch in ("nilpotent", "semisimple"):
            mismatches = 0
            agree_zero = 0
            for k in range(1000):
                rng = random.Random(f"acceptance7:{branch}:{k}")
                p = sample_case_parameters(rng, branch)
                closed = sl2_case_residual(p).all_zero
                direct = assemble_sl2_morphism(p).residuals_vanish()
                if closed != direct:
                    mismatches += 1
                elif closed:
                    agree_zero += 1
            assert mismatches == 0, branch
            # the sampler must exercise the residual-zero side too
            assert agree_zero > 50, branch


def test_criterion_08_solvable_image_audit():
    with criterion(8, "Proposition audit: residual-zero => solvable", 30.0):
        report = solvable_image_audit(samples=400, seed=2024)
        assert report.solvable_violations == ()
        assert report.residual_zero > 100
        example = report.non_nilpotent_example
        assert example.residuals_zero
        assert example.is_solvable
        assert not example.is_nilpotent
        # the (h, e, i*h) morphism analyzed directly as well
        analysis = analyze_sl2_morphism(solvable_non_nilpotent_example())
        assert analysis.is_solvable and not analysis.is_nilpotent


def test_criterion_09_isotropic_witness():
    with criterion(9, "Fact 1 witness on 200 seeded pairs", 5.0):
        count = 0
        k = 0
        while count < 200:
            rng = random.Random(f"acceptance9:{k}")
            k += 1
            t = rand_scalar(rng)
            if not t:
                continue
            eps = I if rng.random() < 0.5 else -I
            x = (t, t * eps)
            lam = rand_scalar(rng)
            y = (x[0] * lam, x[1] * lam)
            got = isotropic_orthogonal_witness(x, y)
            assert got == lam
            assert y[0] == got * x[0] and y[1] == got * x[1]
            assert y[0] * y[0] + y[1] * y[1] == GR(0)
            count += 1


def test_criterion_10_realizations():
    with criterion(10, "realizations for 100 random matrices", 10.0):
        built = 0
        for m in range(1, 6):
            for r in range(0, m + 1):
                for trial in range(5):
                    rng = random.Random(f"acceptance10:{m}:{r}:{trial}")
                    while True:
                        if r == 0:
                            A = MatrixData.from_rows([[GR(0)] * m] * m)
                        else:
                            B = [[rand_scalar(rng, 2) for _ in range(r)] for _ in range(m)]
                            C = [[rand_scalar(rng, 2) for _ in range(m)] for _ in range(r)]
                            A = MatrixData.from_rows(
                                [
                                    [
                                        sum((B[i][k] * C[k][j] for k in range(r)), GR(0))
                                        for j in range(m)
                                    ]
                                    for i in range(m)
                                ]
                            )
                        if A.rank == r:
                            break
                    R = build_realization(A)
                    assert verify_realization(R, A)
                    assert R.h_dim == 2 * m - r
                    built += 1
        assert built == 100
        affine = MatrixData.from_rows([[2, -2], [-2, 2]])
        assert build_realization(affine).h_dim == 3
        assert ym_quotient_bound(affine) == 4
        row1, row2 = [1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]
        m6 = MatrixData.from_rows([row1, row2, row1, row2, row1, row2])
        assert m6.rank == 2
        assert ym_quotient_bound(m6) == 8


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "byte-identical CLI reruns", 60.0):
        matrix = tmp_path / "affine.json"
        matrix.write_text('[["2", "-2"], ["-2", "2"]]')
        spec = tmp_path / "heih.json"
        spec.write_text(
            json.dumps(
                {
                    "n": 3,
                    "target": "sl(2)",
                    "images": [{"h": "1"}, {"e": "1"}, {"h": "i"}],
                }
            )
        )
        commands = [
            ("dims", "--n", "2", "--max-degree", "6"),
            ("dims", "--n", "3", "--max-degree", "4"),
            ("case-study", "--samples", "30", "--seed", "11"),
            ("case-study", "--branch", "semisimple", "--samples", "20", "--seed", "0"),
            ("pair", "--target", "sl2", "--a", "e", "--b", "f"),
            ("pair", "--target", "witt", "--depth", "6", "--window", "5"),
            ("verify", str(spec)),
            ("realization", str(matrix)),
        ]
        for args in commands:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.stdout == second.stdout, args
            assert first.returncode == second.returncode, args
            assert first.stdout.strip(), args
