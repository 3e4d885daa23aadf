"""The package's import contract and its value types.

``ymalg`` resolves its exports on first use, and each CLI subcommand
imports only the library modules it runs.  The contract is read from
``sys.modules`` in fresh interpreters (``python -B``, so no bytecode is
written), and each subcommand also runs in ``python -I -S -B``, with no
site-packages, to show the library needs only the standard library;
nothing here is timed.  The records are ``NamedTuple``s and the
validated types small ``__slots__`` classes: all are immutable, and the
latter compare by class and value."""

import copy
import json
import os
import pickle
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import ymalg
from ymalg.free_lie import FreeLieElement, FreeTarget, GradedDims
from ymalg.kac_moody import MatrixData, build_realization, is_generalized_cartan
from ymalg.morphisms import (
    Sl2CaseParameters,
    analyze_sl2_morphism,
    sl2_case_residual,
    solvable_image_audit,
    solvable_non_nilpotent_example,
)
from ymalg.scalars import GaussianRational as GR
from ymalg.targets import (
    WittTarget,
    analyze_image,
    generated_window,
    series_analysis,
    sl_algebra,
    subalgebra_closure,
    witt_e,
)
from ymalg.ym_quotient import Presentation, ym_relations

SRC = Path(ymalg.__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

MODULES = "print(json.dumps(sorted(sys.modules)))"
SETUP = "import json, sys\nimport ymalg.cli\nymalg.cli.build_parser()\n" + MODULES
RUN = (
    "import contextlib, io, json, sys\n"
    "from ymalg.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)

# -I ignores PYTHONPATH and -S skips site-packages, so src is put on the
# path by hand (the first argument)
ISOLATED = "import sys\nsys.path.insert(0, sys.argv.pop(1))\n" + RUN

COMMANDS = {
    "dims": ("dims", "--n", "2", "--max-degree", "4"),
    "verify": ("verify", str(GOLDEN / "specs" / "yu_sl3.json")),
    "case-study": ("case-study", "--samples", "3", "--seed", "0"),
    "pair": ("pair", "--target", "witt", "--depth", "3", "--window", "3"),
    "realization": ("realization", str(GOLDEN / "matrices" / "affine_a1.json")),
}


def _python(code: str, *argv: str, flags=("-B",)):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@lru_cache(maxsize=None)
def modules_after(command: str) -> set:
    """The modules loaded by a fresh ``ymalg <command>`` that exits 0."""
    code, modules = _python(RUN, *COMMANDS[command])
    assert code == 0
    return set(modules)


@lru_cache(maxsize=None)
def isolated_modules(command: str) -> set:
    """The same in ``python -I -S -B``: no site-packages, so no site hook
    preloads a module."""
    code, modules = _python(
        ISOLATED, str(SRC), *COMMANDS[command], flags=("-I", "-S", "-B")
    )
    assert code == 0
    return set(modules)


def ymalg_modules(modules) -> set:
    return {m for m in modules if m == "ymalg" or m.startswith("ymalg.")}


class TestImportContract:
    def test_parser_loads_only_the_cli(self):
        assert ymalg_modules(_python(SETUP)) == {"ymalg", "ymalg.cli"}

    def test_dims_loads_no_morphism_code(self):
        loaded = modules_after("dims")
        assert "ymalg.ym_quotient" in loaded
        for name in ("ymalg.targets", "ymalg.morphisms", "ymalg.kac_moody"):
            assert name not in loaded

    def test_realization_loads_no_lie_algebra_code(self):
        loaded = modules_after("realization")
        assert "ymalg.kac_moody" in loaded
        for name in ("free_lie", "targets", "morphisms", "ym_quotient"):
            assert f"ymalg.{name}" not in loaded

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_no_subcommand_loads_dataclasses(self, command):
        if "dataclasses" in _python("import json, sys\n" + MODULES):
            pytest.skip("the bare interpreter already loads dataclasses")
        assert "dataclasses" not in modules_after(command)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_no_subcommand_loads_openssl_or_decimal(self, command):
        heavy = {"hashlib", "_hashlib", "_blake2", "fractions", "decimal", "_decimal"}
        assert heavy & isolated_modules(command) == set()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_subcommand_needs_only_the_standard_library(self, command):
        top = {m.partition(".")[0] for m in isolated_modules(command)}
        assert top - {"ymalg", "__main__"} <= sys.stdlib_module_names


class TestLazyPackage:
    def test_every_export_is_its_module_object(self):
        assert len(set(ymalg.__all__)) == len(ymalg.__all__) > 0
        for name in ymalg.__all__:
            value = getattr(ymalg, name)
            module = sys.modules[f"ymalg.{ymalg._MODULE_OF[name]}"]
            assert value is getattr(module, name)

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from ymalg import *", namespace)
        assert set(ymalg.__all__) <= set(namespace)
        assert namespace["bracket"] is ymalg.free_lie.bracket
        assert set(ymalg.__all__) <= set(dir(ymalg))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            ymalg.nonexistent
        assert not hasattr(ymalg, "Echelon")  # public in linalg, not exported


ZERO2 = (GR(0), GR(0))


def _sl2_image():
    sl2 = sl_algebra(2)
    return sl2, [sl2.basis_element("e"), sl2.basis_element("h")]


def _series():
    sl2, gens = _sl2_image()
    return series_analysis(sl2, subalgebra_closure(sl2, gens))


def _matrix():
    return MatrixData.from_rows([[2, -1], [-1, 2]])


# (instance, one of its fields) for each immutable record and value type
INSTANCES = {
    "FreeTarget": (lambda: FreeTarget(2), "m"),
    "WittTarget": (lambda: WittTarget(True), "virasoro"),
    "GradedDims": (lambda: GradedDims(2, (2, 1)), "dims"),
    "Presentation": (lambda: ym_relations(2), "relators"),
    "Sl2CaseParameters": (
        lambda: Sl2CaseParameters("nilpotent", ZERO2, ZERO2, ZERO2), "branch"),
    "MatrixData": (_matrix, "rank"),
    "GcmCheck": (lambda: is_generalized_cartan(_matrix()), "ok"),
    "RealizationOfMatrix": (lambda: build_realization(_matrix()), "h_dim"),
    "Sl2CaseConditions": (
        lambda: sl2_case_residual(Sl2CaseParameters("nilpotent", ZERO2, ZERO2, ZERO2)),
        "r3_conditions"),
    "MorphismAnalysis": (
        lambda: analyze_sl2_morphism(solvable_non_nilpotent_example()), "is_solvable"),
    "AuditReport": (lambda: solvable_image_audit(2, 0), "candidates"),
    "SeriesReport": (_series, "is_nilpotent"),
    "ImageAnalysis": (lambda: analyze_image(*_sl2_image()), "image_dim"),
    "WindowReport": (
        lambda: generated_window(WittTarget(), [witt_e(-2), witt_e(3)], 2, 1),
        "covered"),
}


class TestValueTypes:
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_fields_cannot_be_assigned(self, name):
        build, field = INSTANCES[name]
        obj = build()
        assert type(obj).__name__ == name
        value = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is value

    def test_equality_is_by_class_and_value(self):
        assert WittTarget(True) == WittTarget(True)
        assert WittTarget(True) != WittTarget()
        assert WittTarget() == WittTarget(virasoro=False)
        assert FreeTarget(1) != WittTarget(True)
        assert FreeTarget(2) == FreeTarget(m=2) != FreeTarget(3)
        assert hash(WittTarget(True)) == hash(WittTarget(True))
        assert hash(FreeTarget(2)) == hash(FreeTarget(2))
        assert len({FreeTarget(2), FreeTarget(2), WittTarget(), WittTarget()}) == 2
        assert GradedDims(2, (2, 1)) == GradedDims(n=2, dims=(2, 1))
        assert GradedDims(2, (2, 1)) != GradedDims(2, (2, 0))
        pres = ym_relations(2)
        assert pres == Presentation(2, pres.relators)
        assert hash(pres) == hash(Presentation(2, pres.relators))
        assert pres != ym_relations(2, strong=True)

    def test_repr_names_the_fields(self):
        assert repr(FreeTarget(2)) == "FreeTarget(m=2)"
        assert repr(WittTarget()) == "WittTarget(virasoro=False)"
        assert repr(GradedDims(2, (2, 1))) == "GradedDims(n=2, dims=(2, 1))"

    def test_copies_and_pickles_are_equal(self):
        for obj in (FreeTarget(3), WittTarget(True), GradedDims(2, (2, 1)),
                    Sl2CaseParameters("semisimple", ZERO2, ZERO2, ZERO2)):
            assert copy.deepcopy(obj) == obj == pickle.loads(pickle.dumps(obj))

    def test_validation_on_construction(self):
        x1 = FreeLieElement.generator(2, 1)
        with pytest.raises(ValueError, match="degree >= 2"):
            Presentation(2, (x1,))
        with pytest.raises(ValueError, match="outside"):
            GradedDims(2, (3,))
        with pytest.raises(ValueError, match="branch"):
            Sl2CaseParameters("other", ZERO2, ZERO2, ZERO2)
        with pytest.raises(ValueError, match="pairs"):
            Sl2CaseParameters("nilpotent", (1, 2), ZERO2, ZERO2)
