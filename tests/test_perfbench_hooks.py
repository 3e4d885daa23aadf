"""The benchmark's traced pass (``perfbench/tracing.py``) patches ymalg
functions, methods and caches by name.  A refactor that moves a patched
method into a base class, or deletes one, fails here instead of breaking
``python3 perfbench/run.py --trace 1``.  Nothing under ``perfbench/`` is
written: its directory is only put on ``sys.path``, without bytecode."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_tracer_installs_and_uninstalls(tracing):
    mods = {name: importlib.import_module(name) for name in tracing.YMALG_MODULES}
    algebra = mods["ymalg.targets"].StructureConstantAlgebra
    bracket = algebra.__dict__["bracket"]
    functions = {
        key: getattr(mods[key[0]], key[1]) for key in tracing.FUNCTION_SPANS
    }
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        assert algebra.__dict__["bracket"] is not bracket
    finally:
        tracer.uninstall()
    assert algebra.__dict__["bracket"] is bracket
    for (modname, attr), fn in functions.items():
        assert getattr(mods[modname], attr) is fn
    tracing.Caches(mods).clear()


def test_audit_records_residual_spans(tracing):
    # the audit's residual evaluation must stay visible to the per-layer
    # counters: morphisms.evaluate and targets.bracket under morphisms.audit
    mods = {name: importlib.import_module(name) for name in tracing.YMALG_MODULES}
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        report = mods["ymalg.morphisms"].solvable_image_audit(5, 0)
    finally:
        tracer.uninstall()
    totals = tracer.span_totals()
    for name in ("morphisms.audit", "morphisms.evaluate", "targets.bracket"):
        assert totals[name][0] > 0, name
    assert totals["morphisms.audit"][0] == 1
    assert tracer.counts["audit_candidates"] == report.candidates == 7


def test_subcommands_call_the_traced_functions(tracing, tmp_path):
    # the CLI imports library functions inside its handlers, at call time,
    # so it must pick up the tracer's rebinding of the module attributes
    mods = {name: importlib.import_module(name) for name in tracing.YMALG_MODULES}
    matrix = tmp_path / "a2.json"
    matrix.write_text('[["2", "-1"], ["-1", "2"]]')
    # an ideal component cached by an earlier test would record no rows
    tracing.Caches(mods).clear()
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        codes = [
            tracing.run_command(mods["ymalg.cli"], argv)[0]
            for argv in (
                ["pair", "--target", "witt", "--depth", "3", "--window", "3"],
                ["realization", str(matrix)],
                ["dims", "--n", "3", "--max-degree", "4"],
            )
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    totals = tracer.span_totals()
    for name in ("cli.main", "targets.generated_window", "kac_moody.build_realization"):
        assert totals[name][0] > 0, name
    assert totals["kac_moody.verify_realization"][0] > 0
    # the per-degree hooks: the benchmark's ym_quotient.degree.<d>.s and
    # rows_tried come from these spans and insert counts
    for name in ("ym_quotient.ideal_component", "ym_quotient.degree.3",
                 "ym_quotient.degree.4"):
        assert totals[name][0] > 0, name
    # [tried, accepted]: the three relators of ym(3), then [x_j, row] for
    # the 3 generators and 3 rows of I_3, of which dim I_4 = 8 are independent
    assert tracer.rows[3] == [3, 3]
    assert tracer.rows[4] == [9, 8]
