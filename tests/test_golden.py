"""Golden stdout gate: fixed CLI commands must keep their exact stdout bytes
and exit codes.

Each command runs in-process through ``cli.main`` with ``tests/golden`` as
the working directory, so spec and matrix paths (which are echoed into the
report) stay relative.  ``tests/golden/commands.json`` lists the commands
and their exit codes; ``tests/golden/stdout/<name>.txt`` holds their stdout.

To re-capture after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py --capture`` from the repo root
and review the diff.
"""

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
MANIFEST = os.path.join(GOLDEN_DIR, "commands.json")

COMMANDS = {
    "dims_n2": ["dims", "--n", "2", "--max-degree", "8"],
    "dims_n3": ["dims", "--n", "3", "--max-degree", "6"],
    "dims_n3_strong": ["dims", "--n", "3", "--max-degree", "6", "--strong"],
    "dims_n4": ["dims", "--n", "4", "--max-degree", "5"],
    "dims_n3_csv": ["dims", "--n", "3", "--max-degree", "6", "--format", "csv"],
    "case_study": ["case-study", "--samples", "60", "--seed", "7"],
    "case_study_nilpotent": [
        "case-study", "--branch", "nilpotent", "--samples", "40", "--seed", "3",
    ],
    "pair_sl2": ["pair", "--target", "sl2", "--a", "e", "--b", "f"],
    "pair_sl2_borel": ["pair", "--target", "sl2", "--a", "h", "--b", "(1+2i)*e"],
    "pair_sl3": ["pair", "--target", "sl(3)", "--a", "E12+E23", "--b", "E21+3*E32"],
    "pair_sl4": [
        "pair", "--target", "sl(4)", "--a", "E12+E23+E34", "--b", "E21+E32+E43",
    ],
    "pair_heisenberg": ["pair", "--target", "heisenberg", "--a", "p", "--b", "q"],
    "pair_witt": ["pair", "--target", "witt", "--depth", "8", "--window", "10"],
    "pair_witt_small": [
        "pair", "--target", "witt", "--a", "e_1", "--b", "e_2",
        "--depth", "5", "--window", "6",
    ],
    "pair_virasoro": ["pair", "--target", "virasoro", "--depth", "6", "--window", "4"],
    "pair_witt_flag": [
        "pair", "--target", "witt", "--virasoro", "--depth", "5", "--window", "5",
    ],
    "pair_witt_two_term": [
        "pair", "--target", "witt", "--a", "e_1+e_9", "--b", "e_-3",
        "--depth", "6", "--window", "8",
    ],
    "pair_virasoro_two_term": [
        "pair", "--target", "virasoro", "--a", "e_1+e_9", "--b", "e_-3",
        "--depth", "6", "--window", "8",
    ],
    "verify_yu_strong": ["verify", "specs/yu_sl3.json", "--strong"],
    "verify_custom": ["verify", "specs/heisenberg_custom.json"],
    "verify_virasoro": [
        "verify", "specs/virasoro.json", "--depth", "6", "--window", "5",
    ],
    "verify_sl2_failing": ["verify", "specs/sl2_failing.json"],
    "realization_affine_a1": ["realization", "matrices/affine_a1.json"],
    "realization_rank2": ["realization", "matrices/rank2_m4.json"],
}


def run_in_golden_dir(argv) -> tuple:
    """(exit code, stdout bytes) of ``ymalg <argv>`` run in tests/golden."""
    from ymalg import cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode()


def _stdout_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, "stdout", f"{name}.txt")


def _manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_matches_command_list():
    manifest = _manifest()
    assert {k: v["argv"] for k, v in manifest.items()} == COMMANDS


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    expected = _manifest()[name]
    code, stdout = run_in_golden_dir(expected["argv"])
    assert code == expected["exit_code"]
    with open(_stdout_path(name), "rb") as fh:
        assert stdout == fh.read()


@pytest.mark.parametrize("chunks", [1, 2, 3])
@pytest.mark.parametrize("name", ["case_study", "case_study_nilpotent"])
def test_case_study_golden_at_every_chunk_count(name, chunks, monkeypatch):
    # the sample loops cut range(samples) into one chunk per usable CPU
    from ymalg import morphisms

    monkeypatch.setattr(morphisms, "_usable_cpus", lambda: chunks)
    test_golden_stdout(name)


def capture() -> None:
    os.makedirs(os.path.join(GOLDEN_DIR, "stdout"), exist_ok=True)
    manifest = {}
    for name, argv in sorted(COMMANDS.items()):
        code, stdout = run_in_golden_dir(argv)
        manifest[name] = {"argv": argv, "exit_code": code}
        with open(_stdout_path(name), "wb") as fh:
            fh.write(stdout)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: python tests/test_golden.py --capture")
    capture()
