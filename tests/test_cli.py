import copy
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ymalg.cli import main

CLI = [sys.executable, "-m", "ymalg.cli"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=120
    )


def results_of(proc):
    report = json.loads(proc.stdout)
    assert set(report) == {"command", "seed", "inputs_digest", "results"}
    return report["results"]


@pytest.fixture
def spec_file(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


class TestDims:
    def test_heisenberg_profile(self):
        proc = run_cli("dims", "--n", "2", "--max-degree", "5")
        assert proc.returncode == 0
        assert results_of(proc)["ym_dims"] == [2, 1, 0, 0, 0]

    def test_n3_profile(self):
        proc = run_cli("dims", "--n", "3", "--max-degree", "3")
        assert proc.returncode == 0
        assert results_of(proc)["ym_dims"] == [3, 3, 5]

    def test_abelian(self):
        proc = run_cli("dims", "--n", "1", "--max-degree", "2")
        assert proc.returncode == 0
        assert results_of(proc)["ym_dims"] == [1, 0]

    def test_csv_format(self):
        proc = run_cli("dims", "--n", "2", "--max-degree", "3", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "degree,free_dim,ideal_dim,ym_dim",
            "1,2,0,2",
            "2,1,0,1",
            "3,2,2,0",
        ]

    def test_cap_exceeded_is_input_error(self):
        proc = run_cli("dims", "--n", "2", "--max-degree", "20")
        assert proc.returncode == 2
        assert "cap" in proc.stderr


class TestVerify:
    def test_yu_spec(self, spec_file):
        path = spec_file(
            "yu.json",
            {
                "n": 3,
                "target": "sl(3)",
                "images": [{"E12": "1"}, {"E23": "1"}, {"E31": "1"}],
            },
        )
        proc = run_cli("verify", path, "--strong")
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["residuals_zero"] is True
        assert len(results["residuals"]) == 9
        assert results["image_dim"] == 8
        assert results["surjective"] is True

    def test_solvable_non_nilpotent_spec(self, spec_file):
        path = spec_file(
            "heih.json",
            {
                "n": 3,
                "target": "sl(2)",
                "images": [{"h": "1"}, {"e": "1"}, {"h": "i"}],
            },
        )
        proc = run_cli("verify", path)
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["residuals_zero"] is True
        assert results["solvable"] is True
        assert results["nilpotent"] is False

    def test_failing_spec_exits_one(self, spec_file):
        path = spec_file(
            "efz.json",
            {"n": 3, "target": "sl2", "images": [{"e": "1"}, {"f": "1"}, {}]},
        )
        proc = run_cli("verify", path)
        assert proc.returncode == 1
        results = results_of(proc)
        assert results["residuals_zero"] is False
        assert results["residuals"][0] == "-2*f"

    def test_witt_spec(self, spec_file):
        path = spec_file(
            "witt.json",
            {
                "n": 4,
                "target": "witt",
                "images": [
                    {"e_-2": "1"},
                    {"e_3": "1"},
                    {"e_-2": "i"},
                    {"e_3": "i"},
                ],
            },
        )
        proc = run_cli("verify", path, "--depth", "4", "--window", "2")
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["residuals_zero"] is True
        assert "window" in results

    def test_custom_target(self, spec_file):
        path = spec_file(
            "custom.json",
            {
                "n": 2,
                "target": {
                    "custom": {
                        "basis": ["u", "v"],
                        "brackets": [],
                    }
                },
                "images": [{"u": "1"}, {"v": "1"}],
            },
        )
        proc = run_cli("verify", path)
        assert proc.returncode == 0
        assert results_of(proc)["residuals_zero"] is True

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = run_cli("verify", str(path))
        assert proc.returncode == 2
        assert "malformed JSON" in proc.stderr

    def test_unknown_target(self, spec_file):
        path = spec_file("unk.json", {"n": 1, "target": "su(5)", "images": [{}]})
        proc = run_cli("verify", path)
        assert proc.returncode == 2
        assert "unknown target" in proc.stderr

    def test_arity_mismatch(self, spec_file):
        path = spec_file(
            "arity.json", {"n": 3, "target": "sl2", "images": [{"e": "1"}]}
        )
        proc = run_cli("verify", path)
        assert proc.returncode == 2
        assert "arity" in proc.stderr

    def test_missing_file(self):
        proc = run_cli("verify", "/nonexistent/morphism.json")
        assert proc.returncode == 2

    def test_zero_denominator_is_input_error(self, spec_file):
        path = spec_file(
            "div0.json", {"n": 1, "target": "sl2", "images": [{"e": "1/0"}]}
        )
        proc = run_cli("verify", path)
        assert proc.returncode == 2
        assert "zero denominator" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"n": 1, "target": "sl2", "images": 5}, '"images" must be a list'),
            ({"n": None, "target": "sl2", "images": []}, '"n" must be a positive'),
            (
                {
                    "n": 1,
                    "target": {
                        "custom": {
                            "basis": ["x", "y"],
                            "brackets": [{"i": "x", "j": "y", "coords": 3}],
                        }
                    },
                    "images": [{"x": "1"}],
                },
                "coords must be an object",
            ),
            (
                {
                    "n": 1,
                    "target": {
                        "custom": {
                            "basis": ["x", "y"],
                            "brackets": [{"i": "x", "coords": {}}],
                        }
                    },
                    "images": [{"x": "1"}],
                },
                "bracket entry {'i': 'x', 'coords': {}} has no 'j'",
            ),
            (
                {
                    "n": 1,
                    "target": {"custom": {"basis": "xy", "brackets": []}},
                    "images": [{"x": "1"}],
                },
                '"basis" list',
            ),
        ],
        ids=["images-int", "n-null", "coords-int", "missing-j", "basis-string"],
    )
    def test_malformed_spec_is_input_error(self, spec_file, spec, message):
        proc = run_cli("verify", spec_file("bad.json", spec))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


GOLDEN_SPECS = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))
]
SWAP_VALUES = st.one_of(
    st.integers(-2, 5),
    st.none(),
    st.sampled_from(["", "x", "e", "c", "1/2", "sl2", "witt"]),
    st.sampled_from([[], [1], ["x"], [{}]]),
    st.sampled_from([{}, {"x": "1"}, {"e": 2}]),
)


def _paths(node, prefix=()):
    """Every (container path, key) below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


class TestSpecFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_specs_keep_exit_contract(self, data):
        # drop keys and swap values anywhere in a valid spec; the CLI must
        # answer 0, 1 with a report, or 2, and never raise
        spec = copy.deepcopy(data.draw(st.sampled_from(GOLDEN_SPECS)))
        for _ in range(data.draw(st.integers(0, 2))):
            paths = list(_paths(spec))
            if not paths:
                break
            prefix, key = data.draw(st.sampled_from(paths))
            parent = spec
            for k in prefix:
                parent = parent[k]
            if data.draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = copy.deepcopy(data.draw(SWAP_VALUES))
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(spec))
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(["verify", str(path)])
        assert code in (0, 1, 2)
        if code == 1:
            report = json.loads(out.getvalue())
            assert set(report) == {"command", "seed", "inputs_digest", "results"}
            assert report["results"]["residuals_zero"] is False


class TestCaseStudy:
    def test_both_branches_clean(self):
        proc = run_cli("case-study", "--samples", "40", "--seed", "7")
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["mismatches"] == {"nilpotent": 0, "semisimple": 0}
        assert results["audit"]["solvable_violations"] == []
        example = results["non_nilpotent_example"]
        assert example["solvable"] is True and example["nilpotent"] is False

    def test_single_branch(self):
        proc = run_cli(
            "case-study", "--branch", "nilpotent", "--samples", "25", "--seed", "3"
        )
        assert proc.returncode == 0
        assert list(results_of(proc)["mismatches"]) == ["nilpotent"]

    def test_bad_samples(self):
        proc = run_cli("case-study", "--samples", "0")
        assert proc.returncode == 2


class TestPair:
    def test_sl2_ef(self):
        proc = run_cli("pair", "--target", "sl2", "--a", "e", "--b", "f")
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["residuals_zero"] is True
        assert results["surjective"] is True

    def test_sl2_eh_not_surjective(self):
        proc = run_cli("pair", "--target", "sl2", "--a", "e", "--b", "h")
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["residuals_zero"] is True
        assert results["surjective"] is False
        assert results["image_dim"] == 2

    def test_sl3_expression_pair(self):
        proc = run_cli(
            "pair", "--target", "sl(3)", "--a", "E12+E23", "--b", "E21+3*E32"
        )
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["surjective"] is True

    def test_witt_window(self):
        proc = run_cli("pair", "--target", "witt", "--window", "10", "--depth", "8")
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["residuals_zero"] is True
        assert results["window"]["covers_window"] is True
        assert results["window"]["covered"] == list(range(-10, 11))

    def test_virasoro(self):
        proc = run_cli("pair", "--target", "virasoro", "--depth", "6", "--window", "4")
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["residuals_zero"] is True
        assert results["window"]["central_covered"] is True

    def test_all_zero_pair_agrees_with_verify(self, spec_file):
        proc = run_cli("pair", "--target", "sl2", "--a", "0*e", "--b", "0*f")
        assert proc.returncode == 0
        pair = results_of(proc)
        path = spec_file(
            "zero.json",
            {"n": 4, "target": "sl2", "images": [{"e": "0"}, {"f": "0"}, {}, {}]},
        )
        verify = results_of(run_cli("verify", path))
        keys = ("image_dim", "solvable", "nilpotent", "surjective")
        assert {k: pair[k] for k in keys} == {k: verify[k] for k in keys} == {
            "image_dim": 0, "solvable": True, "nilpotent": True, "surjective": False,
        }

    def test_witt_negative_index_in_sums(self):
        from ymalg.cli import parse_element
        from ymalg.morphisms import WittTarget
        from ymalg.targets import witt_e

        got = parse_element(WittTarget(), "2*e_-1 - e_-2 + e_3")
        assert got == witt_e(-1) * 2 - witt_e(-2) + witt_e(3)

    def test_witt_negative_index_shortcut(self):
        proc = run_cli("pair", "--target", "witt", "--a", "e_-2", "--b", "e_3")
        assert proc.returncode == 0
        default = run_cli("pair", "--target", "witt")
        assert results_of(proc) == results_of(default)

    def test_missing_generators_for_finite_target(self):
        proc = run_cli("pair", "--target", "sl2")
        assert proc.returncode == 2

    def test_bad_element_expression(self):
        proc = run_cli("pair", "--target", "sl2", "--a", "w", "--b", "f")
        assert proc.returncode == 2


class TestRealization:
    def test_affine_a1(self, tmp_path):
        path = tmp_path / "affine.json"
        path.write_text('[["2", "-2"], ["-2", "2"]]')
        proc = run_cli("realization", str(path))
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["gcm"]["ok"] is True
        assert results["rank"] == 1
        assert results["realization"]["h_dim"] == 3
        assert results["verified"] is True
        assert results["ym_quotient_bound"] == 4

    def test_a2(self, tmp_path):
        path = tmp_path / "a2.json"
        path.write_text("[[2, -1], [-1, 2]]")
        proc = run_cli("realization", str(path))
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["realization"]["h_dim"] == 2
        assert results["ym_quotient_bound"] == 4

    def test_m6_rank2(self, tmp_path):
        # rows 3..6 are copies of rows 1 and 2, so the rank is 2
        row1 = [1, 0, 1, 0, 1, 0]
        row2 = [0, 1, 0, 1, 0, 1]
        rows = [row1, row2, row1, row2, row1, row2]
        path = tmp_path / "m6.json"
        path.write_text(json.dumps(rows))
        proc = run_cli("realization", str(path))
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["rank"] == 2
        assert results["ym_quotient_bound"] == 8
        assert results["realization"]["h_dim"] == 10

    def test_non_square(self, tmp_path):
        path = tmp_path / "ns.json"
        path.write_text("[[1, 2]]")
        proc = run_cli("realization", str(path))
        assert proc.returncode == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("dims", "--n", "2", "--max-degree", "4"),
            ("case-study", "--samples", "15", "--seed", "42"),
            ("pair", "--target", "sl2", "--a", "e", "--b", "f"),
            ("pair", "--target", "witt", "--depth", "5", "--window", "4"),
        ],
    )
    def test_byte_identical_outputs(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_report_echoes_command_and_seed(self):
        proc = run_cli("case-study", "--samples", "10", "--seed", "5")
        report = json.loads(proc.stdout)
        assert report["command"] == "ymalg case-study --samples 10 --seed 5"
        assert report["seed"] == 5
        assert report["inputs_digest"]
