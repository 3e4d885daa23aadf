import copy
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ymalg.cli import MAX_CUSTOM_DIM, MAX_SL_SIZE, MAX_WINDOW_DEPTH, _digest, main

CLI = [sys.executable, "-m", "ymalg.cli"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=120
    )


def results_of(proc):
    report = json.loads(proc.stdout)
    assert set(report) == {"command", "seed", "inputs_digest", "results"}
    return report["results"]


def run_main(*argv):
    """Run the CLI in this process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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

    def test_n_must_be_positive(self):
        code, out, err = run_main("dims", "--n", "0")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: need --n >= 1"]

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

    def test_witt_spec_unknown_label(self, spec_file):
        path = spec_file(
            "witt_x.json", {"n": 1, "target": "witt", "images": [{"x_1": "1"}]}
        )
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", path])
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue() == (
            "error: bad image: unknown Witt basis name 'x_1' (use e_<k> or c)\n"
        )

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
        # nesting deeper than the decoder's recursion limit
        deep = "[" * 100000 + "]" * 100000
        path.write_text('{"n": 1, "target": "sl2", "images": ' + deep + "}")
        code, out, err = run_main("verify", str(path))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: malformed JSON")

    def test_deep_custom_algebra_string(self, spec_file):
        # a custom algebra given as a JSON string, nested past the decoder's
        # recursion limit
        deep = "[" * 100000 + "]" * 100000
        spec = {"n": 1, "target": {"custom": deep}, "images": [{}]}
        code, out, err = run_main("verify", spec_file("deep.json", spec))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: bad custom algebra: ")

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
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: cannot read morphism spec: [Errno 2] No such file or "
            "directory: '/nonexistent/morphism.json'\n"
        )

    @pytest.mark.parametrize(
        "spec, extra, message",
        [
            (
                {"n": 1, "target": "sl2", "images": [{"q": "0"}]},
                (),
                "bad image: unknown basis label 'q' in sl(2) (has e, h, f)",
            ),
            (
                {"n": 1, "target": "sl2", "images": [{"e": True}]},
                (),
                "bad image: cannot parse scalar True",
            ),
            (
                {
                    "n": 1,
                    "target": {
                        "custom": {
                            "basis": ["x", "y", "z"],
                            "brackets": [{"i": "x", "j": "y", "coords": {"z": True}}],
                        }
                    },
                    "images": [{"x": "1"}],
                },
                (),
                "bad custom algebra: cannot parse scalar True",
            ),
            (
                {"n": 1, "target": "witt", "images": [{"e_1": "1"}]},
                ("--depth", str(MAX_WINDOW_DEPTH + 1)),
                f"--depth {MAX_WINDOW_DEPTH + 1} is above the cap {MAX_WINDOW_DEPTH}",
            ),
            (
                {
                    "n": 1,
                    "target": {
                        "custom": {
                            "basis": ["x", "y", "z"],
                            "brackets": [
                                {"i": "x", "j": "y", "coords": {"z": "1"}},
                                {"i": "x", "j": "y", "coords": {"z": "2"}},
                            ],
                        }
                    },
                    "images": [{"x": "1"}],
                },
                (),
                "bad custom algebra: conflicting entries for [x, y]",
            ),
            (
                # refused before the Jacobi check, which is cubic in the size
                {
                    "n": 1,
                    "target": {"custom": {"basis": [f"b{k}" for k in range(144)]}},
                    "images": [{"b0": "1"}],
                },
                (),
                f"bad custom algebra: 144 basis labels; at most {MAX_CUSTOM_DIM}",
            ),
        ],
        ids=[
            "zero-coefficient-label", "bool-image", "bool-coords", "depth-over-cap",
            "conflicting-entries", "custom-over-size",
        ],
    )
    def test_input_error_message(self, spec_file, spec, extra, message):
        code, out, err = run_main("verify", spec_file("bad.json", spec), *extra)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_largest_custom_algebra_is_accepted(self, spec_file):
        assert MAX_CUSTOM_DIM == MAX_SL_SIZE**2 - 1
        labels = [f"b{k}" for k in range(MAX_CUSTOM_DIM)]
        spec = {"n": 1, "target": {"custom": {"basis": labels}}, "images": [{"b0": "1"}]}
        code, out, _ = run_main("verify", spec_file("big.json", spec))
        assert code == 0 and json.loads(out)["results"]["image_dim"] == 1

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
        from ymalg.targets import WittTarget, witt_e

        got = parse_element(WittTarget(), "2*e_-1 - e_-2 + e_3")
        assert got == witt_e(-1) * 2 - witt_e(-2) + witt_e(3)

    def test_witt_negative_index_shortcut(self):
        proc = run_cli("pair", "--target", "witt", "--a", "e_-2", "--b", "e_3")
        assert proc.returncode == 0
        default = run_cli("pair", "--target", "witt")
        assert results_of(proc) == results_of(default)

    def test_witt_braced_index(self):
        # braces are dropped from labels on every target, as in E^{12}
        proc = run_cli("pair", "--target", "witt", "--a", "e^{3}", "--b", "e_-2")
        assert proc.returncode == 0
        results = results_of(proc)
        assert results["a"] == "e_3" and results["b"] == "e_-2"

    def test_sl_size_is_capped(self):
        # refused before anything is built: building sl(999) would take days
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["pair", "--target", "sl999", "--a", "E12", "--b", "E21"])
        assert code == 2 and out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ") and f"<= {MAX_SL_SIZE}" in line

    @pytest.mark.parametrize(
        "argv",
        [
            # "\u0663" and "\u0662" are the Arabic-Indic three and two
            ("--target", "sl(3", "--a", "E12", "--b", "E21"),
            ("--target", "sl3)", "--a", "E12", "--b", "E21"),
            ("--target", "sl(\u0663)", "--a", "E12", "--b", "E21"),
            ("--target", "witt", "--a", "e_3\n", "--b", "e_-2"),
            ("--target", "witt", "--a", "e_\u0663", "--b", "e_-2"),
            ("--target", "sl2", "--a", "\u0663*e", "--b", "f"),
            ("--target", "sl2", "--a", "1/\u0662*e", "--b", "f"),
            # empty, blank and sign-only elements, and --virasoro off witt
            ("--target", "witt", "--a", "", "--b", "e_3"),
            ("--target", "witt", "--a", "e_-2", "--b", ""),
            ("--target", "sl2", "--a", "", "--b", "f"),
            ("--target", "sl2", "--a", " ", "--b", "f"),
            ("--target", "sl2", "--a", "+", "--b", "f"),
            ("--target", "sl2", "--a=--", "--b", "f"),
            ("--target", "heisenberg", "--a", "p", "--b", "q", "--virasoro"),
            # a window depth above the cap
            ("--target", "witt", "--depth", str(MAX_WINDOW_DEPTH + 1)),
            ("--target", "virasoro", "--depth", "1000", "--window", "3"),
        ],
    )
    def test_grammars_take_only_their_documented_form(self, argv):
        # ASCII digits, the whole text, and the parentheses of sl(m) as a pair
        code, out, err = run_main("pair", *argv)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("target", ["sl3", "sl(3)", " SL(3) "])
    def test_sl_target_spellings(self, target):
        code, out, _ = run_main("pair", "--target", target, "--a", "E12", "--b", "E21")
        assert code == 0
        assert json.loads(out)["results"]["image_dim"] == 3

    def test_missing_generators_for_finite_target(self):
        proc = run_cli("pair", "--target", "sl2")
        assert proc.returncode == 2

    @pytest.mark.parametrize("given", [("--a", "e"), ("--b", "f")])
    def test_one_generator_for_finite_target(self, given):
        code, out, err = run_main("pair", "--target", "sl2", *given)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: --a and --b are required for finite targets"]

    def test_bad_element_expression(self):
        proc = run_cli("pair", "--target", "sl2", "--a", "w", "--b", "f")
        assert proc.returncode == 2

    def test_unknown_label_message_is_unquoted(self, spec_file):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["pair", "--target", "sl2", "--a=2**e", "--b", "f"])
        assert code == 2
        assert err.getvalue() == (
            "error: unknown basis label '*e' in sl(2) (has e, h, f)\n"
        )
        path = spec_file(
            "bad.json", {"n": 1, "target": "sl2", "images": [{"q": "1"}]}
        )
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["verify", path])
        assert code == 2
        assert err.getvalue() == (
            "error: bad image: unknown basis label 'q' in sl(2) (has e, h, f)\n"
        )


# pieces of the scalar and element grammar, valid and not
ELEMENT_FRAGMENTS = st.sampled_from(
    ["+", "-", "*", "/0", "/2", "(", ")", "i", "1", "3", "0", " ", "_", "^",
     "e", "h", "f", "E12", "E2_1", "H1", "e_-2", "e_3", "e_0", "c", "x", "E9"]
)
ELEMENT_STRINGS = st.lists(ELEMENT_FRAGMENTS, max_size=7).map("".join)


class TestElementFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        target=st.sampled_from(["sl2", "sl(3)", "witt"]),
        a=ELEMENT_STRINGS,
        b=ELEMENT_STRINGS,
    )
    def test_element_strings_keep_exit_contract(self, target, a, b):
        # any --a/--b text gets 0, 1 with a report, or 2 with one error line
        out, err = io.StringIO(), io.StringIO()
        argv = ["pair", "--target", target, f"--a={a}", f"--b={b}",
                "--depth", "2", "--window", "3"]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
        else:
            report = json.loads(out.getvalue())
            assert set(report) == {"command", "seed", "inputs_digest", "results"}
            assert report["results"]["residuals_zero"] is (code == 0)


SCALAR_PARTS = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 5]))


def _target_labels(name):
    from ymalg.cli import resolve_target

    target = resolve_target(name)
    if name in ("witt", "virasoro"):
        labels = st.one_of(st.just("c"), st.integers(-15, 15).map("e_{}".format))
    else:
        labels = st.sampled_from(target.labels)
    return target, labels


class TestElementRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize(
        "name", ["sl2", "sl(3)", "sl(12)", "heisenberg", "witt", "virasoro"]
    )
    def test_parse_element_reads_back_the_printed_form(self, name, data):
        # str(x) is what a report prints; parsing it gives x back
        from ymalg.cli import parse_element
        from ymalg.scalars import GaussianRational

        target, labels = _target_labels(name)
        coords = data.draw(st.dictionaries(
            labels,
            st.builds(GaussianRational, SCALAR_PARTS, SCALAR_PARTS),
            min_size=1, max_size=6,
        ))
        x = target.element(coords)
        assume(not x.is_zero)
        assert parse_element(target, str(x)) == x


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

    def test_failed_check_is_a_report(self, monkeypatch):
        # a realization that fails its one check exits 1 with a full report
        import ymalg.kac_moody

        monkeypatch.setattr(ymalg.kac_moody, "verify_realization", lambda R, A: False)
        path = Path(__file__).parent / "golden" / "matrices" / "affine_a1.json"
        code, out, err = run_main("realization", str(path))
        assert code == 1 and "Traceback" not in err
        report = json.loads(out)
        assert set(report) == {"command", "seed", "inputs_digest", "results"}
        assert set(report["results"]) == REALIZATION_KEYS
        assert report["results"]["verified"] is False

    def test_missing_file(self):
        code, out, err = run_main("realization", "/nonexistent/m.json")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: cannot read matrix file: [Errno 2] No such file or "
            "directory: '/nonexistent/m.json'"
        ]

    def test_non_square(self, tmp_path):
        path = tmp_path / "ns.json"
        path.write_text("[[1, 2]]")
        proc = run_cli("realization", str(path))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "text", ["[1]", "[null]", '["12", "34"]'], ids=["int", "null", "strings"]
    )
    def test_rows_must_be_arrays(self, tmp_path, text):
        # a string row must not be read as its characters, and an int or
        # null row must not end in a traceback
        path = tmp_path / "rows.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["realization", str(path)])
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().splitlines() == [
            "error: bad matrix input: each matrix row must be an array"
        ]

    def test_deep_nesting_is_input_error(self, tmp_path):
        # nesting deeper than the decoder's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_main("realization", str(path))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: bad matrix input: ")

    def test_json_booleans_are_not_scalars(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text("[[true, false], [false, true]]")
        code, out, err = run_main("realization", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: bad matrix input: cannot parse scalar True"
        ]


GOLDEN_MATRICES = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).parent / "golden" / "matrices").glob("*.json"))
]
MATRIX_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.none(),
    st.booleans(),
    st.sampled_from([1.5, "", "x", "1/0", "2", "-1", "0", "i", "1/2-i", [], ["2"], {}]),
)
MATRIX_ROWS = st.one_of(
    st.sampled_from(["12", "", 1, None, {}, {"0": "2"}, []]),
    st.lists(MATRIX_ENTRIES, max_size=5),
)
REALIZATION_KEYS = {"m", "rank", "gcm", "realization", "verified", "ym_quotient_bound"}


class TestRealizationFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_matrices_keep_exit_contract(self, data):
        # swap entries and rows for other types, make rows ragged, wrap the
        # matrix in a dict; the CLI must answer 0 or 1 with a full report,
        # or 2 with one error line, and never raise
        matrix = copy.deepcopy(data.draw(st.sampled_from(GOLDEN_MATRICES)))
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["entry", "row", "ragged", "drop"]))
            i = data.draw(st.integers(0, len(matrix) - 1)) if matrix else None
            if i is None:
                matrix.append(data.draw(MATRIX_ROWS))
            elif kind == "row":
                matrix[i] = data.draw(MATRIX_ROWS)
            elif kind == "drop":
                del matrix[i]
            elif not isinstance(matrix[i], list):
                continue
            elif kind == "ragged":
                matrix[i].append(data.draw(MATRIX_ENTRIES))
            elif matrix[i]:
                j = data.draw(st.integers(0, len(matrix[i]) - 1))
                matrix[i][j] = data.draw(MATRIX_ENTRIES)
        payload = data.draw(
            st.sampled_from(
                [matrix, {"matrix": matrix}, {"A": matrix}, {"rows": matrix}]
            )
        )
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "matrix.json"
            path.write_text(json.dumps(payload))
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["realization", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
        else:
            report = json.loads(out.getvalue())
            assert set(report) == {"command", "seed", "inputs_digest", "results"}
            assert set(report["results"]) == REALIZATION_KEYS
            assert report["results"]["verified"] is (code == 0)


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

    @pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
    def test_digest_is_sha256(self, monkeypatch, builtin):
        # the oracle is hashlib as this process loaded it; ``_digest`` sees a
        # recording stand-in, so each case shows which sha256 it used
        used = []

        def sha256(payload):
            used.append(payload)
            return hashlib.sha256(payload)

        monkeypatch.setitem(sys.modules, "hashlib", types.SimpleNamespace(sha256=sha256))
        if not builtin:
            monkeypatch.setitem(sys.modules, "_sha2", None)
            monkeypatch.setitem(sys.modules, "_sha256", None)
        payloads = [
            b"",
            json.dumps({"a": "é∂", "sl(2)": ["i", "-1/2"]}, ensure_ascii=False).encode(),
            (Path(__file__).parent / "golden" / "specs" / "yu_sl3.json").read_bytes(),
        ]
        for payload in payloads:
            assert _digest(payload) == hashlib.sha256(payload).hexdigest()
        assert used == ([] if builtin else payloads)
