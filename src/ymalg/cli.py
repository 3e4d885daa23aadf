"""Command-line front end: dimension tables, morphism verification, the
sl(2) case-study audit, generator-pair checks, and realization construction.

Output is a self-contained JSON report on stdout (byte-identical across
reruns with the same command and seed; timing goes to stderr for that
reason).  Exit codes: 0 = verified/clean, 1 = mathematical failure
(nonzero residual, audit violation), 2 = input error.

Each subcommand imports the library modules it runs when it runs, so a
process loads only those (``dims`` never loads ``targets``, ``realization``
never loads ``free_lie``).  No subcommand loads OpenSSL or ``decimal``:
``inputs_digest`` comes from the interpreter's builtin sha256, and scalars
parse and render on their ints without ``fractions``.

``pair`` elements are sums of ``target.element`` terms, ``dims`` tables are a
view of ``ym_graded_dims``, and a library ValueError or KeyError reaches
``main`` unwrapped, which prints it as one ``error:`` line with exit 2.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
import time


class CliInputError(ValueError):
    pass


# -- element and target parsing --------------------------------------------------

_SL_TARGET = re.compile(r"sl([0-9]+)|sl\(([0-9]+)\)")
# building sl(m) checks Jacobi on every basis triple, which grows like m^6
# (about 1 s for m = 12 on a 2-vCPU VM)
MAX_SL_SIZE = 12
# a custom algebra is checked the same way: no larger than sl(MAX_SL_SIZE)
MAX_CUSTOM_DIM = MAX_SL_SIZE**2 - 1
# each Witt window round costs about 2x the last (depth 12: 0.012 s, 2 vCPUs)
MAX_WINDOW_DEPTH = 12


def resolve_target(name: str):
    from .targets import WittTarget, heisenberg, sl_algebra

    m = _SL_TARGET.fullmatch(name.strip().lower())
    if m:
        size = int(m.group(1) or m.group(2))
        if not 2 <= size <= MAX_SL_SIZE:
            raise CliInputError(f"sl({size}) needs 2 <= size <= {MAX_SL_SIZE}")
        return sl_algebra(size)
    key = name.strip().lower()
    if key == "witt":
        return WittTarget(False)
    if key == "virasoro":
        return WittTarget(True)
    if key == "heisenberg":
        return heisenberg()
    raise CliInputError(
        f"unknown target {name!r}; expected sl(m), witt, virasoro or heisenberg"
    )


def _message(exc: Exception) -> str:
    """The text of an error; ``str(KeyError)`` would wrap it in quotes."""
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        return str(exc.args[0])
    return str(exc)


def parse_element(target, text: str):
    """Parse shortcuts like "e", "E12", "e_-2", and sums with optional
    scalar coefficients: "E12+E23", "i*h", "(1+2i)*e - f", each term through
    ``target.element``; braces and carets are dropped ("E^{12}" is E12)."""
    from .scalars import parse_scalar

    # argparse reads "--a=--" as an empty list of values
    s = text.replace(" ", "") if text else ""
    if not s:
        raise CliInputError("empty element expression")
    # split into signed terms at top-level + and -
    terms = []
    depth = 0
    start = 0
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > start and s[k - 1] != "_":
            # the sign in "e_-2" belongs to the Witt index
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    out = target.zero()
    for term in terms:
        negative = False
        while term and term[0] in "+-":
            negative ^= term[0] == "-"
            term = term[1:]
        if not term:
            raise CliInputError(f"malformed element expression {text!r}")
        coeff, name = term.split("*", 1) if "*" in term else ("1", term)
        if coeff.startswith("(") and coeff.endswith(")"):
            coeff = coeff[1:-1]
        c = parse_scalar(coeff)  # a bad scalar is reported before a bad label
        label = name.replace("^{", "").replace("}", "").replace("^", "")
        out += target.element({label: -c if negative else c})
    return out


def _read_input(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {what}: {exc}") from None


def morphism_from_json(data) -> GeneratorMorphism:
    """The morphism of a decoded spec {"n", "target", "images"}."""
    from .morphisms import GeneratorMorphism
    from .targets import algebra_from_json

    if not isinstance(data, dict) or "n" not in data or "images" not in data:
        raise CliInputError('morphism spec needs "n", "target" and "images"')
    n, images_spec = data["n"], data["images"]
    if type(n) is not int or n < 1:
        raise CliInputError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(images_spec, list):
        raise CliInputError(f'"images" must be a list, got {images_spec!r}')
    target_spec = data.get("target")
    if isinstance(target_spec, dict) and "custom" in target_spec:
        custom = target_spec["custom"]
        try:
            if isinstance(custom, str):
                custom = json.loads(custom)
            basis = custom.get("basis") if isinstance(custom, dict) else None
            if isinstance(basis, list) and len(basis) > MAX_CUSTOM_DIM:
                raise ValueError(f"{len(basis)} basis labels; at most {MAX_CUSTOM_DIM}")
            target = algebra_from_json(custom)
        except (RecursionError, ValueError) as exc:
            raise CliInputError(f"bad custom algebra: {exc}") from None
    elif isinstance(target_spec, str):
        target = resolve_target(target_spec)
    else:
        raise CliInputError(f"unknown target spec {target_spec!r}")
    if len(images_spec) != n:
        raise CliInputError(
            f"image arity mismatch: n = {n} but {len(images_spec)} images"
        )
    images = []
    for entry in images_spec:
        if not isinstance(entry, dict):
            raise CliInputError("each image must be a {basis-name: scalar} map")
        try:
            images.append(target.element(entry))
        except (KeyError, ValueError) as exc:
            raise CliInputError(f"bad image: {_message(exc)}") from None
    return GeneratorMorphism(n, target, images)


# -- report plumbing ---------------------------------------------------------------


def _digest(payload: bytes) -> str:
    # the interpreter's builtin sha256 first, as ``random`` takes its sha512:
    # hashlib loads OpenSSL's libcrypto, about 3 ms and 3.7 MB per process
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(payload).hexdigest()


def _args_digest(args, *names) -> str:
    """Digest of the named arguments, as sorted JSON."""
    payload = {name: getattr(args, name) for name in names}
    return _digest(json.dumps(payload, sort_keys=True).encode())


def _report(echo: str, seed, digest: str, results: dict) -> str:
    """The JSON report: rerunning the echoed command with the same seed
    reproduces it byte for byte, so timing goes to stderr instead."""
    payload = {
        "command": echo,
        "seed": seed,
        "inputs_digest": digest,
        "results": results,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


# -- subcommands --------------------------------------------------------------------


def _cmd_dims(args, echo):
    from .ym_quotient import dims_table, dims_table_csv

    if args.n < 1:
        raise CliInputError("need --n >= 1")
    rows = dims_table(args.n, args.max_degree, args.strong)
    if args.format == "csv":
        sys.stdout.write(dims_table_csv(rows))
        return None, 0
    digest = _args_digest(args, "n", "max_degree", "strong")
    results = {
        "n": args.n,
        "strong": args.strong,
        "table": rows,
        "ym_dims": [r["ym_dim"] for r in rows],
    }
    return _report(echo, None, digest, results), 0


def _morphism_report(args, echo, digest, phi, images, results, strong=False):
    """The report shared by verify and pair: ``results`` plus the relator
    residuals of ``phi`` and what ``images`` generate, as closure dimension
    and series for a finite target or window coverage for Witt/Virasoro.
    Exit code 1 when a residual is nonzero."""
    from .targets import StructureConstantAlgebra, analyze_image, generated_window

    if args.depth > MAX_WINDOW_DEPTH:
        raise CliInputError(f"--depth {args.depth} is above the cap {MAX_WINDOW_DEPTH}")
    residuals = phi.relation_residuals(strong)
    residuals_zero = all(r.is_zero for r in residuals)
    results["residuals_zero"] = residuals_zero
    results["residuals"] = [str(r) for r in residuals]
    if isinstance(phi.target, StructureConstantAlgebra):
        image = analyze_image(phi.target, images)
        results["image_dim"] = image.image_dim
        results["solvable"] = image.is_solvable
        results["nilpotent"] = image.is_nilpotent
        results["surjective"] = image.is_surjective
    else:
        window = generated_window(phi.target, images, args.depth, args.window)
        results["window"] = {
            "depth": window.depth,
            "window": window.window,
            "covered": list(window.covered),
            "covers_window": window.covers_window(),
            "central_covered": window.central_covered,
        }
    return _report(echo, None, digest, results), 0 if residuals_zero else 1


def _cmd_verify(args, echo):
    raw = _read_input(args.spec, "morphism spec")
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliInputError(f"malformed JSON in {args.spec}: {exc}") from None
    phi = morphism_from_json(data)
    results = {
        "n": phi.n,
        "strong": args.strong,
        # a Witt/Virasoro target leaves these null
        **dict.fromkeys(("image_dim", "solvable", "nilpotent", "surjective")),
    }
    return _morphism_report(
        args, echo, _digest(raw), phi, phi.images, results, args.strong
    )


def _cmd_case_study(args, echo):
    from .morphisms import case_oracle_mismatches, solvable_image_audit
    from .morphisms import solvable_non_nilpotent_example

    if args.samples < 1:
        raise CliInputError("need --samples >= 1")
    branches = (
        ("nilpotent", "semisimple") if args.branch == "both" else (args.branch,)
    )
    digest = _args_digest(args, "branch", "samples", "seed")
    mismatches = {
        branch: case_oracle_mismatches(args.samples, args.seed, branch)
        for branch in branches
    }
    audit = solvable_image_audit(args.samples, args.seed)
    example = audit.non_nilpotent_example
    results = {
        "samples": args.samples,
        "mismatches": mismatches,
        "mismatches_total": sum(mismatches.values()),
        "audit": {
            "candidates": audit.candidates,
            "residual_zero": audit.residual_zero,
            "non_residual_zero": audit.non_residual_zero,
            "solvable_violations": list(audit.solvable_violations),
        },
        "non_nilpotent_example": {
            "images": [str(x) for x in solvable_non_nilpotent_example().images],
            "residuals_zero": example.residuals_zero,
            "solvable": example.is_solvable,
            "nilpotent": example.is_nilpotent,
        },
    }
    clean = sum(mismatches.values()) == 0 and not audit.solvable_violations
    return _report(echo, args.seed, digest, results), 0 if clean else 1


def _cmd_pair(args, echo):
    from .morphisms import pair_to_ym4_morphism
    from .targets import WittTarget

    target = resolve_target(args.target)
    if isinstance(target, WittTarget):
        target = WittTarget(target.virasoro or args.virasoro)
        # an omitted generator takes its default; an empty one is an error
        a, b = (
            target.basis_element(default) if text is None
            else parse_element(target, text)
            for text, default in ((args.a, "e_-2"), (args.b, "e_3"))
        )
    elif args.virasoro:
        raise CliInputError("--virasoro only applies to the witt target")
    elif args.a is None or args.b is None:
        raise CliInputError("--a and --b are required for finite targets")
    else:
        a = parse_element(target, args.a)
        b = parse_element(target, args.b)
    digest = _args_digest(args, "target", "a", "b", "virasoro", "depth", "window")
    results = {"target": args.target, "a": str(a), "b": str(b)}
    return _morphism_report(
        args, echo, digest, pair_to_ym4_morphism(target, a, b), (a, b), results
    )


def _cmd_realization(args, echo):
    from .kac_moody import (
        MatrixData,
        build_realization,
        is_generalized_cartan,
        realization_to_json,
        verify_realization,
        ym_quotient_bound,
    )

    raw = _read_input(args.matrix, "matrix file")
    try:
        A = MatrixData.from_json(raw.decode())
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise CliInputError(f"bad matrix input: {exc}") from None
    gcm = is_generalized_cartan(A)
    realization = build_realization(A)
    verified = verify_realization(realization, A)
    results = {
        "m": A.m,
        "rank": A.rank,
        "gcm": {"ok": gcm.ok, "reason": gcm.reason},
        "realization": realization_to_json(realization),
        "verified": verified,
        "ym_quotient_bound": ym_quotient_bound(A),
    }
    return _report(echo, None, _digest(raw), results), 0 if verified else 1


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ymalg",
        description="Exact computations in Yang-Mills Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="graded dimension table of ym(n)")
    p.add_argument("--n", type=int, required=True, help="generator count")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--strong", action="store_true",
                   help="use the strong relations [x_i,[x_i,x_j]]")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="verify a generator-defined morphism")
    p.add_argument("spec", help="morphism spec JSON file")
    p.add_argument("--strong", action="store_true",
                   help="check the n^2 strong relations instead of the weak ones")
    p.add_argument("--depth", type=int, default=8,
                   help="bracket depth for Witt generation evidence")
    p.add_argument("--window", type=int, default=10,
                   help="index window for Witt generation evidence")

    p = sub.add_parser("case-study", help="sl(2) case analysis of ym(3)")
    p.add_argument("--branch", choices=("nilpotent", "semisimple", "both"),
                   default="both")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pair", help="two-generator quotient checks via ym(4)")
    p.add_argument("--target", required=True,
                   help="sl2, sl(m), witt, virasoro or heisenberg")
    p.add_argument("--a", help="first generator image (default e_-2 for witt)")
    p.add_argument("--b", help="second generator image (default e_3 for witt)")
    p.add_argument("--virasoro", action="store_true",
                   help="track the central cocycle (witt target)")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--window", type=int, default=10)

    p = sub.add_parser("realization", help="realization data of a square matrix")
    p.add_argument("matrix", help="JSON file: array of rows of scalar strings")

    return parser


_RUNNERS = {
    "dims": _cmd_dims,
    "verify": _cmd_verify,
    "case-study": _cmd_case_study,
    "pair": _cmd_pair,
    "realization": _cmd_realization,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    echo = "ymalg " + " ".join(shlex.quote(a) for a in argv)
    start = time.perf_counter()
    try:
        report, code = _RUNNERS[args.command](args, echo)
    except (ValueError, KeyError, OSError) as exc:
        # CliInputError, DegreeCapExceeded and malformed inputs all land here
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    elapsed = (time.perf_counter() - start) * 1000.0
    if report is not None:
        sys.stdout.write(report + "\n")
    print(f"elapsed_ms: {elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
