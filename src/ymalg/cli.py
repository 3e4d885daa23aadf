"""Command-line front end: dimension tables, morphism verification, the
sl(2) case-study audit, generator-pair checks, and realization construction.

Output is a self-contained JSON report on stdout (byte-identical across
reruns with the same command and seed; timing goes to stderr for that
reason).  Exit codes: 0 = verified/clean, 1 = mathematical failure
(nonzero residual, audit violation), 2 = input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shlex
import sys
import time

from .kac_moody import (
    MatrixData,
    build_realization,
    is_generalized_cartan,
    realization_to_json,
    verify_realization,
    ym_quotient_bound,
)
from .morphisms import (
    GeneratorMorphism,
    case_oracle_mismatches,
    pair_to_ym4_morphism,
    solvable_image_audit,
)
from .scalars import parse_scalar
from .targets import (
    StructureConstantAlgebra,
    WittTarget,
    algebra_from_json,
    analyze_image,
    generated_window,
    heisenberg,
    sl_algebra,
)
from .ym_quotient import dims_table, dims_table_csv


class CliInputError(ValueError):
    pass


# -- element and target parsing --------------------------------------------------

_SL_TARGET = re.compile(r"^sl\(?(\d+)\)?$")
# building sl(m) checks Jacobi on every basis triple, which grows like m^6
# (about 2 s for m = 12 on a 2-vCPU VM)
MAX_SL_SIZE = 12


def resolve_target(name: str):
    m = _SL_TARGET.match(name.strip().lower())
    if m:
        size = int(m.group(1))
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


def _basis_by_name(target, name: str):
    label = name.replace("^{", "").replace("}", "").replace("^", "")
    try:
        return target.basis_element(label)
    except KeyError as exc:
        raise CliInputError(_message(exc)) from None


def parse_element(target, text: str):
    """Parse shortcuts like "e", "E12", "e_-2", and sums with optional
    scalar coefficients: "E12+E23", "i*h", "(1+2i)*e - f"."""
    s = text.replace(" ", "")
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
    out = None
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise CliInputError(f"malformed element expression {text!r}")
        if "*" in term:
            coeff_str, name = term.split("*", 1)
            if coeff_str.startswith("(") and coeff_str.endswith(")"):
                coeff_str = coeff_str[1:-1]
            try:
                coeff = parse_scalar(coeff_str)
            except ValueError as exc:
                raise CliInputError(str(exc)) from None
        else:
            coeff, name = parse_scalar("1"), term
        elem = _basis_by_name(target, name) * (coeff * sign)
        out = elem if out is None else out + elem
    return out


def load_morphism_spec(path: str) -> GeneratorMorphism:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read morphism spec: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "images" not in data:
        raise CliInputError('morphism spec needs "n", "target" and "images"')
    n, images_spec = data["n"], data["images"]
    if type(n) is not int or n < 1:
        raise CliInputError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(images_spec, list):
        raise CliInputError(f'"images" must be a list, got {images_spec!r}')
    target_spec = data.get("target")
    if isinstance(target_spec, dict) and "custom" in target_spec:
        try:
            target = algebra_from_json(target_spec["custom"])
        except ValueError as exc:
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
    try:
        return GeneratorMorphism(n, target, images)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


# -- report plumbing ---------------------------------------------------------------


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


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
    if args.n < 1:
        raise CliInputError("need --n >= 1")
    rows = dims_table(args.n, args.max_degree, args.strong)
    if args.format == "csv":
        sys.stdout.write(dims_table_csv(rows))
        return None, 0
    digest = _digest(
        json.dumps(
            {"n": args.n, "max_degree": args.max_degree, "strong": args.strong},
            sort_keys=True,
        ).encode()
    )
    results = {
        "n": args.n,
        "strong": args.strong,
        "table": rows,
        "ym_dims": [r["ym_dim"] for r in rows],
    }
    return _report(echo, None, digest, results), 0


def _image_results(target, images, args) -> dict:
    """Image report shared by verify and pair: closure dimension and series
    for finite targets, window coverage for Witt/Virasoro."""
    if isinstance(target, StructureConstantAlgebra):
        image = analyze_image(target, images)
        return {
            "image_dim": image.image_dim,
            "solvable": image.is_solvable,
            "nilpotent": image.is_nilpotent,
            "surjective": image.is_surjective,
        }
    window = generated_window(target, images, depth=args.depth, window=args.window)
    return {
        "window": {
            "depth": window.depth,
            "window": window.window,
            "covered": list(window.covered),
            "covers_window": window.covers_window(),
            "central_covered": window.central_covered,
        }
    }


def _cmd_verify(args, echo):
    with open(args.spec, "rb") as fh:
        digest = _digest(fh.read())
    phi = load_morphism_spec(args.spec)
    residuals = phi.relation_residuals(strong=args.strong)
    residuals_zero = all(r.is_zero for r in residuals)
    results = {
        "n": phi.n,
        "strong": args.strong,
        "residuals_zero": residuals_zero,
        "residuals": [str(r) for r in residuals],
        "image_dim": None,
        "solvable": None,
        "nilpotent": None,
        "surjective": None,
    }
    results.update(_image_results(phi.target, phi.images, args))
    return _report(echo, None, digest, results), 0 if residuals_zero else 1


def _cmd_case_study(args, echo):
    if args.samples < 1:
        raise CliInputError("need --samples >= 1")
    branches = (
        ("nilpotent", "semisimple") if args.branch == "both" else (args.branch,)
    )
    digest = _digest(
        json.dumps(
            {"branch": args.branch, "samples": args.samples, "seed": args.seed},
            sort_keys=True,
        ).encode()
    )
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
            "images": ["h", "e", "i*h"],
            "residuals_zero": example.residuals_zero,
            "solvable": example.is_solvable,
            "nilpotent": example.is_nilpotent,
        },
    }
    clean = sum(mismatches.values()) == 0 and not audit.solvable_violations
    return _report(echo, args.seed, digest, results), 0 if clean else 1


def _cmd_pair(args, echo):
    target = resolve_target(args.target)
    if isinstance(target, WittTarget):
        target = WittTarget(target.virasoro or args.virasoro)
        a = parse_element(target, args.a) if args.a else target.basis_element("e_-2")
        b = parse_element(target, args.b) if args.b else target.basis_element("e_3")
    elif args.virasoro:
        raise CliInputError("--virasoro only applies to the witt target")
    elif not args.a or not args.b:
        raise CliInputError("--a and --b are required for finite targets")
    else:
        a = parse_element(target, args.a)
        b = parse_element(target, args.b)
    phi = pair_to_ym4_morphism(target, a, b)
    residuals = phi.relation_residuals()
    residuals_zero = all(r.is_zero for r in residuals)
    digest = _digest(
        json.dumps(
            {"target": args.target, "a": args.a, "b": args.b,
             "virasoro": args.virasoro, "depth": args.depth,
             "window": args.window},
            sort_keys=True,
        ).encode()
    )
    results = {
        "target": args.target,
        "a": str(a),
        "b": str(b),
        "residuals_zero": residuals_zero,
        "residuals": [str(r) for r in residuals],
    }
    results.update(_image_results(target, (a, b), args))
    return _report(echo, None, digest, results), 0 if residuals_zero else 1


def _cmd_realization(args, echo):
    try:
        with open(args.matrix, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read matrix file: {exc}") from None
    try:
        A = MatrixData.from_json(raw.decode())
    except (ValueError, UnicodeDecodeError) as exc:
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
