"""The traced pass: the workload's commands run in this process, with spans
recorded around the public calls into each ymalg module.

Nothing in ymalg changes.  ``Tracer.install`` replaces each traced function
in every ymalg module namespace that binds it (``bracket`` is bound in
``free_lie``, ``ym_quotient`` and ``morphisms``; ``witt_bracket`` in
``targets`` and ``morphisms``), and patches traced methods on their class,
so calls made through any of those names are seen.  ``uninstall`` puts the
originals back.

Spans live in memory as (name, parent, start_ns, end_ns, command) records
and are written out at the end.  A span's self time is its duration minus
the durations of its direct child spans.  Scalar operations are only
counted: at about 14 us per multiply, timing each call would blur them, so
their cost is measured by ``scalar_probe`` instead.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter, perf_counter_ns

YMALG_MODULES = (
    "ymalg",
    "ymalg.cli",
    "ymalg.free_lie",
    "ymalg.kac_moody",
    "ymalg.linalg",
    "ymalg.morphisms",
    "ymalg.scalars",
    "ymalg.targets",
    "ymalg.ym_quotient",
)

# (module, function) -> span name
FUNCTION_SPANS = {
    ("ymalg.cli", "main"): "cli.main",
    ("ymalg.ym_quotient", "_ideal_component"): "ym_quotient.ideal_component",
    ("ymalg.free_lie", "bracket"): "free_lie.bracket",
    ("ymalg.targets", "witt_bracket"): "targets.witt_bracket",
    ("ymalg.targets", "subalgebra_closure"): "targets.subalgebra_closure",
    ("ymalg.targets", "series_analysis"): "targets.series_analysis",
    ("ymalg.targets", "generated_window"): "targets.generated_window",
    ("ymalg.morphisms", "case_oracle_mismatches"): "morphisms.case_oracle",
    ("ymalg.morphisms", "solvable_image_audit"): "morphisms.audit",
    ("ymalg.kac_moody", "build_realization"): "kac_moody.build_realization",
    ("ymalg.kac_moody", "verify_realization"): "kac_moody.verify_realization",
}

# (module, class, method) -> span name
METHOD_SPANS = {
    ("ymalg.linalg", "Echelon", "insert"): "linalg.insert",
    ("ymalg.linalg", "Echelon", "contains"): "linalg.contains",
    ("ymalg.linalg", "Echelon", "rref"): "linalg.rref",
    ("ymalg.targets", "StructureConstantAlgebra", "bracket"): "targets.bracket",
    ("ymalg.morphisms", "GeneratorMorphism", "evaluate"): "morphisms.evaluate",
}

SPAN_NAMES = tuple(FUNCTION_SPANS.values()) + tuple(METHOD_SPANS.values())

# GaussianRational operator -> counter
SCALAR_OPS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "add",
    "__rsub__": "add",
    "__truediv__": "div",
    "__rtruediv__": "div",
}

# ym(2) to degree 10 is the deepest closure command
DEGREES = tuple(range(3, 11))


def per_layer_metric_names() -> list:
    """Every per-layer metric a traced run prints, in order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
    names += [f"ym_quotient.degree.{d}.s" for d in DEGREES]
    names += [
        "ym_quotient.rows_tried",
        "ym_quotient.rows_accepted_ratio",
        "linalg.insert.accepted_ratio",
        "free_lie.bracket_cache.entries",
        "scalars.mul.calls",
        "scalars.add.calls",
        "scalars.div.calls",
        "scalars.mul_ns",
        "scalars.add_ns",
        "morphisms.audit.candidates",
        "targets.window.span_dim",
        "trace.spans",
        "trace.overhead_s",
    ]
    return names


def load_ymalg(src: str) -> dict:
    """Import ymalg from ``src`` without writing bytecode; module name -> module."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(name) for name in YMALG_MODULES}
    if not mods["ymalg"].__file__.startswith(src):
        raise RuntimeError(f"imported ymalg from {mods['ymalg'].__file__}, not {src}")
    return mods


class Caches:
    """The library's process-wide caches, captured before any wrapping."""

    def __init__(self, mods: dict):
        yq, tg = mods["ymalg.ym_quotient"], mods["ymalg.targets"]
        self._free_lie = mods["ymalg.free_lie"]
        self._lru = (yq.ym_relations, yq._ideal_component, tg.sl_algebra, tg.heisenberg)

    def clear(self) -> None:
        """Make the next command pay what a fresh process pays."""
        self._free_lie.clear_caches()
        for fn in self._lru:
            fn.cache_clear()

    def bracket_cache_entries(self) -> int:
        return len(self._free_lie._bracket_cache)


def run_command(cli_module, argv) -> tuple:
    """Run ``ymalg <argv>`` in this process; (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_module.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode()


def run_pass(mods: dict, caches: Caches, commands, after=None) -> tuple:
    """Run every command once in this process; (wall seconds, outputs)."""
    cli = mods["ymalg.cli"]
    outputs = []
    start = perf_counter()
    for k, cmd in enumerate(commands):
        caches.clear()
        outputs.append(run_command(cli, cmd.argv))
        if after is not None:
            after(k)
    return perf_counter() - start, outputs


class Tracer:
    def __init__(self, mods: dict):
        self.mods = mods
        self.spans: list = []
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self.command = -1
        self.counts: dict = defaultdict(int)
        self.rows: dict = defaultdict(lambda: [0, 0])  # degree -> [tried, accepted]
        self._restore: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[name] += 1
            outer = active[name] == 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, parent, t0, t1, self.command, outer)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _degree_span(self, fn):
        counts = self.counts

        def wrapper(pres, d, *args, **kwargs):
            tried, ok = counts["insert"], counts["insert_ok"]
            result = self._span(f"ym_quotient.degree.{d}", fn)(pres, d, *args, **kwargs)
            row = self.rows[d]
            row[0] += counts["insert"] - tried
            row[1] += counts["insert_ok"] - ok
            return result

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _observe_insert(self, accepted):
        self.counts["insert"] += 1
        self.counts["insert_ok"] += bool(accepted)

    def _observe_audit(self, report):
        self.counts["audit_candidates"] += report.candidates

    def _observe_window(self, report):
        self.counts["span_dim"] += report.span_dim

    # -- install / uninstall ------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every ymalg namespace that binds ``original`` at ``wrapper``."""
        for mod in self.mods.values():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch(self, cls, attr, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        observers = {
            "morphisms.audit": self._observe_audit,
            "targets.generated_window": self._observe_window,
            "linalg.insert": self._observe_insert,
        }
        for (modname, attr), name in FUNCTION_SPANS.items():
            fn = getattr(self.mods[modname], attr)
            self._rebind(fn, self._span(name, fn, observers.get(name)))
        for (modname, clsname, attr), name in METHOD_SPANS.items():
            cls = getattr(self.mods[modname], clsname)
            fn = cls.__dict__[attr]
            self._patch(cls, attr, self._span(name, fn, observers.get(name)))
        yq = self.mods["ymalg.ym_quotient"]
        fn = yq.ideal_graded_component
        self._rebind(fn, self._degree_span(fn))
        scalar = self.mods["ymalg.scalars"].GaussianRational
        for attr, key in SCALAR_OPS.items():
            self._patch(scalar, attr, self._count(key, scalar.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict:
        """span name -> [calls, total ns, self ns].  Total time counts only
        the outermost span of a name, so recursion is not counted twice."""
        child = [0] * len(self.spans)
        for name, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: dict = defaultdict(lambda: [0, 0, 0])
        for idx, (name, _, t0, t1, _, outer) in enumerate(self.spans):
            agg = totals[name]
            agg[0] += 1
            if outer:
                agg[1] += t1 - t0
            agg[2] += t1 - t0 - child[idx]
        return totals

    def metrics(self) -> dict:
        totals = self.span_totals()
        out = {}
        for name in SPAN_NAMES:
            calls, total, self_ns = totals.get(name, (0, 0, 0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (total / 1e9, "s")
            out[f"{name}.self_s"] = (self_ns / 1e9, "s")
        for d in DEGREES:
            total = totals.get(f"ym_quotient.degree.{d}", (0, 0, 0))[1]
            out[f"ym_quotient.degree.{d}.s"] = (total / 1e9, "s")
        tried = sum(r[0] for r in self.rows.values())
        accepted = sum(r[1] for r in self.rows.values())
        c = self.counts
        out["ym_quotient.rows_tried"] = (tried, "count")
        out["ym_quotient.rows_accepted_ratio"] = (_ratio(accepted, tried), "ratio")
        out["linalg.insert.accepted_ratio"] = (_ratio(c["insert_ok"], c["insert"]), "ratio")
        out["free_lie.bracket_cache.entries"] = (c["bracket_cache_max"], "count")
        for key in ("mul", "add", "div"):
            out[f"scalars.{key}.calls"] = (c[key], "count")
        out["morphisms.audit.candidates"] = (c["audit_candidates"], "count")
        out["targets.window.span_dim"] = (c["span_dim"], "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def dump(self, path: str, commands) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "commands": [" ".join(c.argv) for c in commands],
                    "names": names,
                    "fields": ["name", "parent", "start_ns", "end_ns", "command"],
                    "spans": [
                        [ids[n], p, t0, t1, cmd] for n, p, t0, t1, cmd, _ in self.spans
                    ],
                    "rows_per_degree": {
                        str(d): {"tried": r[0], "accepted": r[1]}
                        for d, r in sorted(self.rows.items())
                    },
                },
                fh,
                separators=(",", ":"),
            )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def traced_run(mods: dict, commands) -> dict:
    """One untraced and one traced pass in this process.

    Returns the tracer, both outputs per command and both wall times; the
    difference of the wall times is the tracing overhead."""
    caches = Caches(mods)
    untraced_s, reference = run_pass(mods, caches, commands)
    tracer = Tracer(mods)
    tracer.install()

    def after(k):
        tracer.counts["bracket_cache_max"] = max(
            tracer.counts["bracket_cache_max"], caches.bracket_cache_entries()
        )
        tracer.command = k + 1

    tracer.command = 0
    try:
        traced_s, outputs = run_pass(mods, caches, commands, after)
    finally:
        tracer.uninstall()
        caches.clear()
    return {
        "tracer": tracer,
        "reference": reference,
        "outputs": outputs,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }


def scalar_probe(mods: dict, seed: int, count: int = 2000, repeats: int = 7) -> dict:
    """Median ns per GaussianRational multiply and add on seeded operands
    shaped like the audit's sampler: parts a/b with |a| <= 3, b in {1, 2}."""
    GR = mods["ymalg.scalars"].GaussianRational
    rng = random.Random(f"scalars:{seed}")

    def draw():
        def part():
            return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))

        return GR(part(), part())

    pairs = [(draw(), draw()) for _ in range(count)]
    out = {}
    for key, op in (("mul_ns", lambda a, b: a * b), ("add_ns", lambda a, b: a + b)):
        times = []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for a, b in pairs:
                op(a, b)
            times.append((perf_counter_ns() - t0) / count)
        out[f"scalars.{key}"] = (statistics.median(times), "ns")
    return out
