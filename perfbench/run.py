"""Benchmark of the ymalg CLI.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0

One client runs the workload's commands one after another (a closed loop),
each in a fresh interpreter, as a CLI user pays them.  With ``--trace 0``
it repeats the whole command list while another pass fits in ``--seconds``
and prints the end-to-end metrics.  Every time among them is scaled to the
speed of a fixed reference computation sampled around each slice of each
command (see reference.py), because the shared host's speed drifts.  With
``--trace 1`` it runs the same commands once untraced and once traced
inside this process, and prints the per-layer metrics.  Every output is checked (see oracles.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

``--workload all`` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import reference
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 11
SLICE_S = 0.25  # longest a command runs between two reference samples
HARD_LIMIT_S = 170.0  # every run must end within 180 s

# the console-script entry point, ymalg = ymalg.cli:main
CLI_ENTRY = "import sys; from ymalg.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import ymalg.cli\n"
    "ymalg.cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "import json\n"
    "print(json.dumps({'setup_s': t, 'file': ymalg.cli.__file__,"
    " 'dont_write_bytecode': sys.flags.dont_write_bytecode}))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup() -> tuple:
    """Import ymalg.cli and build its parser in a fresh child, timed inside
    the child."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SETUP_PROBE],
        capture_output=True, env=_child_env(), cwd=ROOT, timeout=10,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing ymalg failed:\n{proc.stderr.decode()}")
    info = json.loads(proc.stdout)
    if not info["file"].startswith(SRC):
        raise RuntimeError(f"child imported ymalg from {info['file']}, not {SRC}")
    return info["setup_s"], info["dont_write_bytecode"]


def run_sliced(argv, env, gauge, workdir: str, hard_deadline: float) -> tuple:
    """Run one command, stopping it every SLICE_S seconds of its run while
    the gauge samples the reference, so that the reference samples the host
    during long commands too.  Returns (exit code, or None on timeout;
    stdout; wall seconds while running)."""
    with tempfile.TemporaryFile(dir=workdir) as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        # a pidfd wakes the wait the moment the child exits; Popen.wait
        # with a timeout would poll, in steps of up to 50 ms
        pidfd = os.pidfd_open(proc.pid)
        exited = select.poll()
        exited.register(pidfd, select.POLLIN)
        wall = 0.0
        try:
            while True:
                t0 = time.perf_counter()
                timeout = min(SLICE_S, max(0.0, hard_deadline - t0))
                done = bool(exited.poll(timeout * 1000))
                if not done:
                    proc.send_signal(signal.SIGSTOP)
                seg = time.perf_counter() - t0
                wall += seg
                gauge.tick(seg)
                if done:
                    break
                if time.perf_counter() >= hard_deadline:
                    return None, b"", wall
                proc.send_signal(signal.SIGCONT)
        finally:
            os.close(pidfd)
            if proc.poll() is None:
                proc.kill()  # SIGKILL ends a stopped child too
                proc.wait()
        out.seek(0)
        return proc.returncode, out.read(), wall


def end_to_end(commands, seconds: int, hard_deadline: float, workdir: str) -> dict:
    """Times set-up, then passes over the command list.  Every time is
    scaled by the run's reference factor (see reference.Gauge)."""
    gauge = reference.Gauge()
    setups, flags = [], set()
    for _ in range(SETUP_REPEATS):
        gauge.tick()
        setup_s, flag = measure_setup()
        setups.append(setup_s)
        flags.add(flag)
    env = _child_env()
    pass_walls, results = [], []
    job_times = [[] for _ in commands]  # per command, one time per pass
    deadline = time.perf_counter() + seconds
    timed_out = False
    while not timed_out:
        start = time.perf_counter()
        for cmd, times in zip(commands, job_times):
            code, stdout, wall = run_sliced(
                [sys.executable, "-B", "-c", CLI_ENTRY, *cmd.argv],
                env, gauge, workdir, hard_deadline)
            times.append(wall)
            if code is None:
                results.append((cmd, None, b""))
                timed_out = True
                break
            results.append((cmd, code, stdout))
        else:
            pass_walls.append(sum(times[-1] for times in job_times))
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    failed, reasons = _check(results)
    attempted = len(results)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    # each command's median over the passes, so one slow pass cannot set
    # a percentile on its own
    jobs = [statistics.median(t) for t in job_times if t]
    raw_setup = statistics.median(setups)
    # with no whole pass (a timeout), the commands that ran stand in
    raw_wall = statistics.median(pass_walls) if pass_walls else sum(jobs)
    f = gauge.factor()
    metrics = {
        "setup_s": (raw_setup * f, "s"),
        "wall_s": (raw_wall * f, "s"),
        "job_p50_s": (_percentile(jobs, 50) * f, "s"),
        "job_p90_s": (_percentile(jobs, 90) * f, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    info = {
        "passes": len(pass_walls),
        "commands_per_pass": len(commands),
        "job_samples": len(jobs),
        "setup_samples": len(setups),
        "child_dont_write_bytecode": flags.pop() if len(flags) == 1 else None,
        "timed_out": timed_out,
        # the unscaled times and the reference's mean seconds per unit
        "raw_setup_s": raw_setup,
        "raw_wall_s": raw_wall,
        "reference_unit_s": gauge.unit_s(),
        "reference_s": gauge.seconds,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "reasons": reasons, "info": info}


def traced(commands, workload: str, seed: int) -> dict:
    mods = tracing.load_ymalg(SRC)
    metrics = tracing.scalar_probe(mods, seed)
    run = tracing.traced_run(mods, commands)
    tracer = run["tracer"]
    metrics.update(tracer.metrics())
    metrics["trace.overhead_s"] = (run["traced_s"] - run["untraced_s"], "s")
    results = [
        (cmd, *ref) if out == ref else (cmd, "traced stdout differs from untraced", b"")
        for cmd, ref, out in zip(commands, run["reference"], run["outputs"])
    ]
    failed, reasons = _check(results)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    tracer.dump(trace_path, commands)
    info = {
        "untraced_s": run["untraced_s"],
        "traced_s": run["traced_s"],
        "spans_file": os.path.relpath(trace_path, ROOT),
    }
    names = tracing.per_layer_metric_names()
    return {"metrics": {k: metrics[k] for k in names}, "attempted": len(commands),
            "failed": failed, "reasons": reasons, "info": info}


def _check(results) -> tuple:
    """(failed count, reasons) over (command, exit code, stdout) results; a
    string in place of the exit code is a failure found before the check."""
    reasons = []
    for cmd, code, stdout in results:
        if isinstance(code, str):
            reason = code
        elif code is None:
            reason = "timed out"
        else:
            reason = cmd.check(code, stdout)
        if reason is not None:
            reasons.append(f"{' '.join(cmd.argv)}: {reason}")
    return len(reasons), reasons


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        commands = workloads.build(name, seed, os.path.relpath(workdir, ROOT))
        if trace:
            return traced(commands, name, seed)
        return end_to_end(commands, seconds, hard_deadline, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def header(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "ymalg_pycache_present": os.path.isdir(os.path.join(SRC, "ymalg", "__pycache__")),
    }


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child, and through the cleanup of the input directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "ymalg", "cli.py")):
        print(f"error: no ymalg sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    print("header: " + json.dumps(header(args)), flush=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: " + json.dumps(res["info"]), flush=True)
        for reason in res["reasons"][:10]:
            print(f"{name}: FAILED {reason}", file=sys.stderr)
        for key, (value, unit) in res["metrics"].items():
            print(f"{name:12s} {key:40s} {value:14.6g} {unit}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = (value, unit)
        correct = correct and res["failed"] == 0
        attempted += res["attempted"]
        failed += res["failed"]
    print(_result_line(correct, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
