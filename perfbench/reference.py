"""A fixed pure-Python reference computation that gauges the host's speed.

The benchmark runs on a shared host whose speed drifts: the same command
can take 30 % longer from one minute to the next, in CPU time as well as in
wall time.  So run.py runs short pieces of this reference work in its
own process, between set-up children and between slices of every command,
and scales the run's times by how fast the reference ran (see ``Gauge``).

The reference resembles the CLI's work: exact ``Fraction`` elimination,
tuple-keyed dict updates and compiling Python source.  It imports nothing
from ``ymalg``, so a change to the library cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds one ``unit()`` takes at the reference speed.  A fixed constant:
# scaled times read as seconds on a host that runs the unit this fast.  It
# is the typical figure on the shared 2-vCPU VM (Python 3.11) the benchmark
# was tuned on, so there scaled times stay close to raw ones.
UNIT_S = 0.0027

_SOURCE = "\n".join(
    f"def f{i}(x, y):\n    z = {{(x, {i}): y * {i} + 1}}\n    return [v - x for v in z.values()]\n"
    for i in range(12)
)


def unit() -> int:
    """One fixed piece of reference work; returns a checksum."""
    n = 7
    rows = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 2) for j in range(n)]
            for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    table = {}
    for k in range(1500):
        key = ((k * 31) % 97, k % 5)
        table[key] = table.get(key, 0) + k
    code = compile(_SOURCE, "<reference>", "exec")
    return rank + len(table) + len(code.co_consts)


def sample(target_s: float) -> tuple:
    """Run whole units for about ``target_s`` seconds; return (seconds,
    units)."""
    units = 0
    start = time.perf_counter()
    while True:
        unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= target_s:
            return elapsed, units


class Gauge:
    """Gauges the host's speed over a run, to scale the run's times by.

    ``tick(job_s)`` runs the reference for a fifth of the time the last
    timed job took.  Ticked between short timed jobs, the reference samples
    the host evenly over the run.  ``factor()`` is ``UNIT_S`` divided by the
    reference's mean seconds per unit over all ticks, so on a host running
    the reference 20 % slow the factor shrinks the run's times by the same
    20 %.  One factor per run: single samples are as noisy as the jobs they
    sit between, and only their mean tracks the host.
    """

    SHARE = 0.2
    MIN_S = 0.03

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    def tick(self, job_s: float = 0.0) -> None:
        seconds, units = sample(max(self.MIN_S, self.SHARE * job_s))
        self.seconds += seconds
        self.units += units

    def unit_s(self) -> float:
        return self.seconds / self.units

    def factor(self) -> float:
        return UNIT_S / self.unit_s()
