"""Shared machinery of the benchmark: ops, the machine-speed probe, the
closed-loop runners and the statistics the metrics are made of.

A workload round is: build the stack (timed as set-up), run a warm-up
stream, ``gc.collect()``, run the timed stream, check the outputs.  The
timed stream is a fixed list of :class:`Op`; only its order and keys
come from the seed, so every round attempts the same number of ops of
each class.
"""

from __future__ import annotations

import gc
import statistics
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

#: Op classes.  ``atomic`` ops are the known-failing atomicity probes of
#: ``passive_sql``; they are attempted and counted, but kept out of the
#: latency metrics.
READ, SCAN, WRITE, ATOMIC = "read", "scan", "write", "atomic"

#: Iterations of the machine-speed probe loop (0.6-0.7 ms on a 2-vCPU
#: Xeon under Python 3.11).
PROBE_LOOPS = 4000

#: Reference probe time.  End-to-end times are reported as
#: ``raw * PROBE_REF_S / median(probe)``: the time the op would take on a
#: machine where the probe takes exactly this long.
PROBE_REF_S = 0.0004

#: Ops between two probes in the timed phase.
PROBE_EVERY = 25


@dataclass
class Op:
    """One client command of a stream."""

    kind: str
    sql: str
    #: which connection/session issues it (0 for single-client workloads)
    target: int = 0
    #: workload-specific payload for the output checks
    meta: object = None
    #: the op's sub-class within ``kind`` (insert, join, ...)
    label: str = ""


@dataclass
class RoundLog:
    """What one timed phase recorded."""

    ops: list
    latencies: list = field(default_factory=list)
    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    busy_s: float = 0.0


def probe() -> float:
    """Time a fixed pure-Python loop: a reading of the machine's speed."""
    start = time.perf_counter()
    acc = 0
    slots = {}
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
        slots[i & 63] = acc
    return time.perf_counter() - start


def run_sync(ops, execute) -> RoundLog:
    """Drive ``ops`` one at a time from this thread (closed loop, one
    client).  ``execute(op)`` returns the op's result; an exception is
    recorded as the op's error.  A probe runs every PROBE_EVERY ops and
    is kept out of the busy time."""
    log = RoundLog(ops=ops)
    clock = time.perf_counter
    latencies = log.latencies
    results = log.results
    errors = log.errors
    probes = log.probes
    gc.collect()
    start = clock()
    for index, op in enumerate(ops):
        if index % PROBE_EVERY == 0:
            probes.append(probe())
        t0 = clock()
        try:
            result = execute(op)
            error = None
        except Exception as exc:  # the op failed; the checks judge it
            result = None
            error = exc
        latencies.append(clock() - t0)
        results.append(result)
        errors.append(error)
    log.busy_s = clock() - start - sum(probes)
    return log


def run_pooled(ops, submit, sessions: int, quiesce) -> RoundLog:
    """Drive ``ops`` from this one load thread into ``sessions`` sessions,
    keeping one command in flight per session (a closed loop per
    session).  ``submit(op)`` returns a Future.  Latency runs from the
    submit to the moment the load thread sees the Future done, as a
    client would.  Every PROBE_EVERY ops the loop drains, calls
    ``quiesce()`` to wait for the program's background work, and runs
    the probe, so the probe competes with no program thread.  The
    quiesce waits, and a last one after the final block, stay in the
    busy time: all the program's work is counted there."""
    n = len(ops)
    log = RoundLog(ops=ops, latencies=[0.0] * n, results=[None] * n,
                   errors=[None] * n)
    clock = time.perf_counter
    queues = [[i for i, op in enumerate(ops) if op.target == s]
              for s in range(sessions)]
    cursor = [0] * sessions
    submitted_at = [0.0] * n
    issued = 0

    def launch(session, pending):
        nonlocal issued
        if cursor[session] >= len(queues[session]):
            return
        index = queues[session][cursor[session]]
        cursor[session] += 1
        issued += 1
        submitted_at[index] = clock()
        pending[submit(ops[index])] = (session, index)

    gc.collect()
    start = clock()
    while issued < n:
        quiesce()
        log.probes.append(probe())
        block_end = issued + PROBE_EVERY
        pending = {}
        for session in range(sessions):
            if issued < block_end:
                launch(session, pending)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            seen = clock()
            for future in done:
                session, index = pending.pop(future)
                log.latencies[index] = seen - submitted_at[index]
                try:
                    log.results[index] = future.result()
                except Exception as exc:  # the checks judge it
                    log.errors[index] = exc
                if issued < block_end:
                    launch(session, pending)
    quiesce()
    log.busy_s = clock() - start - sum(log.probes)
    return log


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The q-quantile (0..1) of ``values`` by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)



class Workload:
    """One workload round: a fresh stack, its op streams and its checks.

    Subclasses generate ``warmup`` and ``timed`` op lists in
    ``__init__`` (from ``rng`` only, before any timing), build the stack
    in :meth:`setup`, run an op in :meth:`execute` (or :meth:`submit`
    when ``sessions > 1``) and judge the round in :meth:`check`.
    """

    name = ""
    #: sessions fed by one load thread; 1 = a synchronous single client
    sessions = 1

    def __init__(self, rng):
        self.rng = rng
        self.warmup: list[Op] = []
        self.timed: list[Op] = []

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def submit(self, op: Op):
        raise NotImplementedError

    def quiesce(self) -> None:
        """Wait until the program's background work (DETACHED action
        threads) has ended."""

    def check(self, warm: RoundLog, log: RoundLog) -> list[str]:
        """Output errors of the round (empty when correct)."""
        raise NotImplementedError

    def failed_ops(self, log: RoundLog) -> int:
        """Timed ops that failed (only the atomicity probes may)."""
        return 0

    def servers(self) -> list:
        """The SQL servers of the stack (per-layer counters)."""
        raise NotImplementedError

    def ged(self):
        """The ShardedGed of the stack, if it has one."""
        return None

    def close(self) -> None:
        raise NotImplementedError


def check_against_model(*logs) -> list[str]:
    """Errors of ops that raised, and of reads and scans whose rows
    differ from the rows the workload's model put in ``op.meta``."""
    errors = []
    for log in logs:
        for op, result, error in zip(log.ops, log.results, log.errors):
            if error is not None:
                errors.append(f"{op.sql}: {error!r}")
            elif op.kind in (READ, SCAN):
                rows = result.result_sets[0].rows
                if not rows_equal(rows, op.meta):
                    errors.append(f"{op.sql}: got {rows[:3]}, "
                                  f"the model says {op.meta[:3]}")
    return errors


def rows_equal(actual, expected, ordered: bool = False) -> bool:
    """Compare result rows; floats agree to 1e-9 relative."""
    actual = [tuple(row) for row in actual]
    expected = [tuple(row) for row in expected]
    if len(actual) != len(expected):
        return False
    if not ordered:
        actual = sorted(actual, key=_sort_key)
        expected = sorted(expected, key=_sort_key)
    return all(_row_equal(a, e) for a, e in zip(actual, expected))


def _sort_key(row):
    """Order rows of mixed NULL/str/number cells without comparing
    across types; floats are rounded so near-equal sums sort alike."""
    return tuple((value is None, isinstance(value, str),
                  round(value, 6) if isinstance(value, float) else value)
                 for value in row)


def _row_equal(a, e) -> bool:
    if len(a) != len(e):
        return False
    for x, y in zip(a, e):
        if isinstance(x, float) or isinstance(y, float):
            if x is None or y is None:
                return False
            if abs(float(x) - float(y)) > 1e-9 * max(1.0, abs(float(y))):
                return False
        elif x != y:
            return False
    return True


def strata(rng, low: int, high: int, count: int) -> list[int]:
    """``count`` values spread evenly over [low, high), shuffled: the
    seed picks their order, not their distribution, so a scan's cost
    profile is the same in every round."""
    values = [low + (high - low) * i // count for i in range(count)]
    rng.shuffle(values)
    return values


def balanced_kinds(rng, counts: dict, live: int, grow: str, shrink: str):
    """A shuffled op-kind list with the given counts, re-ordered so a
    ``shrink`` op never runs while fewer than one row is live.  ``live``
    is the live-row count before the first op."""
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        if kind == grow:
            live += 1
        elif kind == shrink:
            if live == 0:
                j = kinds.index(grow, i + 1)
                kinds[i], kinds[j] = kinds[j], kinds[i]
                live += 1
            else:
                live -= 1
    return kinds
