"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload active_stock --seed 1 --seconds 20 --trace 0

A run repeats whole rounds until ``--seconds`` is used up.  A round
builds a fresh stack (timed as set-up), runs a warm-up stream, then a
timed stream of fixed length, then checks every output against a model
or ``sqlite3``.  With ``--trace 1`` rounds alternate untraced and traced
(see ``layers.py``) and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; lines before it give
the raw (not probe-normalised) figures and the run's shape.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: workload name -> (module, class)
WORKLOADS = {
    "active_stock": ("wl_active", "ActiveStock"),
    "passive_sql": ("wl_passive", "PassiveSql"),
    "pooled_sessions": ("wl_pooled", "PooledSessions"),
    "two_sites": ("wl_sites", "TwoSites"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_round(cls, seed: int, round_no: int, tracer=None):
    """Build, warm, time and check one round; returns its record."""
    from harness import run_pooled, run_sync

    workload = cls(random.Random(f"{seed}/{round_no}"))
    drive = ((lambda ops: run_pooled(ops, workload.submit, workload.sessions,
                                     workload.quiesce))
             if workload.sessions > 1 else
             (lambda ops: run_sync(ops, workload.execute)))
    gc.collect()
    if tracer is not None:
        tracer.start_phase("setup")
    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.stop_phase()
    warm = drive(workload.warmup)
    if tracer is not None:
        tracer.start_phase("timed", workload)
    log = drive(workload.timed)
    rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.stop_phase(workload, log)
    errors = workload.check(warm, log)
    failed = workload.failed_ops(log)
    workload.close()
    return {"setup_s": setup_s, "log": log, "errors": errors,
            "failed": failed, "rss_mb": rss_mb}


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest_cpu() -> int:
    """The allowed CPU on which 30 probes run quickest: the one least
    contended by other processes right now."""
    from harness import probe

    timings = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = sum(probe() for _ in range(30))
    return min(timings, key=timings.get)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import metrics

    module_name, class_name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module_name), class_name)
    if cls.sessions > 1:
        # Threads share one GIL, so a second core adds nothing but
        # cross-core GIL hand-offs, whose cost varies from run to run.
        os.sched_setaffinity(0, {fastest_cpu()})
    tracer = None
    if args.trace:
        import layers
        tracer = layers.LayerTracer()

    start = time.perf_counter()
    plain, traced = [], []
    round_no = 0
    while True:
        plain.append(run_round(cls, args.seed, round_no))
        round_no += 1
        if tracer is not None:
            with tracer.installed():
                traced.append(run_round(cls, args.seed, round_no, tracer))
            round_no += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > args.seconds:
            break

    rounds = plain + traced
    errors = [e for r in rounds for e in r["errors"]]
    for error in errors[:20]:
        print("CHECK FAILED:", error, file=sys.stderr)
    attempted = sum(len(r["log"].ops) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    summary = metrics.end_to_end(plain)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(plain), "traced_rounds": len(traced),
                      "shape": metrics.shape(plain),
                      "raw": summary["raw"]}))
    if tracer is not None:
        values = tracer.metrics(traced, plain)
        units = tracer.UNITS
        errors.extend(tracer.errors)
        for error in tracer.errors:
            print("TRACE CHECK FAILED:", error, file=sys.stderr)
        print(json.dumps({"layers": tracer.table()}))
    else:
        values = {name: summary[name] for name in metrics.UNITS}
        units = metrics.UNITS
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
