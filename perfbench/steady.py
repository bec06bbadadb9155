"""Steadiness check: run every workload in two sets and compare.

Usage, from the root of a checkout::

    python3 perfbench/steady.py

It runs every workload of ``BENCHMARK.json`` in ``SETS`` sets of
``RUNS`` runs, each a fresh ``perfbench/run.py`` process with its own
seed, counting up from ``SEED_BASE``.  For every end-to-end metric of
every workload it prints, per set, the median and the quartiles
(``statistics.quantiles(n=4)``) and the spread ``(Q3 - Q1) / median``;
the spread of the raw (not probe-normalised) figures beside it; then
the second set's median against the first's, as a share, signed so
that positive means worse.  A spread or a gap, either way, beyond the
metric's bound in ``BENCHMARK.json`` is flagged, as is a failed-op share
that differs between the sets.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 10
SETS = 2
SEED_BASE = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2])["raw"]
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    flagged = []
    seed = SEED_BASE
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        shares = set()
        for runs in sets:
            shares.add(sum(r["failed"] for r in runs)
                       / sum(r["attempted"] for r in runs))
            if not all(r["correct"] for r in runs):
                flagged.append(f"{workload}: a run reported correct=false")
        if len(shares) > 1:
            flagged.append(f"{workload}: failed-op share differs between sets")
        print(f"\n== {workload}  failed share {sorted(shares)}")
        print(f"{'metric':18} {'bound':>6} " + " ".join(
            f"{'set' + str(i + 1) + ' median':>14} {'q1':>10} {'q3':>10} "
            f"{'spread':>7} {'raw':>7}" for i in range(SETS)) + f" {'gap':>7}")
        for name, spec in metrics.items():
            cells, medians = [], []
            for runs in sets:
                m = summarize([r["metrics"][name]["value"] for r in runs])
                raw = summarize([r["raw"][name] for r in runs])
                medians.append(m["median"])
                cells.append(f"{m['median']:14.5g} {m['q1']:10.5g} "
                             f"{m['q3']:10.5g} {m['spread']:7.3f} "
                             f"{raw['spread']:7.3f}")
                if m["spread"] > spec["bound"]:
                    flagged.append(f"{workload} {name}: spread "
                                   f"{m['spread']:.3f} > bound {spec['bound']}")
            gaps = []
            for later in medians[1:]:
                gap = later / medians[0] - 1.0
                if spec["better"] == "higher":
                    gap = -gap
                gaps.append(gap)
                if abs(gap) > spec["bound"]:
                    flagged.append(f"{workload} {name}: medians differ by "
                                   f"{gap:+.3f}, beyond bound {spec['bound']}")
            print(f"{name:18} {spec['bound']:6.2f} " + " ".join(cells)
                  + "".join(f" {g:+7.3f}" for g in gaps))
    print()
    for line in flagged:
        print("FLAG:", line)
    print("steady" if not flagged else f"{len(flagged)} flag(s)")
    return 0 if not flagged else 1


if __name__ == "__main__":
    sys.exit(main())
