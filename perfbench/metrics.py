"""End-to-end metrics of a run, from the records of its untraced rounds.

Times are normalised by the machine-speed probe: a value is the raw time
times ``PROBE_REF_S / median(probe)``, the time it would take on a
machine where the probe loop takes ``PROBE_REF_S``.  The raw figures are
printed beside them.
"""

from __future__ import annotations

from harness import (
    ATOMIC,
    PROBE_REF_S,
    READ,
    SCAN,
    WRITE,
    median,
    percentile,
)

UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "read_p50_ms": "ms",
    "scan_p50_ms": "ms",
    "write_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "rss_peak_mb": "MB",
}


def _timed_latencies(rounds):
    """Latencies by op class over every round, failed ops left out."""
    by_kind = {READ: [], SCAN: [], WRITE: []}
    for r in rounds:
        log = r["log"]
        for op, latency, error in zip(log.ops, log.latencies, log.errors):
            if op.kind != ATOMIC and error is None:
                by_kind[op.kind].append(latency)
    return by_kind


def end_to_end(rounds) -> dict:
    """The normalised metrics (all but ``rss_peak_mb``) plus ``raw``."""
    probes = [p for r in rounds for p in r["log"].probes]
    probe_s = median(probes)
    by_kind = _timed_latencies(rounds)
    every = by_kind[READ] + by_kind[SCAN] + by_kind[WRITE]
    raw = {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "throughput_ops_s": (sum(len(r["log"].ops) for r in rounds)
                             / sum(r["log"].busy_s for r in rounds)),
        "read_p50_ms": median(by_kind[READ]) * 1e3,
        "scan_p50_ms": median(by_kind[SCAN]) * 1e3,
        "write_p50_ms": median(by_kind[WRITE]) * 1e3,
        "latency_p99_ms": percentile(every, 0.99) * 1e3,
        # Later rounds add only allocator history to the peak.
        "rss_peak_mb": rounds[0]["rss_mb"],
        "probe_ms": probe_s * 1e3,
        "samples": len(every),
    }
    scale = PROBE_REF_S / probe_s
    out = {name: raw[name] * scale for name in
           ("setup_s", "read_p50_ms", "scan_p50_ms", "write_p50_ms",
            "latency_p99_ms")}
    out["throughput_ops_s"] = raw["throughput_ops_s"] / scale
    out["rss_peak_mb"] = raw["rss_peak_mb"]
    out["raw"] = raw
    return out


def shape(rounds) -> dict:
    """How the run spent its timed wall time: each op class's share, and
    the mean op cost in the first and last tenth of each round (medians
    over rounds), since snapshot tables and the GED journal grow."""
    total = {}
    by_label = {}
    first, last = [], []
    for r in rounds:
        log = r["log"]
        for op, latency in zip(log.ops, log.latencies):
            total[op.kind] = total.get(op.kind, 0.0) + latency
            by_label.setdefault(op.label, []).append(latency)
        tenth = max(1, len(log.latencies) // 10)
        first.append(sum(log.latencies[:tenth]) / tenth)
        last.append(sum(log.latencies[-tenth:]) / tenth)
    wall = sum(total.values())
    return {
        "ops_per_round": len(rounds[0]["log"].ops),
        "share_of_wall": {k: round(v / wall, 4) for k, v in sorted(total.items())},
        "ops_by_label": {k: len(v) // len(rounds) for k, v in sorted(by_label.items())},
        "p50_ms_by_label": {k: round(median(v) * 1e3, 4)
                            for k, v in sorted(by_label.items())},
        "first_tenth_ms": round(median(first) * 1e3, 4),
        "last_tenth_ms": round(median(last) * 1e3, 4),
    }
