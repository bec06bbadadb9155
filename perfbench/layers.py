"""Per-layer self time, timed from outside the program.

:class:`LayerTracer` wraps the public entry points of each Figure 2
module (and of the engine's parse / plan / execute / lock layers) by
patching the binding their callers actually use: class attributes for
methods, module attributes for functions called as ``module.fn``.  The
patches go in before a traced round builds its stack (the LED captures
``ActionHandler.dispatch_detached`` as a bound method at construction)
and come out after it.

Each thread keeps its own span stack.  A span's self time is its
duration minus the durations of the spans nested in it.  Time is split
into two buckets:

- ``path``: spans on the threads that carry the client command — the
  client thread of a synchronous workload, and the pool worker while it
  runs the command.  In ``pooled_sessions`` the load thread's
  ``submit_for`` span counts up to the moment the command is queued;
  from the queue to the worker is the ``workers`` queue wait.
- ``off``: everything else, such as DETACHED action threads, which run
  off the command's critical path and are reported apart.

``unattributed`` is a residual: the ops' latency as the load loop
measured it minus the per-layer path self times and the queue waits.
Self times telescope (each span's self time is its duration minus its
children's), so the layers plus ``unattributed`` sum to the latency by
construction.  The check that can fail is that ``unattributed`` is not
negative, within ``SUM_TOLERANCE`` of the latency: a span timed outside
its op, or counted twice across a thread hand-off, would make it so.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from harness import median, percentile

#: How far the layer sum may exceed the measured latency, as a share.
SUM_TOLERANCE = 0.01

LAYERS = ("gateway", "filter", "eca", "parse", "planner", "exec", "locks",
          "persistence", "notifier", "led", "action", "ged")

UNITS = {
    "gateway.self_us_per_op": "us",
    "filter.self_us_per_op": "us",
    "eca.self_ms_total": "ms",
    "parse.calls_per_op": "count",
    "parse.self_us_per_op": "us",
    "plancache.hit_rate": "ratio",
    "plancache.plan_hit_rate": "ratio",
    "planner.calls_per_op": "count",
    "planner.self_us_per_op": "us",
    "exec.batches_per_op": "count",
    "exec.self_us_per_op": "us",
    "locks.self_us_per_op": "us",
    "locks.exclusive_share": "ratio",
    "persistence.calls_per_op": "count",
    "persistence.self_us_per_op": "us",
    "notifier.payloads_per_op": "count",
    "notifier.events_per_payload": "count",
    "notifier.self_us_per_op": "us",
    "led.raises_per_op": "count",
    "led.firings_per_op": "count",
    "led.self_us_per_op": "us",
    "action.runs_per_op": "count",
    "action.detached_per_op": "count",
    "action.self_us_per_op": "us",
    "workers.queue_wait_p50_us": "us",
    "workers.queue_wait_p99_us": "us",
    "ged.routed_per_op": "count",
    "ged.firings_per_op": "count",
    "ged.self_us_per_op": "us",
    "unattributed.self_us_per_op": "us",
    "offpath.self_us_per_op": "us",
    "trace.overhead_ratio": "ratio",
}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.on_path = False
        #: time after which this thread's open spans are off the path
        self.clip = None
        self.led_depth = 0
        self.acc = None


class LayerTracer:
    """Installs the layer wrappers and accumulates their spans."""

    UNITS = UNITS

    def __init__(self):
        self._local = _ThreadState()
        self._accs = []
        self._accs_lock = threading.Lock()
        #: None outside a measured phase, else "setup" or "timed"
        self.phase = None
        self.errors = []
        self._rounds = []
        self._setup = None
        self._before = None

    # -- span bookkeeping ----------------------------------------------

    def _acc(self, local):
        acc = local.acc
        if acc is None:
            acc = local.acc = {"self": {}, "count": {}, "waits": [],
                               "payloads": []}
            with self._accs_lock:
                self._accs.append(acc)
        return acc

    def _enter(self, layer):
        frame = [layer, time.perf_counter(), 0.0, 0.0]
        self._local.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        local = self._local
        stack = local.stack
        stack.pop()
        layer, start, child_path, child_off = frame
        if self.phase == "setup":
            path_dur, off_dur = end - start, 0.0
        elif not local.on_path:
            path_dur, off_dur = 0.0, end - start
        else:
            clip = local.clip
            if clip is None or clip >= end:
                path_dur = end - start
            else:
                path_dur = max(0.0, clip - start)
            off_dur = end - start - path_dur
        if stack:
            parent = stack[-1]
            parent[2] += path_dur
            parent[3] += off_dur
        else:
            local.clip = None
        if self.phase is None:
            return
        acc = self._acc(local)
        selfs = acc["self"]
        bucket = "setup" if self.phase == "setup" else "path"
        key = (bucket, layer)
        selfs[key] = selfs.get(key, 0.0) + path_dur - child_path
        key = ("off", layer)
        selfs[key] = selfs.get(key, 0.0) + off_dur - child_off

    def _count(self, name, n=1):
        local = self._local
        if self.phase != "timed":
            return
        bucket = "path" if local.on_path else "off"
        counts = self._acc(local)["count"]
        key = (bucket, name)
        counts[key] = counts.get(key, 0) + n

    # -- phases ----------------------------------------------------------

    def start_phase(self, phase, workload=None):
        with self._accs_lock:
            for acc in self._accs:
                acc["self"].clear()
                acc["count"].clear()
                acc["waits"].clear()
                acc["payloads"].clear()
        self._local.stack.clear()
        self._local.on_path = phase == "timed"
        if phase == "timed":
            self._before = _program_counters(workload)
        self.phase = phase

    def stop_phase(self, workload=None, log=None):
        phase = self.phase
        self.phase = None
        self._local.on_path = False
        totals = {"self": {}, "count": {}, "waits": [], "payloads": []}
        with self._accs_lock:
            for acc in self._accs:
                for kind in ("self", "count"):
                    for key, value in acc[kind].items():
                        totals[kind][key] = totals[kind].get(key, 0) + value
                totals["waits"].extend(acc["waits"])
                totals["payloads"].extend(acc["payloads"])
        if phase == "setup":
            self._setup = totals
            return
        after = _program_counters(workload)
        totals["program"] = {k: after[k] - self._before[k] for k in after}
        totals["log"] = log
        totals["setup"] = self._setup
        self._rounds.append(totals)

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        patches = self._patches()
        saved = []
        try:
            for owner, name, wrapper in patches:
                saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def _span(self, layer, original, note=None):
        """Wrap ``original`` (a function) in a span of ``layer``."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return original(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _patches(self):
        from repro.agent import action_handler, agent, eca_parser, gateway
        from repro.agent import notifier, persistence, workers
        from repro.ged import transport
        from repro.led import detector
        from repro.sqlengine import executor, locks, plancache, planner, server

        count = self._count
        Gateway = gateway.GatewayOpenServer
        Detector = detector.LocalEventDetector
        patches = [
            (Gateway, "execute_for",
             self._span("gateway", Gateway.execute_for)),
            (Gateway, "submit_for",
             self._span("gateway", Gateway.submit_for)),
            (eca_parser.LanguageFilter, "classify",
             self._span("filter", eca_parser.LanguageFilter.classify)),
            (agent.EcaAgent, "handle_eca",
             self._span("eca", agent.EcaAgent.handle_eca)),
            (server, "parse_batch", self._span(
                "parse", server.parse_batch,
                lambda a, r: count("parse.calls"))),
            (plancache.PlanCache, "get",
             self._span("parse", plancache.PlanCache.get)),
            (planner, "plan_select", self._span(
                "planner", planner.plan_select,
                lambda a, r: count("planner.calls"))),
            (planner, "plan_dml", self._span(
                "planner", planner.plan_dml,
                lambda a, r: count("planner.calls"))),
            (executor.Executor, "execute_batch", self._span(
                "exec", executor.Executor.execute_batch,
                lambda a, r: count("exec.batches"))),
            (persistence.PersistentManager, "execute", self._span(
                "persistence", persistence.PersistentManager.execute,
                lambda a, r: count("persistence.calls"))),
            (notifier.EventNotifier, "on_payload",
             self._span("notifier", self._on_payload(
                 notifier.EventNotifier.on_payload))),
            (Detector, "raise_event", self._span(
                "led", self._led(Detector.raise_event, lambda a: 1))),
            (Detector, "raise_events", self._span(
                "led", self._led_batch(Detector.raise_events))),
            (Detector, "raise_remote", self._span(
                "led", self._led(Detector.raise_remote, lambda a: 1))),
            (Detector, "flush_deferred", self._span(
                "led", self._led(Detector.flush_deferred, lambda a: 0))),
            (action_handler.ActionHandler, "run_action", self._span(
                "action", action_handler.ActionHandler.run_action,
                lambda a, r: count("action.runs"))),
            (action_handler.ActionHandler, "dispatch_detached", self._span(
                "action", action_handler.ActionHandler.dispatch_detached,
                lambda a, r: count("action.detached"))),
            (transport.InProcessTransport, "send",
             self._span("ged", transport.InProcessTransport.send)),
            (locks.EngineLockManager, "batch_scope",
             self._batch_scope(locks.EngineLockManager.batch_scope)),
            (workers.WorkerPool, "submit",
             self._submit(workers.WorkerPool.submit)),
        ]
        return patches

    def _on_payload(self, original):
        tracer = self

        def on_payload(notifier_, payload):
            if tracer.phase == "timed" and tracer._local.on_path:
                tracer._acc(tracer._local)["payloads"].append(payload)
            return original(notifier_, payload)

        return on_payload

    def _led(self, original, raises):
        """Count raises and the firings of the outermost LED call."""
        tracer = self

        def led_call(*args, **kwargs):
            local = tracer._local
            local.led_depth += 1
            try:
                firings = original(*args, **kwargs)
            finally:
                local.led_depth -= 1
            if tracer.phase is not None:
                tracer._count("led.raises", raises(args))
                if local.led_depth == 0:
                    tracer._count("led.firings", len(firings or ()))
            return firings

        return led_call

    def _led_batch(self, original):
        """``raise_events`` takes any iterable; list it to count it."""
        led_call = self._led(original, lambda a: len(a[1]))

        def raise_events(detector_, batch):
            return led_call(detector_, list(batch))

        return raise_events

    def _batch_scope(self, original):
        tracer = self

        @contextmanager
        def batch_scope(manager, statements, session):
            if tracer.phase is None:
                with original(manager, statements, session):
                    yield
                return
            if not manager.in_batch():
                tracer._count("locks.top_batches")
            frame = tracer._enter("locks")
            try:
                with original(manager, statements, session):
                    yield
            finally:
                tracer._exit(frame)

        return batch_scope

    def _submit(self, original):
        """Stamp the queue hand-off and run the task as a path span."""
        tracer = self

        def submit(pool, session, fn):
            if tracer.phase is None:
                return original(pool, session, fn)
            local = tracer._local
            enqueued = time.perf_counter()
            if local.on_path and local.stack:
                local.clip = enqueued
            timed = tracer.phase == "timed"

            def task():
                worker = tracer._local
                started = time.perf_counter()
                if timed and tracer.phase == "timed":
                    tracer._acc(worker)["waits"].append(started - enqueued)
                was_on_path = worker.on_path
                worker.on_path = timed
                frame = tracer._enter("gateway")
                try:
                    return fn()
                finally:
                    tracer._exit(frame)
                    worker.on_path = was_on_path

            return original(pool, session, task)

        return submit

    # -- results -----------------------------------------------------------

    def metrics(self, traced, plain) -> dict:
        """The per-layer metrics over every traced round."""
        from repro.agent.messages import Notification, split_trace_context

        ops = sum(len(r["log"].ops) for r in self._rounds)
        selfs, counts = {}, {}
        waits, payloads = [], []
        program = {}
        eca = []
        latency = 0.0
        for r in self._rounds:
            for key, value in r["self"].items():
                selfs[key] = selfs.get(key, 0.0) + value
            for key, value in r["count"].items():
                counts[key] = counts.get(key, 0) + value
            waits.extend(r["waits"])
            payloads.extend(r["payloads"])
            for key, value in r["program"].items():
                program[key] = program.get(key, 0) + value
            eca.append(r["setup"]["self"].get(("setup", "eca"), 0.0))
            latency += sum(r["log"].latencies)

        def path(layer):
            return selfs.get(("path", layer), 0.0)

        def per_op_us(seconds):
            return seconds / ops * 1e6

        def calls(name):
            return counts.get(("path", name), 0) / ops

        queue = sum(waits)
        path_self = sum(path(layer) for layer in LAYERS)
        unattributed = latency - path_self - queue
        self.sum_check = {"latency_s": latency, "layer_self_s": path_self,
                          "queue_wait_s": queue,
                          "unattributed_s": unattributed}
        if unattributed < -SUM_TOLERANCE * latency:
            self.errors.append(f"layer self times {path_self:.4f}s and "
                               f"queue waits {queue:.4f}s exceed the ops' latency "
                               f"{latency:.4f}s")
        events = sum(len(Notification.decode_batch(split_trace_context(p)[0]))
                     for p in payloads)
        lookups = program["cache_hits"] + program["cache_misses"]
        plan_lookups = program["plan_hits"] + program["plan_misses"]
        out = {f"{layer}.self_us_per_op": per_op_us(path(layer))
               for layer in LAYERS if layer != "eca"}
        out.update({
            "eca.self_ms_total": median(eca) * 1e3,
            "parse.calls_per_op": calls("parse.calls"),
            "plancache.hit_rate": program["cache_hits"] / lookups if lookups else 0.0,
            "plancache.plan_hit_rate": (program["plan_hits"] / plan_lookups
                                        if plan_lookups else 0.0),
            "planner.calls_per_op": calls("planner.calls"),
            "exec.batches_per_op": calls("exec.batches"),
            "locks.exclusive_share": (
                program["exclusive"] / (counts.get(("path", "locks.top_batches"), 0)
                                        + counts.get(("off", "locks.top_batches"), 0))
                if program["exclusive"] else 0.0),
            "persistence.calls_per_op": calls("persistence.calls"),
            "notifier.payloads_per_op": len(payloads) / ops,
            "notifier.events_per_payload": events / len(payloads) if payloads else 0.0,
            "led.raises_per_op": calls("led.raises"),
            "led.firings_per_op": calls("led.firings"),
            "action.runs_per_op": calls("action.runs"),
            "action.detached_per_op": calls("action.detached"),
            "workers.queue_wait_p50_us": median(waits) * 1e6,
            "workers.queue_wait_p99_us": percentile(waits, 0.99) * 1e6,
            "ged.routed_per_op": program["ged_routed"] / ops,
            "ged.firings_per_op": program["ged_firings"] / ops,
            "unattributed.self_us_per_op": per_op_us(unattributed),
            "offpath.self_us_per_op": per_op_us(
                sum(selfs.get(("off", layer), 0.0) for layer in LAYERS)),
            "trace.overhead_ratio": (
                median([r["log"].busy_s for r in traced])
                / median([r["log"].busy_s for r in plain])),
        })
        self._table = {layer: {
            "self_us_per_op": round(per_op_us(path(layer)), 2),
            "share_of_latency": round(path(layer) / latency, 4),
            "offpath_us_per_op": round(per_op_us(selfs.get(("off", layer), 0.0)), 2),
        } for layer in LAYERS if layer != "eca"}
        self._table["workers.queue_wait"] = {
            "self_us_per_op": round(per_op_us(queue), 2),
            "share_of_latency": round(queue / latency, 4)}
        self._table["unattributed"] = {
            "self_us_per_op": round(per_op_us(unattributed), 2),
            "share_of_latency": round(unattributed / latency, 4)}
        return out

    def table(self) -> dict:
        return {"layers": self._table, "sum_check": self.sum_check}


def _program_counters(workload) -> dict:
    """Counters the program keeps itself, summed over the stack."""
    out = {"cache_hits": 0, "cache_misses": 0, "plan_hits": 0,
           "plan_misses": 0, "exclusive": 0, "ged_routed": 0,
           "ged_firings": 0}
    for server in workload.servers():
        cache = server.plan_cache
        out["cache_hits"] += cache.hits
        out["cache_misses"] += cache.misses
        out["plan_hits"] += cache.plan_hits
        out["plan_misses"] += cache.plan_misses
        out["exclusive"] += server.lock_manager.exclusive_batches
    ged = workload.ged()
    if ged is not None:
        out["ged_routed"] = ged.transport.segments
        out["ged_firings"] = len(ged.firings)
    return out
