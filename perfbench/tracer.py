"""Per-layer tracing from outside the solver.

`Tracer.install` replaces public functions of `mapfkit` with wrappers that
count calls and measure wall time and the calling thread's CPU time
(`time.thread_time`).  Worker threads share the interpreter lock, so the
wall time summed over many threads overstates the work; every busy time is
therefore CPU time, and only waits are wall time.  Records stay in memory
until `dump` writes them at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

from mapfkit import cli, model, motion, negotiate, runtime, transport

# name -> unit, in report order.  Times without "wait" in the name are CPU.
LAYER_METRICS = {
    "cli.generate_s": "s",
    "model.parse_s": "s",
    "partition.divide_s": "s",
    "partition.areas": "count",
    "abstractplan.plan_s": "s",
    "abstractplan.calls": "count",
    "negotiate.assign_s": "s",
    "negotiate.assign_calls": "count",
    "negotiate.assign_max_s": "s",
    "negotiate.assigned": "count",
    "negotiate.infeasible": "count",
    "motion.plan_s": "s",
    "motion.plan_calls": "count",
    "motion.plan_failed_s": "s",
    "motion.plan_failed_calls": "count",
    "motion.relaxed_calls": "count",
    "motion.exhaustive_calls": "count",
    "motion.stripped_goals": "count",
    "motion.plan_yield": "ratio",
    "motion.check_s": "s",
    "runtime.rounds": "count",
    "runtime.workers": "count",
    "runtime.barrier_wait_s": "s",
    "runtime.stitch_s": "s",
    "transport.take_calls": "count",
    "transport.take_wait_s": "s",
    "transport.take_cpu_s": "s",
    "transport.frames": "count",
    "transport.frame_bytes": "bytes",
    "model.validate_s": "s",
    "trace.solve_s": "s",
    "trace.cpu_s": "s",
    "trace.layer_cpu_share": "ratio",
}

# Layers of the benchmark's set-up, which runs between solves.
SETUP_LAYERS = ("cli.generate_s", "model.parse_s")

# CPU of the layers that run inside the solve and do not nest in one
# another; their sum over trace.cpu_s is trace.layer_cpu_share.
COVERED = ("partition.divide_s", "abstractplan.plan_s", "negotiate.assign_s",
           "motion.plan_s", "motion.check_s", "runtime.stitch_s",
           "transport.take_cpu_s", "model.validate_s")

# Calls too frequent to keep one span each; they are only counted.
UNSPANNED = {"transport.take", "transport.deliver"}


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.stats: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.op: int | None = None       # span id of the solve being run
        self._ids = 0

    # -- recording ----------------------------------------------------------

    def _add(self, **values: float) -> None:
        with self._lock:
            for k, v in values.items():
                self.stats[k] += v

    def _timed(self, name: str, fn, after):
        """Wrap fn: span `name`, then after(result, cpu, wall, args, kwargs)
        turns the call into counters."""
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                self._ids += 1
                sid = self._ids
            parent = stack[-1] if stack else self.op
            stack.append(sid)
            w0, c0 = time.perf_counter(), time.thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = time.thread_time() - c0
                w1 = time.perf_counter()
                stack.pop()
                if name not in UNSPANNED:
                    span = {"id": sid, "parent": parent, "name": name,
                            "thread": threading.get_ident(),
                            "start": w0, "end": w1, "cpu": cpu}
                    with self._lock:
                        self.spans.append(span)
                after(result, cpu, w1 - w0, args, kwargs)
        return wrapper

    def _patch(self, owner, attr: str, name: str, after) -> None:
        real = getattr(owner, attr)
        self._undo.append((owner, attr, real))
        setattr(owner, attr, self._timed(name, real, after))

    # -- the layers ---------------------------------------------------------

    def install(self) -> None:
        add = self._add

        def cpu_into(key):
            return lambda r, cpu, wall, a, k: add(**{key: cpu})

        self._patch(cli, "generate_instance", "cli.generate", cpu_into("cli.generate_s"))
        self._patch(model, "parse_grid", "model.parse", cpu_into("model.parse_s"))

        def divided(r, cpu, wall, a, k):
            subs = r[0] if r else []
            add(**{"partition.divide_s": cpu, "runtime.workers": len(subs),
                   "partition.areas": sum(len(s.areas) for s in subs)})
        self._patch(runtime, "divide", "partition.divide", divided)
        self._patch(runtime, "assign_agents", "partition.assign_agents",
                    cpu_into("partition.divide_s"))

        self._patch(runtime, "abstract_plan", "abstractplan.abstract_plan",
                    lambda r, cpu, wall, a, k: add(**{"abstractplan.plan_s": cpu,
                                                      "abstractplan.calls": 1}))

        def assigned(r, cpu, wall, a, k):
            add(**{"negotiate.assign_s": cpu, "negotiate.assign_calls": 1,
                   "negotiate.assigned": len(r) if r is not None else 0,
                   "negotiate.infeasible": r is None})
            with self._lock:
                if cpu > self.stats["negotiate.assign_max_s"]:
                    self.stats["negotiate.assign_max_s"] = cpu
        self._patch(negotiate, "assign_borders", "negotiate.assign_borders", assigned)

        def planned(r, cpu, wall, a, k):
            failed = r is None
            add(**{"motion.plan_s": cpu, "motion.plan_calls": 1,
                   "motion.plan_failed_s": cpu if failed else 0.0,
                   "motion.plan_failed_calls": failed,
                   "motion.relaxed_calls": bool(k.get("fast")),
                   "motion.exhaustive_calls": bool(k.get("thorough"))})
        self._patch(motion, "plan_movements", "motion.plan_movements", planned)
        self._patch(runtime, "relax_and_retry", "motion.relax_and_retry",
                    lambda r, cpu, wall, a, k: add(**{
                        "motion.stripped_goals": len(r[1]) if r else 0}))
        self._patch(runtime, "check_plan", "motion.check_plan", cpu_into("motion.check_s"))

        self._patch(runtime.Worker, "_barrier", "runtime.barrier",
                    lambda r, cpu, wall, a, k: add(**{"runtime.barrier_wait_s": wall}))
        self._patch(runtime, "stitch", "runtime.stitch", cpu_into("runtime.stitch_s"))

        self._patch(transport.Inbox, "take", "transport.take",
                    lambda r, cpu, wall, a, k: add(**{"transport.take_calls": 1,
                                                      "transport.take_wait_s": wall,
                                                      "transport.take_cpu_s": cpu}))
        self._patch(transport.InprocBus, "deliver", "transport.deliver",
                    lambda r, cpu, wall, a, k: add(**{
                        "transport.frames": 1,
                        "transport.frame_bytes": len(json.dumps(a[1], sort_keys=True))}))

        self._patch(runtime, "validate", "model.validate", cpu_into("model.validate_s"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, real = self._undo.pop()
            setattr(owner, attr, real)

    # -- one solve ------------------------------------------------------------

    def solve(self, fn, *args, **kwargs):
        """Run one solve as the root span of everything it calls."""
        with self._lock:
            self._ids += 1
            self.op = self._ids
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            w1, c1 = time.perf_counter(), time.process_time()
            with self._lock:
                self.spans.append({"id": self.op, "parent": None, "name": "solve",
                                   "thread": threading.get_ident(), "start": w0,
                                   "end": w1, "cpu": c1 - c0})
            self.op = None

    def take(self, keys=None) -> dict[str, float]:
        """Counters since the last take, then reset them; only `keys` if
        given."""
        with self._lock:
            out = {k: v for k, v in self.stats.items() if keys is None or k in keys}
            for k in out:
                del self.stats[k]
        return out

    def dump(self, path, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
