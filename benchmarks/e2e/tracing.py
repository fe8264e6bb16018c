"""Spans around the program's public calls, and the per-layer metrics.

The program has no spans of its own yet, so the traced pass wraps the
public functions of each layer — module attributes and methods of the live
objects — from the benchmark's side.  Wrapping happens before any fork, so
the remote server and its pool workers inherit the wrappers; every forked
child drops the parent's spans, records its own, and writes them to the
dump directory when it exits.  A span is ``(pid, id, parent, name, start,
end, thread, rows, value)``; ``parent`` is the id of the enclosing span on
the same thread (0 at top level).  Start and end come from
``time.perf_counter``, which on Linux is the system-wide monotonic clock,
so spans of different processes share one time line.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

#: Per-layer metrics: name -> (unit, better, end-to-end metric it should
#: move, workload on which it should move it).  BENCHMARK.json's
#: ``per_layer`` lists the same names, units and directions.
PER_LAYER = {
    "service.rows_per_batch": ("count", "higher", "rows_per_sec", "serve-benign"),
    "service.pad_frac": ("fraction", "lower", "rows_per_sec", "serve-benign"),
    "service.busy_frac": ("fraction", "lower", "rows_per_sec", "serve-benign"),
    "service.dispatch_ms": ("ms", "lower", "p50_ms", "serve-benign"),
    "service.wait_ms": ("ms", "lower", "p50_ms", "serve-benign"),
    "service.shed": ("count", "lower", "p50_ms", "serve-adv10"),
    "service.unattributed_frac": ("fraction", "lower", "p50_ms", "serve-benign"),
    "client.retries": ("count", "lower", "p50_ms", "remote-pool"),
    "client.shed": ("count", "lower", "p50_ms", "remote-pool"),
    "bucketing.pad_ms": ("ms", "lower", "p50_ms", "serve-benign"),
    "engine.forward_ms": ("ms", "lower", "rows_per_sec", "serve-benign"),
    "engine.rows_per_sec": ("1/s", "higher", "rows_per_sec", "offline-eval"),
    "engine.plan_misses": ("count", "lower", "p50_ms", "serve-benign"),
    "engine.memo_hit_frac": ("fraction", "higher", "rows_per_sec", "offline-eval"),
    "detector.ms": ("ms", "lower", "p50_ms", "serve-benign"),
    "detector.flag_frac": ("fraction", "lower", "rows_per_sec", "serve-adv10"),
    "corrector.ms_per_row": ("ms", "lower", "rows_per_sec", "serve-adv10"),
    "corrector.forward_ms_per_row": ("ms", "lower", "rows_per_sec", "serve-adv10"),
    "corrector.rng_ms_per_row": ("ms", "lower", "rows_per_sec", "serve-adv10"),
    "corrector.self_ms_per_row": ("ms", "lower", "rows_per_sec", "serve-adv10"),
    "corrector.dispatch_share": ("fraction", "lower", "rows_per_sec", "serve-adv10"),
    "corrector.forwards_per_row": ("count", "lower", "rows_per_sec", "serve-adv10"),
    "dcn.forwards_per_row": ("count", "lower", "rows_per_sec", "offline-eval"),
    "rc.forwards_per_row": ("count", "lower", "rows_per_sec", "offline-eval"),
    "rc.ms_per_row": ("ms", "lower", "rows_per_sec", "offline-eval"),
    "rc.forward_ms_per_row": ("ms", "lower", "rows_per_sec", "offline-eval"),
    "rc.self_ms_per_row": ("ms", "lower", "rows_per_sec", "offline-eval"),
    "transport.client_encode_ms": ("ms", "lower", "p50_ms", "remote-pool"),
    "transport.client_decode_ms": ("ms", "lower", "p50_ms", "remote-pool"),
    "transport.server_decode_ms": ("ms", "lower", "p50_ms", "remote-pool"),
    "transport.server_encode_ms": ("ms", "lower", "p50_ms", "remote-pool"),
    "transport.frame_kb": ("KiB", "lower", "rows_per_sec", "remote-pool"),
    "transport.server_handle_ms": ("ms", "lower", "p50_ms", "remote-pool"),
    "transport.wire_ms": ("ms", "lower", "p50_ms", "remote-pool"),
    "pool.submit_ms": ("ms", "lower", "rows_per_sec", "remote-pool"),
    "pool.ipc_ms": ("ms", "lower", "rows_per_sec", "remote-pool"),
    "pool.rows_per_batch": ("count", "higher", "rows_per_sec", "remote-pool"),
    "grad.ms_per_call": ("ms", "lower", "rows_per_sec", "offline-eval"),
    "grad.busy_frac": ("fraction", "lower", "rows_per_sec", "offline-eval"),
    "train.ms_per_batch": ("ms", "lower", "rows_per_sec", "offline-eval"),
    "train.busy_frac": ("fraction", "lower", "rows_per_sec", "offline-eval"),
    "offline.attack_ex_per_sec": ("1/s", "higher", "rows_per_sec", "offline-eval"),
    "offline.dcn_rows_per_sec": ("1/s", "higher", "p50_ms", "offline-eval"),
    "offline.rc_rows_per_sec": ("1/s", "higher", "rows_per_sec", "offline-eval"),
    "offline.train_ex_per_sec": ("1/s", "higher", "rows_per_sec", "offline-eval"),
    "loadgen.p99_ms": ("ms", "lower", "p50_ms", "serve-adv10"),
    "loadgen.late_p99_ms": ("ms", "lower", "p50_ms", "serve-benign"),
    "loadgen.slo_frac": ("fraction", "higher", "p50_ms", "serve-benign"),
    "trace.overhead_frac": ("fraction", "lower", "rows_per_sec", "serve-benign"),
}

#: Top-level steps of one service dispatch; the rest of the dispatch time
#: is unattributed.
DISPATCH_STEPS = ("bucketing.pad", "engine.logits", "detector", "corrector")


class Span(NamedTuple):
    pid: int
    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: str
    rows: int
    value: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder shared by every wrapper of one traced run."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, rows=None, value=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``rows(args)`` and ``value(result)`` fill the span's two numbers.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    os.getpid(), sid, parent, name, start, end,
                    threading.current_thread().name,
                    rows(args) if rows else 0,
                    value(result) if value and result is not None else 0.0,
                ))

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def _after_fork(self) -> None:
        # Runs in every multiprocessing child after fork; the Finalize fires
        # when the child's process body returns.
        self.spans = []
        self._local = threading.local()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def dump(self) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps([list(s) for s in self.spans]))

    def collect(self) -> list[Span]:
        """This process's spans plus every child's dump."""
        spans = list(self.spans)
        for path in sorted(self.dump_dir.glob("spans-*.json")):
            spans.extend(Span(*row) for row in json.loads(path.read_text()))
        return spans


def instrument(tracer: Tracer, dcn, rc=None, attack=None) -> None:
    """Wrap each layer's public calls on the live objects and modules."""
    from repro.nn.grad_engine import GradientEngine
    from repro.nn.train_engine import TrainingEngine
    from repro.serve import client, service, transport, workers
    from repro.defenses import region

    first = lambda args: len(args[0])  # noqa: E731 - bound methods
    second = lambda args: len(args[1])  # noqa: E731 - class attributes (self first)

    def body_bytes(args):
        return len(args[3]) if len(args) > 3 else 0

    tracer.wrap(dcn.network.engine, "logits", "engine.logits", rows=first)
    tracer.wrap(dcn.detector, "is_adversarial", "detector", rows=first,
                value=lambda flagged: int(flagged.sum()))
    tracer.wrap(dcn.corrector, "correct", "corrector", rows=first)
    tracer.wrap(dcn.corrector, "correct_fused", "corrector", rows=first)
    tracer.wrap(dcn, "classify", "dcn.classify", rows=first)
    if rc is not None:
        tracer.wrap(rc, "classify", "rc.classify", rows=first)
    if attack is not None:
        tracer.wrap(attack, "perturb", "attack.perturb", rows=second)
    tracer.wrap(service, "pad_to_bucket", "bucketing.pad", rows=first)
    tracer.wrap(region, "input_rng", "region.input_rng")
    tracer.wrap(region, "call_rng", "region.call_rng")
    tracer.wrap(service.ServeTicket, "wait", "ticket.wait",
                value=lambda result: result.latency_s)
    tracer.wrap(workers.ServePool, "submit", "pool.submit", rows=second)
    tracer.wrap(transport, "decode_body", "transport.server_decode")
    tracer.wrap(transport, "encode_body", "transport.server_encode")
    tracer.wrap(transport, "write_frame", "transport.server_write", rows=body_bytes)
    tracer.wrap(client, "encode_body", "transport.client_encode")
    tracer.wrap(client, "decode_body", "transport.client_decode")
    tracer.wrap(client, "write_frame", "transport.client_write", rows=body_bytes)
    tracer.wrap(GradientEngine, "margin_input_grad", "grad.margin_input_grad", rows=second)
    tracer.wrap(TrainingEngine, "train_batch", "train.train_batch", rows=second)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


class SpanIndex:
    """Parent/child lookups over spans from any number of processes."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_key = {(s.pid, s.id): s for s in spans}
        self.children: dict[tuple[int, int], list[Span]] = defaultdict(list)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[(s.pid, s.parent)].append(s)
            self.by_name[s.name].append(s)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def covered(self, span: Span, names: tuple[str, ...]) -> tuple[float, int]:
        """Seconds and rows of the outermost descendants named in ``names``."""
        seconds, rows = 0.0, 0
        for child in self.children.get((span.pid, span.id), ()):
            if child.name in names:
                seconds += child.seconds
                rows += child.rows
            else:
                s, r = self.covered(child, names)
                seconds += s
                rows += r
        return seconds, rows

    def has_ancestor(self, span: Span, names: tuple[str, ...]) -> bool:
        parent = self.by_key.get((span.pid, span.parent))
        while parent is not None:
            if parent.name in names:
                return True
            parent = self.by_key.get((parent.pid, parent.parent))
        return False


def _mean_ms(spans: list[Span]) -> float:
    return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0


def _per_row(index: SpanIndex, name: str, parts: tuple[str, ...]) -> dict:
    """Totals of ``name`` spans and of the named descendant parts."""
    spans = index.named(name)
    out = {"rows": sum(s.rows for s in spans), "seconds": sum(s.seconds for s in spans)}
    for part in parts:
        totals = [index.covered(s, (part,)) for s in spans]
        out[part] = sum(t[0] for t in totals)
        out[part + ":rows"] = sum(t[1] for t in totals)
    return out


def server_handle_times(spans: list[Span]) -> list[float]:
    """Per request: server ``decode_body`` entry to the next ``write_frame``
    return on the same handler thread."""
    by_thread: dict[tuple[int, str], list[Span]] = defaultdict(list)
    for s in spans:
        if s.name in ("transport.server_decode", "transport.server_write"):
            by_thread[(s.pid, s.thread)].append(s)
    times = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s.start)
        opened = None
        for s in thread_spans:
            if s.name == "transport.server_decode":
                opened = s.start
            elif opened is not None:
                times.append(s.end - opened)
                opened = None
    return times


def layer_metrics(
    spans: list[Span],
    *,
    service: dict | None = None,
    service_wall: float = 0.0,
    service_latency_ms: float | None = None,
    clients: dict | None = None,
    engine: dict | None = None,
    loadgen: dict | None = None,
    stages: dict | None = None,
    roundtrip_ms: float | None = None,
) -> dict[str, float]:
    """Every per-layer metric; layers a workload does not run read 0.

    ``spans`` are the timed window's spans from every process.
    ``service`` is the ServeCounters delta of the timed window (summed
    over pool workers) and ``service_wall`` the wall seconds the services
    were available (summed likewise).  ``stages`` maps the offline stages
    to ``(seconds, units)``.
    """
    index = SpanIndex(spans)
    m = dict.fromkeys(PER_LAYER, 0.0)

    # serve.service, serve.bucketing
    server_pids = {s.pid for s in index.named("pool.submit")}
    waits = [s for s in index.named("ticket.wait") if s.pid in server_pids]
    if server_pids and service_latency_ms is None and waits:
        service_latency_ms = 1e3 * sum(s.value for s in waits) / len(waits)
    if service and service["batches"]:
        batches = service["batches"]
        dispatch_s = service["seconds"]
        m["service.rows_per_batch"] = service["examples"] / batches
        m["service.pad_frac"] = service["pad_rows"] / (service["examples"] + service["pad_rows"])
        m["service.busy_frac"] = dispatch_s / service_wall if service_wall else 0.0
        m["service.dispatch_ms"] = 1e3 * dispatch_s / batches
        if service_latency_ms is not None:
            m["service.wait_ms"] = service_latency_ms - m["service.dispatch_ms"]
        m["service.shed"] = service["shed"]
        steps = sum(
            s.seconds for name in DISPATCH_STEPS for s in index.named(name) if s.parent == 0
        )
        m["service.unattributed_frac"] = 1.0 - steps / dispatch_s if dispatch_s else 0.0
        m["detector.flag_frac"] = service["flagged"] / service["examples"]
        m["engine.plan_misses"] = service["plan_misses"]
    m["bucketing.pad_ms"] = _mean_ms(index.named("bucketing.pad"))
    if clients:
        m["client.retries"] = clients["retries"]
        m["client.shed"] = clients["shed"]

    # nn.engine: model forwards outside the corrector, RC and attack
    forwards = [
        s for s in index.named("engine.logits")
        if not index.has_ancestor(s, ("corrector", "rc.classify", "attack.perturb"))
    ]
    m["engine.forward_ms"] = _mean_ms(forwards)
    forward_s = sum(s.seconds for s in forwards)
    m["engine.rows_per_sec"] = sum(s.rows for s in forwards) / forward_s if forward_s else 0.0
    if engine:
        m["engine.plan_misses"] += engine["plan_misses"]
        if engine["requests"]:
            m["engine.memo_hit_frac"] = engine["memo_hits"] / engine["requests"]

    # core.detector
    detector = index.named("detector")
    m["detector.ms"] = _mean_ms(detector)
    if not service and detector:
        m["detector.flag_frac"] = sum(s.value for s in detector) / sum(s.rows for s in detector)

    # core.corrector
    corr = _per_row(index, "corrector", ("engine.logits", "region.input_rng"))
    if corr["rows"]:
        rows = corr["rows"]
        m["corrector.ms_per_row"] = 1e3 * corr["seconds"] / rows
        m["corrector.forward_ms_per_row"] = 1e3 * corr["engine.logits"] / rows
        m["corrector.rng_ms_per_row"] = 1e3 * corr["region.input_rng"] / rows
        m["corrector.self_ms_per_row"] = 1e3 * (
            corr["seconds"] - corr["engine.logits"] - corr["region.input_rng"]
        ) / rows
        m["corrector.forwards_per_row"] = corr["engine.logits:rows"] / rows

    # core.dcn: rows served by DCN, in-process or offline
    dcn_calls = index.named("dcn.classify")
    dcn_rows = service["examples"] if service else sum(s.rows for s in dcn_calls)
    dcn_seconds = service["seconds"] if service else sum(s.seconds for s in dcn_calls)
    if dcn_rows:
        m["dcn.forwards_per_row"] = 1.0 + corr["engine.logits:rows"] / dcn_rows
        m["corrector.dispatch_share"] = corr["seconds"] / dcn_seconds if dcn_seconds else 0.0

    # defenses.region
    rc = _per_row(index, "rc.classify", ("engine.logits", "region.call_rng"))
    if rc["rows"]:
        rows = rc["rows"]
        m["rc.forwards_per_row"] = rc["engine.logits:rows"] / rows
        m["rc.ms_per_row"] = 1e3 * rc["seconds"] / rows
        m["rc.forward_ms_per_row"] = 1e3 * rc["engine.logits"] / rows
        m["rc.self_ms_per_row"] = 1e3 * (
            rc["seconds"] - rc["engine.logits"] - rc["region.call_rng"]
        ) / rows

    # serve.transport, serve.client
    for metric, name in (
        ("transport.client_encode_ms", "transport.client_encode"),
        ("transport.client_decode_ms", "transport.client_decode"),
        ("transport.server_decode_ms", "transport.server_decode"),
        ("transport.server_encode_ms", "transport.server_encode"),
    ):
        m[metric] = _mean_ms(index.named(name))
    writes = index.named("transport.client_write") + index.named("transport.server_write")
    if writes:
        m["transport.frame_kb"] = sum(s.rows for s in writes) / len(writes) / 1024.0
    handle = server_handle_times(spans)
    if handle:
        m["transport.server_handle_ms"] = 1e3 * sum(handle) / len(handle)
        if roundtrip_ms is not None:
            m["transport.wire_ms"] = roundtrip_ms - m["transport.server_handle_ms"]

    # serve.workers
    m["pool.submit_ms"] = _mean_ms(index.named("pool.submit"))
    if waits:
        m["pool.ipc_ms"] = 1e3 * sum(s.seconds - s.value for s in waits) / len(waits)
    if server_pids and service and service["batches"]:
        m["pool.rows_per_batch"] = service["examples"] / service["batches"]

    # nn.grad_engine, nn.train_engine, and the offline stages around them
    stages = stages or {}
    grads = index.named("grad.margin_input_grad")
    m["grad.ms_per_call"] = _mean_ms(grads)
    trains = index.named("train.train_batch")
    m["train.ms_per_batch"] = _mean_ms(trains)
    for metric, stage, spans_of in (
        ("grad.busy_frac", "attack", grads),
        ("train.busy_frac", "fit", trains),
    ):
        if stage in stages and stages[stage][0]:
            m[metric] = sum(s.seconds for s in spans_of) / stages[stage][0]
    for metric, stage in (
        ("offline.attack_ex_per_sec", "attack"),
        ("offline.dcn_rows_per_sec", "dcn"),
        ("offline.rc_rows_per_sec", "rc"),
        ("offline.train_ex_per_sec", "fit"),
    ):
        if stage in stages and stages[stage][0]:
            seconds, units = stages[stage]
            m[metric] = units / seconds

    if loadgen:
        m["loadgen.p99_ms"] = loadgen["p99_ms"]
        m["loadgen.late_p99_ms"] = loadgen["late_p99_ms"]
        m["loadgen.slo_frac"] = loadgen["slo_frac"]
    return {name: float(value) for name, value in m.items()}
