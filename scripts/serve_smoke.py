#!/usr/bin/env python
"""Serving smoke: threaded coalescing, backpressure, bitwise equivalence.

Drives the online ``DCNService`` through its operational envelope on the
cached ``mnist-fast`` artifacts:

1. **threaded equivalence** — concurrent client threads submit small
   requests against the dispatcher thread; every served label must be
   bitwise-identical to offline ``DCN.classify`` on the same rows;
2. **backpressure (shed)** — a burst past ``max_queue`` must shed the
   overflow and serve the admitted remainder correctly;
3. **backpressure (degrade)** — under the degrade policy the overflow is
   admitted detector-only: flagged rows keep the model's label (no
   corrector vote) and the result is marked ``"degraded"``;
4. **telemetry** — the ``ServeCounters`` snapshot must be internally
   consistent (admitted = served, gate split adds up, plan counters
   moved, snapshot is a detached copy);
5. **failed window** — a synchronous window holding a poisoned request
   (a NaN row under the engine guard) must raise, leave both queue
   gauges at 0, and the next window must still be bitwise-identical.

Exit status 0 = all checks passed.
"""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.eval import build_context, scale_config  # noqa: E402
from repro.serve import DCNService, StreamSpec, build_stream  # noqa: E402
from repro.verify import guards  # noqa: E402


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    ctx = build_context("mnist-fast", scale_config("fast"))
    dcn = ctx.dcn
    adv, _, _ = ctx.pool("cw-l2").successful()
    stream = build_stream(
        ctx.dataset.x_test,
        adv,
        StreamSpec(requests=48, adv_fraction=0.10, min_size=1, max_size=3, seed=3),
    )
    offline = [dcn.classify(request.x) for request in stream]

    # 1. threaded equivalence under concurrent submission
    results = [None] * len(stream)
    with DCNService(dcn, max_batch=32, max_queue=256, max_delay=0.001) as service:
        def client(lane):
            for i in range(lane, len(stream), 4):
                results[i] = service.classify(stream[i].x, timeout=60.0)

        threads = [threading.Thread(target=client, args=(lane,)) for lane in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    check(all(r is not None and r.status == "ok" for r in results), "threaded: all requests served")
    check(
        all(np.array_equal(r.labels, want) for r, want in zip(results, offline)),
        "threaded: labels bitwise-identical to offline DCN.classify",
    )
    check(service.counters.batches < len(stream), "threaded: requests were coalesced")

    # 2. shed policy: a window past max_queue rejects the overflow only
    shed_service = DCNService(dcn, max_batch=32, max_queue=8, overload="shed")
    window = [request.x for request in stream[:20]]
    served = shed_service.serve_batch(window)
    check(
        sum(r.status == "shed" for r in served) == len(window) - 8,
        "shed: overflow past max_queue rejected",
    )
    admitted = [(r, want) for r, want in zip(served, offline) if r.status == "ok"]
    check(
        all(np.array_equal(r.labels, want) for r, want in admitted),
        "shed: admitted requests still bitwise-identical",
    )

    # 3. degrade policy: overflow served detector-only with model labels
    degrade_service = DCNService(dcn, max_batch=32, max_queue=4, overload="degrade")
    served = degrade_service.serve_batch(window)
    degraded = [r for r in served if r.status == "degraded"]
    # Degraded admission is itself bounded: depths [max_queue, 2*max_queue)
    # degrade, everything beyond sheds regardless.
    check(len(degraded) == 4, "degrade: overflow admitted detector-only")
    check(sum(r.status == "shed" for r in served) == len(window) - 8,
          "degrade: queue memory stays bounded past 2x max_queue")
    model_labels = [dcn.network.engine.predict(x, memo=False) for x in window]
    check(
        all(
            np.array_equal(r.labels, labels)
            for r, labels in zip(served, model_labels)
            if r.status == "degraded"
        ),
        "degrade: degraded rows carry the model's label (no corrector vote)",
    )

    # 4. telemetry consistency
    counters = service.counters.snapshot()
    check(counters.requests == len(stream), "telemetry: every admitted request counted")
    check(
        counters.examples == sum(len(request.x) for request in stream),
        "telemetry: admitted rows counted",
    )
    check(counters.corrected == counters.flagged, "telemetry: all flagged rows corrected (no overload)")
    check(0.0 <= counters.flagged_fraction <= 1.0, "telemetry: flagged fraction well-formed")
    check(counters.plan_hits + counters.plan_misses > 0, "telemetry: plan counters attributed")
    before = counters.batches
    service.serve_batch([stream[0].x])
    check(counters.batches == before != service.counters.batches, "telemetry: snapshot is detached")

    summary = service.latencies.summary()
    check(summary["count"] >= len(stream), "telemetry: latencies recorded per request")
    check(summary["p95_ms"] >= summary["p50_ms"], "telemetry: percentile ordering")

    # 5. a poisoned request fails its window cleanly; the next one serves
    window = [request.x for request in stream[:6]]
    poisoned = list(window)
    poisoned[3] = window[3].copy()
    poisoned[3].flat[0] = np.nan
    sync_service = DCNService(dcn, max_batch=4, max_queue=256)
    try:
        with guards.enforce():
            sync_service.serve_batch(poisoned)
        raised = False
    except guards.GuardViolation:
        raised = True
    check(raised, "failed window: a poisoned request raises out of serve_batch")
    gauges = (sync_service.counters.queue_depth, sync_service.counters.queued_rows)
    check(gauges == (0, 0), "failed window: both queue gauges back at 0")
    served = sync_service.serve_batch(window)
    check(
        all(r.status == "ok" and np.array_equal(r.labels, want)
            for r, want in zip(served, offline)),
        "failed window: the next window is bitwise-identical to offline",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
