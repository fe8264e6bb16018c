#!/usr/bin/env bash
# Repo health check: byte-compile everything, then run the tier-1 suite.
#
#   ./scripts/check.sh            # fast (default REPRO_SCALE)
#   ./scripts/check.sh -k engine  # extra args forwarded to pytest

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src benchmarks scripts

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

echo "== nn + verify + serve + eval tests, warnings as errors =="
# The numerics tree must be warning-clean: a RuntimeWarning (overflow,
# invalid value) from a kernel is a latent divergence, not noise.  Serving
# and evaluation run the same kernels plus threads and sockets, where a
# warning (unclosed resource, unjoined thread) is a leak.
python -m pytest -x -q -W error tests/nn tests/verify tests/serve tests/eval

echo "== verify smoke (compiled plans + cross-engine differential) =="
# Fuzzes the compiled infer/grad/train plans against float64 autograd,
# including the zero-budget replay checks (plan buffer-reuse hazards).
REPRO_VERIFY=1 python -m repro verify --seed 0 --cases 6

echo "== runner smoke (kill mid-flight, resume, diff vs clean) =="
python scripts/runner_smoke.py

echo "== pool smoke (2 lease workers, SIGKILL mid-lease, reclaim, resume) =="
python scripts/pool_smoke.py

echo "== gradient-engine benchmark (smoke) =="
python benchmarks/bench_grad_throughput.py --smoke > /dev/null
echo "ok"

echo "== training-engine benchmark (smoke) =="
python benchmarks/bench_train_throughput.py --smoke > /dev/null
echo "ok"

echo "== compiled-plan benchmark (smoke) =="
python benchmarks/bench_plan_throughput.py --smoke > /dev/null
echo "ok"

echo "== pool-scaling benchmark (smoke) =="
python benchmarks/bench_pool_scaling.py --smoke > /dev/null
echo "ok"

echo "== cold-start benchmark (smoke: fresh interpreters, per-stage set-up timings) =="
python benchmarks/bench_cold_start.py --smoke > /dev/null
echo "ok"

echo "== serve smoke (threaded coalescing, backpressure, bitwise equivalence) =="
python scripts/serve_smoke.py

echo "== serve-pool smoke (2 workers, SLO admission, SIGKILL mid-stream) =="
python scripts/serve_pool_smoke.py

echo "== serve-remote smoke (framed TCP, chaos retries, deadline shed, server SIGKILL) =="
python scripts/serve_remote_smoke.py

echo "== serve + loadgen CLI (mnist-fast; loadgen exits 1 on a label mismatch) =="
python -m repro loadgen --requests 32 > /dev/null
python -m repro serve --requests 64 > /dev/null
python -m repro serve --requests 64 --workers 2 > /dev/null
echo "ok"

echo "== serve-latency benchmark (smoke) =="
python benchmarks/bench_serve_latency.py --smoke > /dev/null
echo "ok"

echo "== e2e benchmark smoke, traced (four workloads, served labels vs DCN.classify) =="
# The tracer wraps engine, service and transport names by getattr, so a
# rename that breaks the benchmark fails here.  --trace 1 on purpose:
# --compare ignores traced records, untraced smoke records would not be.
python3 benchmarks/e2e/run.py --smoke --trace 1

echo "== e2e benchmark self-tests (the harness that gates every change) =="
python -m pytest -q benchmarks/e2e

echo "== perf smoke (bench regression gate vs committed baseline, warn-only) =="
# A --smoke run is context-mismatched with the committed full baseline by
# design; the gate reports drift without failing CI.  Full runs gate hard:
#   python benchmarks/bench_plan_throughput.py --out /tmp/bench.json
#   python -m repro bench --compare BENCH_plan_throughput.json /tmp/bench.json
python benchmarks/bench_plan_throughput.py --smoke --out /tmp/bench_plan_smoke.json > /dev/null
python -m repro bench --compare BENCH_plan_throughput.json /tmp/bench_plan_smoke.json --warn-only
python benchmarks/bench_serve_latency.py --smoke --out /tmp/bench_serve_smoke.json > /dev/null
python -m repro bench --compare BENCH_serve_latency.json /tmp/bench_serve_smoke.json --warn-only
