"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e

(``benchmarks/conftest.py`` imports the program, hence ``PYTHONPATH``.)
"""

from __future__ import annotations

import json
import multiprocessing
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from tracing import PER_LAYER, SpanIndex, Tracer, layer_metrics, server_handle_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- seeded inputs -------------------------------------------------------------


def test_schedule_is_a_pure_function_of_the_seed():
    a = measure.poisson_schedule(2500.0, 2.0, np.random.default_rng(7))
    b = measure.poisson_schedule(2500.0, 2.0, np.random.default_rng(7))
    c = measure.poisson_schedule(2500.0, 2.0, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a[: min(len(a), len(c))], c[: min(len(a), len(c))])
    assert np.all(np.diff(a) > 0) and a[0] >= 0 and a[-1] < 2.0
    assert abs(len(a) - 5000) < 5 * np.sqrt(5000)


def test_mixed_rows_fix_the_adversarial_count():
    rows = measure.mixed_rows(1000, 800, 108, 0.10, np.random.default_rng(3))
    again = measure.mixed_rows(1000, 800, 108, 0.10, np.random.default_rng(3))
    np.testing.assert_array_equal(rows, again)
    assert int((rows >= 800).sum()) == 100
    assert rows.min() >= 0 and rows.max() < 908
    # Spread evenly: every stretch of ten holds exactly one adversarial row.
    assert np.all((rows.reshape(100, 10) >= 800).sum(axis=1) == 1)
    benign_only = measure.mixed_rows(50, 800, 0, 0.0, np.random.default_rng(3))
    assert benign_only.max() < 800


# -- latency arithmetic --------------------------------------------------------


def test_windowed_p99_is_the_median_of_window_p99s():
    rng = np.random.default_rng(0)
    latencies = rng.exponential(1.0, size=3500)
    latencies[100:150] = 1e6  # one stall inflates one window only
    p99, windows = measure.windowed(latencies, 99)
    assert len(windows) == 3
    chunks = np.array_split(latencies, 3)
    assert windows == pytest.approx([np.percentile(chunk, 99) for chunk in chunks])
    assert p99 == pytest.approx(sorted(windows)[1])
    assert p99 < 100 < measure.percentile(latencies, 99)


def test_windowed_with_fewer_samples_than_a_window():
    values = list(range(1, 101))
    p99, windows = measure.windowed(values, 99)
    assert len(windows) == 1
    assert p99 == pytest.approx(np.percentile(values, 99))
    assert np.isnan(measure.windowed([], 99)[0])


def test_nominal_latencies_keep_the_batching_window():
    # On a host 1.5x slower than nominal: 2 ms of window plus 3 ms of work.
    nominal = measure.nominal_latencies([0.005, 0.0035], [1.5, 1.5], 0.002)
    np.testing.assert_allclose(nominal, [0.004, 0.003])
    np.testing.assert_allclose(measure.nominal_latencies([0.05], [2.0], 0.0), [0.025])


def test_host_probe_phases_take_the_mean_of_their_two_probes():
    probe = measure.HostProbe()
    first = probe.mark()
    second = probe.mark()
    probe.probe()
    assert (first, second) == (0, 1) and len(probe.samples) == 3
    nominal = measure.PROBE_NOMINAL_S
    assert probe.around(first) == pytest.approx((probe.samples[0] + probe.samples[1]) / 2 / nominal)
    assert probe.factor() == pytest.approx(probe.samples[-1] / nominal)  # fresh: no new probe
    assert len(probe.samples) == 3
    assert all(s > 0 for s in probe.samples)


def test_due_time_latency_charges_generator_stalls():
    due = np.array([0.0, 0.001, 0.002, 0.003])
    sent = np.array([0.0, 0.010, 0.010, 0.010])  # the generator stalled 9 ms
    service = 0.002
    done = sent + service
    latency = measure.due_latencies(due, done)
    np.testing.assert_allclose(latency, [0.002, 0.011, 0.010, 0.009])
    np.testing.assert_allclose(done - sent, service)  # send-time timing hides the stall


def test_quartiles_and_bounds_arithmetic():
    assert measure.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert measure.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert measure.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert measure.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)


# -- spans ---------------------------------------------------------------------


class _Layer:
    def inner(self, x):
        time.sleep(0.02)
        return x

    def outer(self, x):
        time.sleep(0.01)
        return self.inner(x) + self.inner(x)

    def stage(self, x):
        return self.outer(x)


def test_wrapped_calls_nest_on_the_calling_thread(tmp_path):
    tracer = Tracer(tmp_path)
    layer = _Layer()
    for name in ("inner", "outer", "stage"):
        tracer.wrap(layer, name, name, rows=lambda args: args[0])
    assert layer.stage(3) == 6
    index = SpanIndex(tracer.collect())
    (stage,), (outer,) = index.named("stage"), index.named("outer")
    inners = index.named("inner")
    assert len(inners) == 2 and all(s.parent == outer.id for s in inners)
    assert outer.parent == stage.id and stage.parent == 0
    seconds, rows = index.covered(stage, ("inner",))
    assert seconds == pytest.approx(sum(s.seconds for s in inners))
    assert rows == 6
    assert index.has_ancestor(inners[0], ("stage",))


def test_self_time_is_the_span_minus_its_timed_children():
    from tracing import Span

    # One corrector call on 2 rows: 2 ms of model forwards (100 rows, one of
    # them nested one level down), 0.5 ms of noise streams, 1.5 ms of its own.
    spans = [
        Span(1, 1, 0, "corrector", 0.000, 0.004, "t", 2, 0.0),
        Span(1, 2, 1, "region.input_rng", 0.0000, 0.0005, "t", 0, 0.0),
        Span(1, 3, 1, "engine.logits", 0.0010, 0.0025, "t", 75, 0.0),
        Span(1, 4, 1, "helper", 0.0030, 0.0036, "t", 0, 0.0),
        Span(1, 5, 4, "engine.logits", 0.0030, 0.0035, "t", 25, 0.0),
    ]
    m = layer_metrics(spans)
    assert m["corrector.ms_per_row"] == pytest.approx(2.0)
    assert m["corrector.forward_ms_per_row"] == pytest.approx(1.0)
    assert m["corrector.rng_ms_per_row"] == pytest.approx(0.25)
    assert m["corrector.self_ms_per_row"] == pytest.approx(0.75)
    assert m["corrector.forwards_per_row"] == pytest.approx(50.0)
    assert m["engine.forward_ms"] == 0.0  # every forward ran under the corrector


def _child_calls(layer):
    layer.inner(1)


def test_forked_children_dump_their_spans(tmp_path):
    tracer = Tracer(tmp_path)
    layer = _Layer()
    tracer.wrap(layer, "inner", "inner")
    layer.inner(1)
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_child_calls, args=(layer,))
    proc.start()
    proc.join(10)
    assert proc.exitcode == 0
    spans = tracer.collect()
    assert len(spans) == 2
    assert len({s.pid for s in spans}) == 2  # the child recorded only its own call


def test_server_handle_pairs_decode_with_next_write_on_one_thread(tmp_path):
    from tracing import Span

    spans = [
        Span(1, 1, 0, "transport.server_decode", 0.0, 0.1, "a", 0, 0.0),
        Span(1, 2, 0, "transport.server_decode", 0.05, 0.06, "b", 0, 0.0),
        Span(1, 3, 0, "transport.server_write", 0.5, 0.6, "a", 10, 0.0),
        Span(1, 4, 0, "transport.server_write", 0.2, 0.3, "b", 10, 0.0),
    ]
    assert sorted(server_handle_times(spans)) == pytest.approx([0.25, 0.6])


def test_layer_metrics_report_every_per_layer_metric():
    metrics = layer_metrics([])
    assert set(metrics) == set(PER_LAYER)
    assert all(value == 0.0 for value in metrics.values())


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_limits():
    raw = (ROOT / "BENCHMARK.json").read_text()
    assert len(raw.encode()) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_per_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == {name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()}
    for name, (_, _, moves, workload) in PER_LAYER.items():
        assert moves in end_to_end, name
        assert workload in workloads, name


# -- the command ---------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_smoke_pass_checks_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in results] == [w["name"] for w in spec["workloads"]]
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert set(r["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in r["metrics"].values())
