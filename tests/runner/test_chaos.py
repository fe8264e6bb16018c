"""Hypothesis chaos tests: the runner's recovery properties, proven.

Three properties anchor the fault-injection harness:

(a) **No silent losses** — every injected fault is either retried to
    success or surfaces as a structured ``UnitFailure`` in the records.
(b) **No re-execution** — resume after a crash/interrupt never re-executes
    a ledgered unit.
(c) **Degradation ladder** — a guard trip (NaN gradient) retries the unit
    on fresh float64 plan engines, whose result agrees with the healthy
    float32 path within the cross-engine verifier's budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, Flatten, Network, ReLU
from repro.runner import (
    FailurePolicy,
    Fault,
    FaultInjector,
    FaultPlan,
    Runner,
    SimulatedCrash,
    WorkUnit,
)
from repro.verify.differ import REL_BUDGET

pytestmark = pytest.mark.chaos

NUM_UNITS = 6
MAX_ATTEMPTS = 3


def _plan_units(calls):
    """Synthetic units that count their executions in ``calls``."""

    def make(i):
        def fn():
            calls[i] = calls.get(i, 0) + 1
            return {"value": i * i}

        return WorkUnit(experiment="chaos", attack=f"u{i}", fn=fn)

    return [make(i) for i in range(NUM_UNITS)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 3))
def test_every_injected_fault_retried_or_surfaced(seed, count):
    """Property (a): injected raises end as success-after-retry or UnitFailure."""
    plan = FaultPlan.generate(seed, NUM_UNITS, kinds=("raise",), count=count, attempts=(1, 4))
    calls = {}
    result = Runner(policy=FailurePolicy(max_attempts=MAX_ATTEMPTS)).run(
        _plan_units(calls), injector=FaultInjector(plan)
    )

    # Attempts poisoned per unit index: the max over faults aimed at it.
    poisoned = {}
    for fault in plan.faults:
        poisoned[fault.unit_index] = max(poisoned.get(fault.unit_index, 0), fault.attempts)

    for i in range(NUM_UNITS):
        record = result.records[f"chaos/-/-/u{i}/-"]
        bad = poisoned.get(i, 0)
        if bad >= MAX_ATTEMPTS:
            assert record["status"] == "failed"
            assert record["failure"]["error"] == "InjectedError"
            assert record["attempts"] == MAX_ATTEMPTS
        else:
            assert record["status"] == "ok"
            assert record["payload"] == {"value": i * i}
            assert record["attempts"] == bad + 1
            if bad:
                assert record["failure"]["error"] == "InjectedError"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["crash", "interrupt"]))
def test_resume_never_reexecutes_ledgered_units(tmp_path_factory, seed, kind):
    """Property (b): after a kill at any unit boundary, resume executes only
    the units the ledger does not already hold."""
    path = tmp_path_factory.mktemp("chaos") / f"{kind}-{seed}.jsonl"
    crash_at = seed % NUM_UNITS
    plan = FaultPlan(faults=(Fault(kind=kind, unit_index=crash_at),), seed=seed)

    calls = {}
    units = _plan_units(calls)
    with pytest.raises((SimulatedCrash, KeyboardInterrupt)):
        Runner(ledger=path).run(units, injector=FaultInjector(plan))
    assert all(n == 1 for n in calls.values())
    journaled = set(calls)
    assert len(journaled) == crash_at  # everything before the kill, nothing after

    resumed_calls = {}
    result = Runner(ledger=path).run(_plan_units(resumed_calls))
    assert set(resumed_calls).isdisjoint(journaled)
    assert journaled | set(resumed_calls) == set(range(NUM_UNITS))
    assert sorted(result.replayed) == sorted(f"chaos/-/-/u{i}/-" for i in journaled)
    assert result.ok and len(result.records) == NUM_UNITS


def _grad_network():
    rng = np.random.default_rng(7)
    return Network([Flatten(), Dense(16, 12, rng), ReLU(), Dense(12, 4, rng)], (1, 4, 4))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_guard_trip_degrades_to_float64_fallback(seed):
    """Property (c): a NaN gradient trips the guard, the unit retries on
    the float64 engines, and their result agrees with the healthy float32
    path within the verifier's float32 budget."""
    network = _grad_network()
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 1, 4, 4))
    labels = rng.integers(0, 4, size=5)

    healthy = np.array(network.grad_engine.cross_entropy_input_grad(x, labels), dtype=np.float64)

    def fn():
        grad = network.grad_engine.cross_entropy_input_grad(x, labels)
        return {"grad": np.asarray(grad, dtype=np.float64).ravel().tolist()}

    unit = WorkUnit(experiment="chaos", attack="nan-grad", fn=fn, networks=(network,))
    plan = FaultPlan(faults=(Fault(kind="nan-grad", unit_index=0, attempts=99),), seed=seed)
    injector = FaultInjector(plan)
    result = Runner(policy=FailurePolicy(max_attempts=3)).run([unit], injector=injector)

    record = result.records[unit.key]
    assert record["status"] == "ok"
    assert record["degraded"] is True
    assert record["attempts"] == 2  # one guard trip, one fallback success
    failure = record["failure"]
    assert failure["kind"] == "numerical"
    assert failure["error"] == "GuardViolation"
    assert failure["guard_kind"] == "nonfinite"
    assert failure["guard_where"] == "faultinject.nan_gradient"
    assert injector.fired  # the poison actually fired

    degraded = np.array(record["payload"]["grad"]).reshape(healthy.shape)
    assert np.isfinite(degraded).all()
    rel = np.abs(degraded - healthy).max() / max(1.0, np.abs(healthy).max())
    assert rel <= REL_BUDGET[np.dtype(np.float32)]
    # The poison and the fallback are both gone afterwards.
    assert network.grad_engine.dtype == np.dtype(np.float32)
    assert network.train_engine.dtype == np.dtype(np.float32)
    assert not network.train_engine.pinned


def test_run_coverage_reports_holes_not_exceptions(tmp_path):
    """An exhausted unit becomes a coverage hole; the run still finishes."""
    units = _plan_units({})
    plan = FaultPlan(faults=(Fault(kind="raise", unit_index=2, attempts=99),), seed=0)
    result = Runner(
        ledger=tmp_path / "run.jsonl", policy=FailurePolicy(max_attempts=2)
    ).run(units, injector=FaultInjector(plan))

    assert not result.ok
    assert result.failed == ["chaos/-/-/u2/-"]
    coverage = result.coverage(units)
    assert coverage["chaos/-/-/u2"] == (0, 1)
    assert all(cov == (1, 1) for cell, cov in coverage.items() if cell != "chaos/-/-/u2")


def test_corrupt_cache_fault_quarantines_and_journals(tmp_path, monkeypatch):
    """A corrupted cache entry is quarantined, journaled as a ledger event,
    and transparently rebuilt by the unit that hits it."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
    from repro.cache import memoize_arrays

    spec = {"kind": "chaostest", "n": 3}
    builds = []

    def build():
        builds.append(1)
        return {"x": np.arange(3.0)}

    memoize_arrays(spec, build)  # seed the cache with one entry

    unit = WorkUnit(
        experiment="chaos",
        attack="cache",
        fn=lambda: {"total": float(memoize_arrays(spec, build)["x"].sum())},
    )
    plan = FaultPlan(faults=(Fault(kind="corrupt-cache", unit_index=0),), seed=3)
    ledger_path = tmp_path / "run.jsonl"
    result = Runner(ledger=ledger_path).run([unit], injector=FaultInjector(plan))

    assert result.ok
    assert result.records[unit.key]["payload"] == {"total": 3.0}
    assert len(builds) == 2  # rebuilt after quarantine
    quarantined = list((tmp_path / "cache").glob("*.corrupt"))
    assert len(quarantined) == 1
    from repro.runner import Ledger

    events = [e for e in Ledger(ledger_path).replay().events if e["event"] == "cache-quarantine"]
    assert len(events) == 1
    assert events[0]["path"].endswith(".corrupt")


def test_nan_grad_engine_poisons_jacobian_slots():
    """The poisoned engine honours ``backward(out=...)``: ``jacobian``
    writes each gradient into its result slot, so the poison must land
    there too, and trip the guard where a genuine kernel NaN would."""
    from repro.runner.faultinject import _NaNGradientEngine
    from repro.verify import guards

    engine = _NaNGradientEngine(_grad_network())
    x = np.random.default_rng(0).normal(size=(3, 1, 4, 4))
    with guards.enforce(False):
        assert np.isnan(engine.jacobian(x)).all()
    with guards.enforce(True), pytest.raises(guards.GuardViolation) as trip:
        engine.jacobian(x)
    assert trip.value.where == "faultinject.nan_gradient"
