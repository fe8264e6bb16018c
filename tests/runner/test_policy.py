"""FailurePolicy unit tests: retries, budgets, backoff, degradation."""

import numpy as np
import pytest

import repro.runner.policy as policy_module
from repro.nn import SGD, Dense, Flatten, Network, ReLU, TrainConfig, fit
from repro.runner import FailurePolicy, WorkUnit, degraded_engines, execute_unit


def _unit(fn, networks=()):
    return WorkUnit(experiment="t", fn=fn, networks=networks)


def test_retry_then_success():
    calls = []

    def fn():
        calls.append(1)
        if len(calls) < 3:
            raise RuntimeError("flaky")
        return {"v": 1}

    record = execute_unit(_unit(fn), FailurePolicy(max_attempts=3))
    assert record["status"] == "ok"
    assert record["attempts"] == 3
    assert record["payload"] == {"v": 1}
    # The last failure before success is preserved for post-mortems.
    assert record["failure"]["error"] == "RuntimeError"


def test_attempts_exhausted_yields_structured_failure():
    def fn():
        raise ValueError("always broken")

    record = execute_unit(_unit(fn), FailurePolicy(max_attempts=2))
    assert record["status"] == "failed"
    assert record["attempts"] == 2
    failure = record["failure"]
    assert failure["error"] == "ValueError"
    assert failure["kind"] == "error"
    assert failure["unit"] == "t/-/-/-/-"
    assert any("always broken" in line for line in failure["traceback"])


def test_budget_exhaustion_stops_retries():
    calls = []

    def fn():
        calls.append(1)
        raise RuntimeError("slow failure")

    policy = FailurePolicy(max_attempts=5, unit_budget_seconds=0.0)
    record = execute_unit(_unit(fn), policy)
    assert record["status"] == "failed"
    assert len(calls) == 1  # budget checked before every retry
    assert record["failure"]["kind"] == "budget"
    assert "budget" in record["failure"]["message"]


def test_backoff_is_deterministic(monkeypatch):
    sleeps = []
    monkeypatch.setattr(policy_module.time, "sleep", sleeps.append)

    def fn():
        raise RuntimeError("nope")

    execute_unit(_unit(fn), FailurePolicy(max_attempts=4, backoff_base=0.5))
    assert sleeps == [0.5, 1.0, 2.0]


def test_non_dict_payload_is_a_failure():
    record = execute_unit(_unit(lambda: [1, 2]), FailurePolicy(max_attempts=1))
    assert record["status"] == "failed"
    assert record["failure"]["error"] == "TypeError"


def test_policy_validation():
    with pytest.raises(ValueError):
        FailurePolicy(max_attempts=0)


def _small_network():
    rng = np.random.default_rng(0)
    return Network([Flatten(), Dense(16, 8, rng), ReLU(), Dense(8, 4, rng)], (1, 4, 4))


def test_degraded_engines_swap_and_restore():
    network = _small_network()
    rng = np.random.default_rng(1)
    x, labels = rng.normal(size=(3, 1, 4, 4)), np.array([0, 1, 2])
    original = (network.engine, network.grad_engine, network.train_engine)
    assert original[0].dtype == np.dtype(np.float32)

    with degraded_engines([network]):
        engines = (network.engine, network.grad_engine, network.train_engine)
        assert all(engine.dtype == np.dtype(np.float64) for engine in engines)
        assert network.engine.logits(x).dtype == np.float64
        assert network.grad_engine.cross_entropy_input_grad(x, labels).dtype == np.float64
        _, logits = network.train_engine.train_batch(x, labels)
        assert logits.dtype == np.float64
        # Every surface is plan-backed: its first call compiled a float64 plan.
        assert [engine.counters.plan_misses for engine in engines] == [1, 1, 1]

    assert (network.engine, network.grad_engine, network.train_engine) == original


def test_fit_inside_degraded_rung_keeps_float64_engine():
    network = _small_network()
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(8, 1, 4, 4)), rng.integers(0, 4, size=8)
    config = TrainConfig(epochs=1, batch_size=4, dtype="float32")

    with degraded_engines([network]):
        rung = network.train_engine
        fit(network, SGD(network.parameters(), lr=0.1), x, y, config, rng)
        assert network.train_engine is rung
        assert rung.dtype == np.dtype(np.float64)
        assert rung.counters.batches == 2

    assert network.train_engine.dtype == np.dtype(np.float32)
    assert not network.train_engine.pinned


def test_degraded_engines_restore_on_error():
    network = _small_network()
    original = network.engine
    with pytest.raises(RuntimeError):
        with degraded_engines([network]):
            raise RuntimeError("unit body exploded")
    assert network.engine is original
