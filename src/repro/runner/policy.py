"""Failure policy: bounded retries, budgets, and the degradation ladder.

A unit attempt can end four ways:

* **ok** — its payload is journaled and the run moves on.
* **numerical failure** — a :class:`~repro.verify.guards.GuardViolation`
  (NaN/Inf, dtype drift, aliasing) or a ``FloatingPointError``.  The
  degradation ladder retries the unit once on **fresh float64 plan
  engines** (:func:`degraded_engines`): float32 is the optimisation,
  float64 plans track the autograd reference, so a numerical hiccup costs
  one slower retry instead of the whole run.
* **ordinary error** — retried up to ``max_attempts`` with deterministic
  exponential backoff (no jitter: chaos tests replay schedules exactly).
* **budget exhausted** — a unit that has already burned its wall-clock
  budget is not retried again; the failure is journaled instead.

Whatever the path, a unit never takes the run down with it: the terminal
outcome is a structured :class:`UnitFailure` in the ledger and a coverage
hole in the finished table, not a lost job.  ``KeyboardInterrupt`` and the
fault injector's ``SimulatedCrash`` are the deliberate exceptions — they
propagate so the runner can journal the interrupt and the chaos suite can
model a hard kill.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from ..eval.timing import monotonic
from ..verify import guards
from ..verify.guards import GuardViolation

__all__ = [
    "NUMERICAL_ERRORS",
    "FailurePolicy",
    "UnitFailure",
    "degraded_engines",
    "execute_unit",
]

# Failure classes the degradation ladder can do something about: guard trips
# at engine boundaries and hard FP traps from `np.errstate(... raise ...)`.
NUMERICAL_ERRORS = (GuardViolation, FloatingPointError)


@dataclass(frozen=True)
class FailurePolicy:
    """How the runner treats a failing unit.

    Guards are always enforced while a unit runs, so NaN/Inf traps at the
    engine boundary where the ladder can catch it, and the degradation
    ladder is always on: the first numerical failure retries on float64.
    """

    max_attempts: int = 3  # total attempts, including the first
    backoff_base: float = 0.0  # seconds; attempt k sleeps base * 2**(k-1)
    unit_budget_seconds: float | None = None  # wall-clock budget across attempts

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass
class UnitFailure:
    """Structured capture of a unit's terminal failure."""

    unit: str
    error: str  # exception class name
    message: str
    kind: str  # "numerical" | "error" | "budget"
    attempts: int
    degraded: bool  # whether the float64 rung was tried
    traceback: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)  # engine counters at failure
    digest: str = ""  # the unit's RNG/input digest
    guard_where: str = ""  # GuardViolation boundary, when that's the cause
    guard_kind: str = ""  # "nonfinite" | "dtype" | "aliasing"

    def as_record(self) -> dict:
        return asdict(self)


def _engine_counters(networks: tuple) -> dict:
    """Counters of every engine the unit's networks have instantiated."""
    totals: dict[str, float] = {}
    for index, net in enumerate(networks):
        prefix = f"net{index}." if len(networks) > 1 else ""
        for label, attr in (("infer", "_engine"), ("grad", "_grad_engine"), ("train", "_train_engine")):
            engine = getattr(net, attr, None)
            if engine is None:
                continue
            for key, value in engine.counters.as_dict().items():
                totals[f"{prefix}{label}_{key}"] = value
    return totals


def _capture(unit, exc: BaseException, kind: str, attempts: int, degraded: bool) -> UnitFailure:
    tb = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(tb).strip().splitlines()[-12:]
    try:
        networks = unit.resolve_networks()
    except Exception:
        networks = ()
    return UnitFailure(
        unit=unit.key,
        error=type(exc).__name__,
        message=str(exc),
        kind=kind,
        attempts=attempts,
        degraded=degraded,
        traceback=tail,
        counters=_engine_counters(networks),
        digest=unit.digest,
        guard_where=getattr(exc, "where", ""),
        guard_kind=getattr(exc, "kind", ""),
    )


@contextmanager
def degraded_engines(networks) -> Iterator[None]:
    """Serve every engine surface of ``networks`` from fresh float64 plan
    engines for the duration — the degradation ladder's reference rung.

    The float32 engines are replaced wholesale (new plans, casts and memo),
    so whatever numerical state tripped a guard in the optimised path
    cannot recur; the training engine is pinned so a ``fit`` inside the
    rung keeps it.  The originals are restored on exit.
    """
    from ..nn.engine import InferenceEngine
    from ..nn.grad_engine import GradientEngine
    from ..nn.train_engine import TrainingEngine

    saved = []
    try:
        for net in networks:
            saved.append((net, net._engine, net._grad_engine, net._train_engine))
            train_engine = TrainingEngine(net, dtype=np.float64)
            train_engine.pinned = True
            net.attach_engine(InferenceEngine(net, dtype=np.float64))
            net.attach_grad_engine(GradientEngine(net, dtype=np.float64))
            net.attach_train_engine(train_engine)
        yield
    finally:
        for net, engine, grad_engine, train_engine in saved:
            net._engine = engine
            net._grad_engine = grad_engine
            net._train_engine = train_engine


def execute_unit(unit, policy: FailurePolicy, injector=None, index: int = 0) -> dict:
    """Run one unit under ``policy``; returns a terminal ledger record dict.

    Never raises for unit errors — the failure is the record.  Only
    ``KeyboardInterrupt`` (user/simulated SIGINT) and the chaos harness's
    ``SimulatedCrash`` propagate.
    """
    start = monotonic()
    degraded = False
    failure: UnitFailure | None = None
    attempt = 0
    while attempt < policy.max_attempts:
        if (
            attempt > 0
            and policy.unit_budget_seconds is not None
            and monotonic() - start >= policy.unit_budget_seconds
        ):
            assert failure is not None
            failure.kind = "budget"
            failure.message += " (wall-clock budget exhausted; not retried)"
            break
        if attempt > 0 and policy.backoff_base > 0 and not degraded:
            time.sleep(policy.backoff_base * 2 ** (attempt - 1))
        attempt_ctx = (
            injector.attempt(unit, index, attempt, degraded) if injector is not None else nullcontext()
        )
        try:
            with guards.enforce(), attempt_ctx:
                if degraded:
                    with degraded_engines(unit.resolve_networks()):
                        payload = unit.run()
                else:
                    payload = unit.run()
            return {
                "status": "ok",
                "payload": payload,
                "attempts": attempt + 1,
                "degraded": degraded,
                "seconds": monotonic() - start,
                "failure": failure.as_record() if failure is not None else None,
            }
        except NUMERICAL_ERRORS as exc:
            attempt += 1
            # The ladder's next rung: later attempts run on fresh float64
            # engines before the unit is given up.
            degraded = True
            failure = _capture(unit, exc, "numerical", attempt, degraded)
        except Exception as exc:
            attempt += 1
            failure = _capture(unit, exc, "error", attempt, degraded)
    assert failure is not None
    return {
        "status": "failed",
        "payload": None,
        "attempts": attempt,
        "degraded": degraded,
        "seconds": monotonic() - start,
        "failure": failure.as_record(),
    }
