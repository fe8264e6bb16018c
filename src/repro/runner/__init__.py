"""Resilient experiment runner: checkpointed, fault-isolated table runs.

Every table/figure decomposes into addressable :class:`WorkUnit`\\ s
(per dataset x defense x attack x seed-chunk).  The :class:`Runner`
executes them under a :class:`FailurePolicy` — bounded retries, wall-clock
budgets, and a degradation ladder that re-runs guard-tripped units on
fresh float64 plan engines — journaling each terminal outcome to an
append-only crash-safe :class:`Ledger`.  A killed run resumes by replaying
the ledger: completed units are never re-executed, and finished tables
report per-cell coverage instead of dying on the first bad unit.

:class:`WorkerPool` (``pool.py``) shards a plan across N forked worker
processes that lease units from the same ledger — lease/heartbeat/expiry
records in the JSONL stream, deterministic reclamation of dead workers'
units, byte-identical tables versus a sequential run.

:mod:`repro.runner.faultinject` is the deterministic chaos harness the
test suite drives this machinery with; :mod:`repro.runner.experiments`
(imported lazily — it pulls in the full eval harness) maps the paper's
tables onto unit plans.
"""

from __future__ import annotations

from .faultinject import (
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedError,
    SimulatedCrash,
)
from .ledger import Ledger, LedgerState, new_lease_id
from .policy import NUMERICAL_ERRORS, FailurePolicy, UnitFailure, degraded_engines, execute_unit
from .pool import PoolConfig, WorkerPool, fork_available
from .runner import Runner, RunResult
from .units import WorkUnit, cell_key

__all__ = [
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedError",
    "SimulatedCrash",
    "Ledger",
    "LedgerState",
    "new_lease_id",
    "NUMERICAL_ERRORS",
    "FailurePolicy",
    "UnitFailure",
    "degraded_engines",
    "execute_unit",
    "PoolConfig",
    "WorkerPool",
    "fork_available",
    "Runner",
    "RunResult",
    "WorkUnit",
    "cell_key",
]
