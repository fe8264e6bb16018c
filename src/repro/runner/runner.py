"""The resilient experiment runner: journaled, resumable unit execution.

``Runner.run(units)`` walks the plan in order.  For each unit it either

* **replays** a terminal record from the ledger (resume never re-executes a
  ledgered unit), or
* **executes** it under the :class:`~repro.runner.policy.FailurePolicy`
  (bounded retries, degradation ladder) and journals the outcome before
  moving on.

``KeyboardInterrupt`` — real or injected — exits cleanly: the ledger
already holds every completed unit, an ``interrupt`` event marks where the
run stopped, and the exception re-raises so the caller sees the interrupt.
A :class:`~repro.runner.faultinject.SimulatedCrash` propagates with *no*
cleanup, modelling a hard kill; the ledger's per-unit fsync is what makes
that survivable.

Cache corruption detected while a unit runs (checksum mismatch or an
unreadable archive, see :mod:`repro.cache`) is journaled as a
``cache-quarantine`` event through the same ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .. import cache as cache_module
from ..eval.timing import monotonic
from .ledger import Ledger, LedgerState
from .policy import FailurePolicy, execute_unit
from .units import WorkUnit

__all__ = ["Runner", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one :meth:`Runner.run` call."""

    records: dict[str, dict]  # unit key -> terminal record
    executed: list[str] = field(default_factory=list)
    replayed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)  # failed among records
    torn_lines: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed

    def coverage(self, units: list[WorkUnit]) -> dict[str, tuple[int, int]]:
        """Per-cell ``(n_ok, n_total)`` over the planned units."""
        cells: dict[str, tuple[int, int]] = {}
        for unit in units:
            ok, total = cells.get(unit.cell, (0, 0))
            record = self.records.get(unit.key)
            succeeded = bool(record) and record.get("status") == "ok"
            cells[unit.cell] = (ok + int(succeeded), total + 1)
        return cells


class Runner:
    """Executes work units with journaling, resume and fault isolation.

    Parameters
    ----------
    ledger:
        A :class:`~repro.runner.ledger.Ledger`, a path (one is opened for
        it), or ``None`` for an ephemeral in-memory run (no journaling —
        the mode the plain table functions use).
    policy:
        The :class:`~repro.runner.policy.FailurePolicy`; defaults to three
        attempts.  Guard enforcement and the degradation ladder are always
        on.
    resume:
        When true (default) terminal records already in the ledger are
        replayed instead of re-executed.  ``False`` starts fresh — the
        ledger file is atomically truncated first.
    """

    def __init__(
        self,
        ledger: Ledger | str | Path | None = None,
        policy: FailurePolicy | None = None,
        resume: bool = True,
    ):
        if ledger is not None and not isinstance(ledger, Ledger):
            ledger = Ledger(ledger, fresh=not resume)
        elif isinstance(ledger, Ledger) and not resume:
            ledger._truncate()
        self.ledger = ledger
        self.policy = policy or FailurePolicy()
        self.resume = resume

    def replayable(self) -> LedgerState:
        """The ledger's current replayable state (empty for ephemeral runs)."""
        if self.ledger is None or not self.resume:
            return LedgerState()
        return self.ledger.replay()

    def run(self, units: list[WorkUnit], injector=None, retry_failed: bool = False) -> RunResult:
        """Execute ``units`` in order; see the module docstring.

        ``retry_failed=True`` re-executes ledgered *failed* units (completed
        ones are always replayed); the default honours the ledger verbatim,
        so a resumed run never re-executes any ledgered unit.
        """
        start = monotonic()
        state = self.replayable()
        result = RunResult(records={}, torn_lines=state.torn_lines)
        keys = {unit.key for unit in units}
        # Carry over ledgered records for units in this plan only.
        for key, record in state.units.items():
            if key in keys:
                result.records[key] = record

        listener = None
        if self.ledger is not None:
            ledger = self.ledger

            def listener(path, reason):  # noqa: ANN001 - cache listener signature
                ledger.event("cache-quarantine", path=str(path), reason=reason)

            cache_module.add_corruption_listener(listener)
            ledger.event(
                "run-start",
                units=len(units),
                replayable=len(result.records),
                torn_lines=state.torn_lines,
            )
        try:
            for unit in units:
                prior = result.records.get(unit.key)
                if prior is not None and (prior.get("status") == "ok" or not retry_failed):
                    result.replayed.append(unit.key)
                    continue
                try:
                    if injector is not None:
                        injector.before_unit(unit, len(result.executed))
                    record = execute_unit(unit, self.policy, injector, len(result.executed))
                except KeyboardInterrupt:
                    # Clean interrupt: everything journaled so far survives;
                    # mark where the run stopped and let the signal through.
                    if self.ledger is not None:
                        self.ledger.event("interrupt", unit=unit.key)
                    raise
                record = {"kind": "unit", "key": unit.key, **record}
                if self.ledger is not None:
                    self.ledger.append(record)
                result.records[unit.key] = record
                result.executed.append(unit.key)
            result.failed = [
                key for key, rec in result.records.items() if rec.get("status") != "ok"
            ]
            if self.ledger is not None:
                self.ledger.event(
                    "run-end",
                    executed=len(result.executed),
                    replayed=len(result.replayed),
                    failed=len(result.failed),
                )
        finally:
            if listener is not None:
                cache_module.remove_corruption_listener(listener)
        result.seconds = monotonic() - start
        return result
