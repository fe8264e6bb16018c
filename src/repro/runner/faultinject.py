"""Deterministic chaos harness: seeded fault plans for the runner.

The recovery paths of :mod:`repro.runner` are useless unless proven, and
faults that only occur "sometimes" cannot anchor a test suite.  This module
makes failure *reproducible*: a :class:`FaultPlan` is a pure function of a
seed, and a :class:`FaultInjector` fires its faults at exact unit/attempt
boundaries through the runner's two hook points.

Fault kinds
-----------
``raise``
    An :class:`InjectedError` raised inside the unit's attempt(s) — a
    generic mid-unit exception.  ``attempts`` controls how many consecutive
    attempts fail, so a plan can express both "retried to success" and
    "exhausts the policy".
``nan-grad``
    The unit's primary network gets a poisoned gradient engine whose every
    backward pass returns NaN.  With guards enforced this trips a
    :class:`~repro.verify.guards.GuardViolation` at the engine boundary and
    exercises the degradation ladder; with guards off the NaN propagates —
    exactly the corruption the ladder exists to stop.  Degraded attempts
    are not poisoned: the fault models the fused path failing while the
    autograd reference stays sound.
``corrupt-cache``
    Garbage is written over one existing ``.npz`` cache entry (picked
    deterministically), exercising checksum quarantine on the next load.
``interrupt``
    ``KeyboardInterrupt`` at a unit boundary — a simulated SIGINT.
``crash``
    :class:`SimulatedCrash` (a ``BaseException``) at a unit boundary — a
    hard kill with no cleanup; only the ledger's crash-safety saves the run.
``sigkill``
    A **real** ``SIGKILL`` to the executing process at a unit boundary —
    the worker-pool death scenario.  Unlike ``crash`` (an exception the
    parent test catches), nothing survives: no ``finally`` blocks, no
    lease release — the unit's lease must expire and be reclaimed by a
    surviving worker.  Only meaningful inside a forked pool worker.
``hb-stall``
    Suppresses the worker pool's heartbeats while the matching unit runs,
    modelling a wedged-but-alive worker: its lease expires mid-execution
    and another worker may reclaim the unit.  Queried by the pool through
    :meth:`FaultInjector.heartbeats_stalled`.
``step-raise``
    For synthetic units that call :meth:`FaultInjector.step` as a
    cooperative checkpoint: raises when the global step counter hits
    ``step`` — "raise at step N" inside a unit body.

Transport chaos
---------------
The serving transport (:mod:`repro.serve.transport`) has its own failure
surface — the network — with its own kinds (:data:`TRANSPORT_KINDS`),
fired by :class:`TransportChaos` on the server's reply path.  A fault's
``unit_index`` is reinterpreted as the **server-wide request ordinal**:

``conn-drop``
    The connection is closed abruptly instead of replying — the client
    observes a torn/absent reply and must retry (no ack was sent, so the
    retry is idempotent-safe).
``sock-stall``
    The reply is withheld for ``stall_s`` seconds — the client's deadline
    fires mid-read and the call resolves as a deadline shed.
``server-kill``
    A **real** ``SIGKILL`` to the serving process instead of a reply —
    the remote analogue of the pool's ``sigkill``; only meaningful when
    the server runs in a child process (the smoke script's scenario).
``torn-frame``
    Half a response frame is written, then the connection closed — the
    torn-reply replay case: the client must classify it as retryable and
    re-request, never hand a truncated array to the caller.


Pool scoping
------------
A :class:`Fault` may carry ``worker=N`` so it fires only inside pool
worker ``N`` (the pool sets :attr:`FaultInjector.worker_id` after fork);
``worker=None`` (default) fires in any process.  ``unit_index`` remains
the ordinal among units *executed by that process*, which is what makes
single-process chaos plans replay unchanged under the pool.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..cache import cache_dir
from ..nn.grad_engine import GradientEngine
from ..verify import guards

__all__ = [
    "ALL_KINDS",
    "TRANSPORT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "TransportChaos",
    "InjectedError",
    "SimulatedCrash",
]

ALL_KINDS = ("raise", "nan-grad", "corrupt-cache", "interrupt", "crash", "sigkill", "hb-stall")
TRANSPORT_KINDS = ("conn-drop", "sock-stall", "server-kill", "torn-frame")


class InjectedError(RuntimeError):
    """A deterministic fault injected by the chaos harness."""


class SimulatedCrash(BaseException):
    """A simulated hard kill (power loss, OOM-kill) between units.

    Deliberately a ``BaseException``: nothing in the runner's recovery
    machinery may catch it — recovery happens on the *next* run, from the
    ledger alone.
    """


@dataclass(frozen=True)
class Fault:
    """One injection point in a plan."""

    kind: str
    unit_index: int  # ordinal among *executed* (non-replayed) units
    attempts: int = 1  # for "raise"/"nan-grad": consecutive attempts poisoned
    step: int = 0  # for "step-raise": global cooperative-step ordinal
    worker: int | None = None  # pool worker id this fault is scoped to (None: any)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults — a pure function of its seed."""

    faults: tuple[Fault, ...]
    seed: int = 0

    @classmethod
    def generate(
        cls,
        seed: int,
        num_units: int,
        kinds: Sequence[str] = ("raise",),
        count: int = 1,
        attempts: tuple[int, int] = (1, 2),
    ) -> "FaultPlan":
        """Sample ``count`` faults over ``num_units`` unit boundaries.

        Same seed, same plan — plans can be named in test output and
        replayed exactly.  ``attempts`` bounds (inclusive) how many
        consecutive attempts a ``raise``/``nan-grad`` fault poisons.
        """
        for kind in kinds:
            if kind not in ALL_KINDS + TRANSPORT_KINDS + ("step-raise",):
                raise ValueError(f"unknown fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        faults = []
        for _ in range(count):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            faults.append(
                Fault(
                    kind=kind,
                    unit_index=int(rng.integers(0, max(1, num_units))),
                    attempts=int(rng.integers(attempts[0], attempts[1] + 1)),
                )
            )
        return cls(faults=tuple(faults), seed=seed)


class _NaNGradientEngine(GradientEngine):
    """A gradient engine whose backward passes are all-NaN (chaos fault).

    The poison is injected *after* the real computation and then pushed
    through the same guard the real engine uses, so with guards active the
    trip happens exactly where a genuine kernel NaN would be trapped.
    """

    def backward(self, ctx: object, seed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        grad = super().backward(ctx, seed, out)
        grad.fill(np.nan)  # in place, so jacobian's ``out`` slots are poisoned too
        guards.check_finite("faultinject.nan_gradient", grad)
        return grad


class FaultInjector:
    """Runner hook implementation firing a :class:`FaultPlan`.

    ``fired`` records every fault that actually triggered, so tests can
    assert the plan's coverage (a fault aimed past the end of a short run
    simply never fires).
    """

    def __init__(self, plan: FaultPlan, worker_id: int | None = None):
        self.plan = plan
        self.worker_id = worker_id  # set by the pool after fork
        self.fired: list[Fault] = []
        self._steps = 0

    def _mine(self, fault: Fault) -> bool:
        """Whether a fault is scoped to this process (see *Pool scoping*)."""
        return fault.worker is None or fault.worker == self.worker_id

    # -- runner hooks ----------------------------------------------------------

    def before_unit(self, unit, index: int) -> None:
        """Unit-boundary faults: interrupt, crash, sigkill, cache corruption."""
        for fault in self.plan.faults:
            if fault.unit_index != index or not self._mine(fault):
                continue
            if fault.kind == "interrupt":
                self.fired.append(fault)
                raise KeyboardInterrupt(f"injected SIGINT before unit {unit.key}")
            if fault.kind == "crash":
                self.fired.append(fault)
                raise SimulatedCrash(f"injected crash before unit {unit.key}")
            if fault.kind == "sigkill":
                # A real hard kill: no exception, no cleanup, no lease
                # release.  The pool's lease expiry is the only recovery.
                os.kill(os.getpid(), signal.SIGKILL)
            if fault.kind == "corrupt-cache":
                if self._corrupt_one_cache_entry():
                    self.fired.append(fault)

    def heartbeats_stalled(self, index: int) -> bool:
        """Whether an ``hb-stall`` fault suppresses heartbeats for the unit
        at executed-ordinal ``index`` in this process (pool hook)."""
        for fault in self.plan.faults:
            if fault.kind == "hb-stall" and fault.unit_index == index and self._mine(fault):
                if fault not in self.fired:
                    self.fired.append(fault)
                return True
        return False

    @contextmanager
    def attempt(self, unit, index: int, attempt: int, degraded: bool) -> Iterator[None]:
        """In-unit faults for one attempt: ``raise`` and ``nan-grad``."""
        poisons = []
        for fault in self.plan.faults:
            if fault.unit_index != index or attempt >= fault.attempts or not self._mine(fault):
                continue
            if fault.kind == "raise":
                self.fired.append(fault)
                raise InjectedError(
                    f"injected failure in unit {unit.key} (attempt {attempt})"
                )
            if fault.kind == "nan-grad" and not degraded:
                networks = unit.resolve_networks()
                if networks:
                    poisons.append(fault)
        if not poisons:
            yield
            return
        network = unit.resolve_networks()[0]
        original = network._grad_engine
        network.attach_grad_engine(
            _NaNGradientEngine(network, dtype=network.grad_engine.dtype)
        )
        self.fired.extend(poisons)
        try:
            yield
        finally:
            network._grad_engine = original

    # -- cooperative checkpoint ------------------------------------------------

    def step(self) -> None:
        """Advance the global step counter; fire any ``step-raise`` fault.

        Synthetic test units call this between their internal stages to
        give "raise at step N" an exact, replayable firing point.
        """
        self._steps += 1
        for fault in self.plan.faults:
            if fault.kind == "step-raise" and fault.step == self._steps:
                self.fired.append(fault)
                raise InjectedError(f"injected failure at step {self._steps}")

    # -- internals -------------------------------------------------------------

    def _corrupt_one_cache_entry(self) -> bool:
        """Overwrite the head of one deterministic cache entry with garbage."""
        entries = sorted(cache_dir().glob("*.npz"))
        if not entries:
            return False
        rng = np.random.default_rng(self.plan.seed)
        target = entries[int(rng.integers(0, len(entries)))]
        with open(target, "r+b") as handle:
            handle.write(b"\x00CHAOS\x00" * 4)
        return True


class TransportChaos:
    """Reply-path chaos for :class:`~repro.serve.transport.DCNServer`.

    Reuses :class:`FaultPlan` with :data:`TRANSPORT_KINDS`, reinterpreting
    ``unit_index`` as the server-wide **request ordinal** (0-based, in
    admission order).  The server asks :meth:`reply_fault` once per reply
    and, when a fault matches, hands control to :meth:`fire` *instead of*
    sending the normal response first — so every injected failure happens
    before the client could have seen an ack, which is exactly the window
    where retry is idempotent-safe.

    ``stall_s`` bounds the ``sock-stall`` kind: long enough to blow any
    sane client deadline in tests, short enough not to wedge the suite.
    """

    def __init__(self, plan: FaultPlan, stall_s: float = 0.5):
        self.plan = plan
        self.stall_s = stall_s
        self.fired: list[Fault] = []
        self._lock = threading.Lock()

    def reply_fault(self, ordinal: int) -> Fault | None:
        """The transport fault aimed at request ``ordinal``, if any."""
        for fault in self.plan.faults:
            if fault.kind in TRANSPORT_KINDS and fault.unit_index == ordinal:
                return fault
        return None

    def fire(self, fault: Fault, conn, meta: dict, body: bytes) -> bool:
        """Fire ``fault`` on the reply path; False tells the server the
        connection is dead and must be dropped without a (full) reply."""
        with self._lock:
            self.fired.append(fault)
        if fault.kind == "conn-drop":
            # Vanish instead of replying: the client sees EOF mid-request
            # and classifies it as a retryable torn reply.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
            return False
        if fault.kind == "sock-stall":
            # Withhold the reply long enough for the client's deadline to
            # fire mid-read, then let the (now pointless) send proceed.
            time.sleep(self.stall_s)
            return True
        if fault.kind == "server-kill":
            # A real hard kill mid-stream: no cleanup, no reply.  Clients
            # see EOF/refused connections; supervision must recover.
            os.kill(os.getpid(), signal.SIGKILL)
        if fault.kind == "torn-frame":
            # Send *half* a well-formed response frame then die: the
            # header promises bytes that never arrive, so the client's
            # reader raises a structured "torn" error, never a partial
            # array.
            from ..serve.transport import KIND_RESPONSE, pack_frame

            frame = pack_frame(KIND_RESPONSE, meta, body)
            try:
                conn.sendall(frame[: max(1, len(frame) // 2)])
            except OSError:
                pass
            conn.close()
            return False
        return True
