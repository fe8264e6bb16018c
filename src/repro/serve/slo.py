"""SLO-aware admission: shed on estimated *latency*, not on queue depth.

PR 8's admission control sheds on queue depth alone, which mistakes cheap
traffic for expensive traffic: the corrector fan-out makes a flagged row
~``m``\\ × the work of a benign row (the paper's Sec. 5 asymmetry — the
same per-input fan-out Cao & Gong's region classifier pays on *every*
input), so ten flagged-heavy queued requests represent vastly more
latency than ten benign ones at the same depth.

:class:`DispatchCostModel` learns the per-row dispatch cost online, split
by gate outcome — one EWMA for benign-gated rows, one for corrected
(flagged) rows — from every dispatch's observed wall clock, plus an EWMA
of the flagged fraction.  :class:`SloAdmission` turns the queue into
*time*::

    est_wait = rows_ahead x ((1 - p_flag) * benign_cost + p_flag * flagged_cost)

and sheds (or degrades) when the estimated wait exceeds ``slo_target_s``.
Degraded admission skips the corrector, so its wait estimate prices every
row at the benign cost — a request that cannot make the SLO with full
service may still make it detector-only.  The original ``2 x max_queue``
depth bound stays as a hard backstop, so a cold or misled cost model can
never grow the queue without bound.

Cold start admits: until the model has observed a dispatch there is no
wait estimate, and refusing traffic on no evidence would be worse than
briefly over-admitting inside the backstop.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DispatchCostModel", "SloAdmission", "AdmissionDecision"]


class DispatchCostModel:
    """Online EWMA of per-row dispatch cost, split by detector gate outcome.

    Parameters
    ----------
    alpha:
        EWMA weight of the newest observation (0 < alpha <= 1).
    flagged_multiplier:
        Prior ratio ``flagged_cost / benign_cost`` used to split a mixed
        dispatch before both costs have been observed in isolation.  The
        service passes ``1 + m`` (the corrector's vote count): a flagged
        row pays its share of the batch forward plus at most ``m``
        corrector forwards.  Early-exit votes stop sooner, so the prior
        overestimates; the EWMAs re-price it from observed dispatches.
    """

    def __init__(self, alpha: float = 0.25, flagged_multiplier: float = 50.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if flagged_multiplier < 1.0:
            raise ValueError("flagged_multiplier must be >= 1 (flagged rows cost more)")
        self.alpha = alpha
        self.flagged_multiplier = flagged_multiplier
        self.benign_cost_s: float | None = None  # EWMA seconds per benign-gated row
        self.flagged_cost_s: float | None = None  # EWMA seconds per corrected row
        self.flag_rate: float | None = None  # EWMA fraction of rows flagged
        self.observations = 0

    # -- learning --------------------------------------------------------------

    def observe(self, seconds: float, benign_rows: int, flagged_rows: int) -> None:
        """Fold one dispatch's wall clock into the per-row cost EWMAs.

        A pure dispatch (all rows one gate outcome) updates that outcome's
        cost directly.  A mixed dispatch is split proportionally to the
        current estimates (or to ``flagged_multiplier`` before any exist),
        then both EWMAs absorb the rescaled observation — so a miscalibrated
        split self-corrects as pure dispatches arrive.
        """
        rows = benign_rows + flagged_rows
        if rows <= 0 or seconds < 0:
            return
        self.flag_rate = self._ewma(self.flag_rate, flagged_rows / rows)
        if flagged_rows == 0:
            self.benign_cost_s = self._ewma(self.benign_cost_s, seconds / benign_rows)
        elif benign_rows == 0:
            self.flagged_cost_s = self._ewma(self.flagged_cost_s, seconds / flagged_rows)
        else:
            benign = self.benign_cost_s
            flagged = self.flagged_cost_s
            if benign is None and flagged is None:
                per = seconds / (benign_rows + self.flagged_multiplier * flagged_rows)
                benign, flagged = per, self.flagged_multiplier * per
            elif benign is None:
                benign = flagged / self.flagged_multiplier
            elif flagged is None:
                flagged = benign * self.flagged_multiplier
            estimated = benign_rows * benign + flagged_rows * flagged
            scale = seconds / estimated if estimated > 0 else 1.0
            self.benign_cost_s = self._ewma(self.benign_cost_s, benign * scale)
            self.flagged_cost_s = self._ewma(self.flagged_cost_s, flagged * scale)
        self.observations += 1

    def _ewma(self, current: float | None, observation: float) -> float:
        if current is None:
            return observation
        return (1.0 - self.alpha) * current + self.alpha * observation

    # -- estimation ------------------------------------------------------------

    def expected_row_cost(self, degraded: bool = False) -> float | None:
        """Expected seconds one queued row will cost to dispatch.

        ``degraded`` prices every row at the benign cost: detector-only
        service never pays the corrector fan-out.  ``None`` until the
        model has observed at least one dispatch (cold start).
        """
        benign = self.benign_cost_s
        if benign is None:
            if self.flagged_cost_s is None:
                return None
            benign = self.flagged_cost_s / self.flagged_multiplier
        if degraded:
            return benign
        flagged = self.flagged_cost_s
        if flagged is None:
            flagged = benign * self.flagged_multiplier
        rate = self.flag_rate or 0.0
        return (1.0 - rate) * benign + rate * flagged

    def estimate_wait(self, rows_ahead: int, degraded: bool = False) -> float | None:
        """Estimated queueing delay of a request behind ``rows_ahead`` rows."""
        cost = self.expected_row_cost(degraded=degraded)
        if cost is None:
            return None
        return rows_ahead * cost

    def state(self) -> dict[str, float | int | None]:
        """JSON-able snapshot for the telemetry journal."""
        return {
            "benign_cost_s": self.benign_cost_s,
            "flagged_cost_s": self.flagged_cost_s,
            "flag_rate": self.flag_rate,
            "observations": self.observations,
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``action`` is ``"admit"``, ``"degrade"`` or ``"shed"``; ``reason``
    records what decided it — ``"ok"`` (within target), ``"cold"`` (no
    cost estimate yet, admitted), ``"slo"`` (the wait estimate) or
    ``"hard-bound"`` (the ``2 x max_queue`` depth backstop).
    """

    action: str
    reason: str
    est_wait_s: float | None = None


class SloAdmission:
    """Latency-governed admission over a :class:`DispatchCostModel`.

    Parameters
    ----------
    slo_target_s:
        The latency budget: admit while the estimated queued wait stays
        within it.
    cost_model:
        The shared model the service updates after every dispatch.
    max_queue:
        Depth scale of the hard backstop: ``depth >= 2 * max_queue``
        always sheds, estimate or no estimate.
    overload:
        ``"shed"`` rejects a request that cannot make the target;
        ``"degrade"`` first re-prices it detector-only (benign row cost)
        and admits degraded if *that* makes the target.
    """

    def __init__(
        self,
        slo_target_s: float,
        cost_model: DispatchCostModel,
        max_queue: int,
        overload: str = "shed",
    ):
        if slo_target_s <= 0:
            raise ValueError("slo_target_s must be > 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.slo_target_s = slo_target_s
        self.cost_model = cost_model
        self.max_queue = max_queue
        self.overload = overload

    def decide(self, depth: int, rows_ahead: int) -> AdmissionDecision:
        """Admission decision for a request arriving behind ``depth``
        requests / ``rows_ahead`` rows."""
        if depth >= 2 * self.max_queue:
            return AdmissionDecision("shed", "hard-bound")
        wait = self.cost_model.estimate_wait(rows_ahead)
        if wait is None:
            return AdmissionDecision("admit", "cold")
        if wait <= self.slo_target_s:
            return AdmissionDecision("admit", "ok", wait)
        if self.overload == "degrade":
            degraded_wait = self.cost_model.estimate_wait(rows_ahead, degraded=True)
            if degraded_wait is not None and degraded_wait <= self.slo_target_s:
                return AdmissionDecision("degrade", "slo", degraded_wait)
        return AdmissionDecision("shed", "slo", wait)
