"""SLO-aware admission: cost model learning, decisions, service integration."""

import numpy as np
import pytest

from repro.serve import DCNService, DispatchCostModel, SloAdmission


def _requests(x, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(x[start : start + size])
        start += size
    return out


class TestDispatchCostModel:
    def test_cold_model_has_no_estimate(self):
        model = DispatchCostModel()
        assert model.expected_row_cost() is None
        assert model.estimate_wait(10) is None

    def test_pure_dispatches_learn_each_cost_directly(self):
        model = DispatchCostModel(alpha=1.0, flagged_multiplier=10.0)
        model.observe(0.02, benign_rows=4, flagged_rows=0)
        model.observe(0.30, benign_rows=0, flagged_rows=3)
        assert model.benign_cost_s == pytest.approx(0.005)
        assert model.flagged_cost_s == pytest.approx(0.1)

    def test_mixed_dispatch_splits_by_multiplier_prior(self):
        # 2 benign + 1 flagged at multiplier 9: per = s / (2 + 9).
        model = DispatchCostModel(alpha=1.0, flagged_multiplier=9.0)
        model.observe(0.11, benign_rows=2, flagged_rows=1)
        assert model.benign_cost_s == pytest.approx(0.01)
        assert model.flagged_cost_s == pytest.approx(0.09)
        # The split reconstructs the observed wall clock exactly.
        assert 2 * model.benign_cost_s + model.flagged_cost_s == pytest.approx(0.11)

    def test_expected_cost_blends_by_flag_rate(self):
        model = DispatchCostModel(alpha=1.0, flagged_multiplier=10.0)
        model.observe(0.01, benign_rows=1, flagged_rows=0)
        model.observe(0.10, benign_rows=0, flagged_rows=1)
        # flag_rate EWMA with alpha=1 is the last observation: 1.0.
        assert model.expected_row_cost() == pytest.approx(0.10)
        # Degraded service never pays the corrector.
        assert model.expected_row_cost(degraded=True) == pytest.approx(0.01)

    def test_ignores_empty_and_negative_observations(self):
        model = DispatchCostModel()
        model.observe(0.5, benign_rows=0, flagged_rows=0)
        model.observe(-1.0, benign_rows=2, flagged_rows=0)
        assert model.observations == 0
        assert model.expected_row_cost() is None

    def test_state_is_json_able(self):
        import json

        model = DispatchCostModel()
        model.observe(0.01, benign_rows=2, flagged_rows=2)
        json.dumps(model.state())


class TestSloAdmission:
    def _admission(self, overload="shed", target=1.0, max_queue=4):
        model = DispatchCostModel(alpha=1.0, flagged_multiplier=10.0)
        return SloAdmission(target, model, max_queue, overload=overload), model

    def test_cold_start_admits(self):
        admission, _ = self._admission()
        decision = admission.decide(depth=3, rows_ahead=100)
        assert decision.action == "admit"
        assert decision.reason == "cold"

    def test_sheds_on_estimated_wait_not_depth(self):
        admission, model = self._admission(target=0.05)
        model.observe(0.10, benign_rows=0, flagged_rows=1)  # 100ms per flagged row
        # One expensive row ahead already blows a 50ms target at depth 1.
        decision = admission.decide(depth=1, rows_ahead=1)
        assert decision.action == "shed"
        assert decision.reason == "slo"
        assert decision.est_wait_s == pytest.approx(0.10)
        # The same depth with cheap traffic admits.
        cheap, cheap_model = self._admission(target=0.05)
        cheap_model.observe(0.001, benign_rows=1, flagged_rows=0)
        assert cheap.decide(depth=1, rows_ahead=1).action == "admit"

    def test_degrade_reprices_at_benign_cost(self):
        admission, model = self._admission(overload="degrade", target=0.05)
        model.observe(0.01, benign_rows=1, flagged_rows=0)
        model.observe(0.10, benign_rows=0, flagged_rows=1)
        # Full service: 100ms/row estimate (flag_rate 1.0) > 50ms target.
        # Detector-only: 10ms/row fits -> degrade, not shed.
        decision = admission.decide(depth=2, rows_ahead=4)
        assert decision.action == "degrade"
        assert decision.reason == "slo"
        assert decision.est_wait_s == pytest.approx(0.04)
        # Ten rows ahead misses even degraded -> shed.
        assert admission.decide(depth=2, rows_ahead=10).action == "shed"

    def test_hard_bound_sheds_even_cold(self):
        admission, _ = self._admission(max_queue=4)
        decision = admission.decide(depth=8, rows_ahead=0)
        assert decision.action == "shed"
        assert decision.reason == "hard-bound"

    def test_validates_target(self):
        model = DispatchCostModel()
        with pytest.raises(ValueError):
            SloAdmission(0.0, model, 4)


class TestServiceSloIntegration:
    def test_generous_target_stays_bitwise_identical(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        window = _requests(x, [2, 3, 1, 4])
        service = DCNService(tiny_dcn, max_batch=8, max_queue=64, slo_target_s=30.0)
        results = service.serve_batch(window)
        assert [r.status for r in results] == ["ok"] * len(window)
        for result, request in zip(results, window):
            np.testing.assert_array_equal(result.labels, tiny_dcn.classify(request))

    def test_tight_target_sheds_after_warmup(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=8, max_queue=64, slo_target_s=1e-9)
        # Cold model: the whole first window admits.
        first = service.serve_batch(_requests(x, [2, 2]))
        assert [r.status for r in first] == ["ok", "ok"]
        assert service.cost_model.observations > 0
        # Warm model: any queued row ahead blows a 1ns target, so only
        # the head-of-window request (zero rows ahead) is admitted.
        second = service.serve_batch(_requests(x[4:], [2, 2, 2]))
        assert [r.status for r in second] == ["ok", "shed", "shed"]
        assert service.counters.slo_shed == 2
        assert service.counters.shed == 2
        # Served labels still match offline exactly.
        np.testing.assert_array_equal(second[0].labels, tiny_dcn.classify(x[4:6]))

    def test_tight_target_degrades_when_policy_allows(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        network = tiny_dcn.network
        service = DCNService(
            tiny_dcn, max_batch=8, max_queue=64,
            slo_target_s=1e-9, overload="degrade",
        )
        service.serve_batch(_requests(x, [2, 2]))  # warm the cost model
        results = service.serve_batch(_requests(x[4:], [2, 2]))
        statuses = [r.status for r in results]
        assert statuses[0] == "ok"
        # Degraded wait is also > 1ns, so the tail sheds; with a benign
        # row cost below target it would degrade instead — covered by the
        # unit test above.  Here assert the counters route through slo_*.
        assert service.counters.slo_shed + service.counters.slo_degraded >= 1

    def test_hard_bound_backstops_cold_model(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=4, max_queue=2, slo_target_s=30.0)
        # Cold model admits on SLO grounds, but depth 2*max_queue=4 still
        # sheds: a misled estimator can never grow the queue unboundedly.
        results = service.serve_batch(_requests(x, [1] * 6))
        statuses = [r.status for r in results]
        assert statuses[:4] == ["ok"] * 4
        assert statuses[4:] == ["shed", "shed"]
        assert service.counters.shed == 2
        assert service.counters.slo_shed == 0  # hard bound, not the SLO
