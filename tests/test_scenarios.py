"""Tests for the scenario matrix driver and its regression gates."""

import pytest

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    PretrainConfig,
    Pretrainer,
)
from repro.datasets import Dataset, EDGE_TASK
from repro.datasets.synthetic import synthetic_knowledge_graph
from repro.experiments.scenarios import (
    SCENARIOS,
    Scenario,
    _env,
    build_slos,
    check_scenarios,
    run_scenario,
)
from repro.workload import PoissonArrivals, ZipfQueries


@pytest.fixture(scope="module")
def served():
    """A briefly pre-trained model + dataset for scenario replays."""
    graph = synthetic_knowledge_graph(300, 8, 2400, rng=0, name="kg-scn")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=12, max_subgraph_nodes=10,
                                 num_gnn_layers=2)
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations, config)
    Pretrainer(model, dataset, PretrainConfig(steps=60, num_ways=4),
               rng=0).train()
    return model, dataset


SMALL = Scenario(
    name="small-steady",
    description="tiny ample-queue scenario for unit tests",
    arrivals=PoissonArrivals(rate_qps=40.0),
    queries=ZipfQueries(skew=1.0),
    num_events_fast=24, num_events_full=24,
)


class TestRunScenario:
    def test_matrix_has_the_four_required_scenarios(self):
        assert set(SCENARIOS) == {"steady", "burst", "drift",
                                  "flash-crowd"}
        assert SCENARIOS["burst"].expect_shedding

    def test_steady_run_is_deterministic_and_sheds_nothing(self, served):
        model, dataset = served
        result = run_scenario(model, dataset, SMALL, seed=0, fast=True,
                              relax=20.0)
        assert result["deterministic"]
        assert result["offered"] == 24
        assert result["admitted"] == 24
        assert result["shed"] == {"interactive": 0, "batch": 0,
                                  "background": 0}
        assert result["fingerprint"] == result["trace"].fingerprint()
        assert len(result["admitted_fingerprint"]) == 64
        assert result["verdict"].ok

    def test_overloaded_scenario_sheds_lower_classes_only(self, served):
        model, dataset = served
        result = run_scenario(model, dataset, SCENARIOS["burst"], seed=0,
                              fast=True, relax=20.0)
        assert result["shed"]["interactive"] == 0
        assert result["shed"]["batch"] + result["shed"]["background"] > 0
        assert result["admitted"] < result["offered"]
        # The SLO teeth: interactive protection holds under overload.
        names = {r.check.objective: r.check.ok
                 for r in result["verdict"].results}
        assert names["shed-rate-interactive"]

    def test_prom_snapshot_contains_gateway_series(self, served):
        model, dataset = served
        result = run_scenario(model, dataset, SMALL, seed=1, fast=True,
                              relax=20.0)
        assert "repro_gateway_admitted_total" in result["prom"]
        assert "repro_stage_seconds" in result["prom"]


class TestBuildSlos:
    def test_relax_scales_latency_but_not_shed_budgets(self):
        tight = build_slos(SCENARIOS["burst"], relax=1.0)
        loose = build_slos(SCENARIOS["burst"], relax=8.0)
        by_name_tight = {o.name: o for o in tight.objectives}
        by_name_loose = {o.name: o for o in loose.objectives}
        assert by_name_loose["interactive-p95"].threshold_s == pytest.approx(
            8 * by_name_tight["interactive-p95"].threshold_s)
        assert by_name_loose["shed-rate-interactive"].max_ratio == 0.0
        assert (by_name_loose["shed-rate-batch"].max_ratio
                == by_name_tight["shed-rate-batch"].max_ratio)


class TestCheckScenarios:
    def entry(self, **overrides):
        entry = {
            "events": 100, "admitted": 80,
            "shed": {"interactive": 0, "batch": 15, "background": 5},
            "qps": 50.0, "slo_ok": True,
            "trace_fingerprint": "a" * 64,
            "admitted_fingerprint": "b" * 64,
            "env": _env(),
        }
        entry.update(overrides)
        return entry

    def test_identical_entries_pass(self):
        assert check_scenarios({"s": self.entry()},
                               {"s": self.entry()}) == []

    def test_trace_fingerprint_mismatch_fails_everywhere(self):
        failures = check_scenarios(
            {"s": self.entry(trace_fingerprint="c" * 64,
                             env={"cpu_count": -1})},
            {"s": self.entry()})
        assert any("fingerprint" in line for line in failures)

    def test_admission_drift_fails(self):
        failures = check_scenarios(
            {"s": self.entry(admitted=79)}, {"s": self.entry()})
        assert any("admitted" in line for line in failures)
        failures = check_scenarios(
            {"s": self.entry(shed={"interactive": 1, "batch": 14,
                                   "background": 5})},
            {"s": self.entry()})
        assert any("shed split" in line for line in failures)

    def test_qps_and_slo_gates_fire_on_same_host_class(self):
        failures = check_scenarios(
            {"s": self.entry(qps=10.0, slo_ok=False)},
            {"s": self.entry()}, tolerance=1.5)
        assert any("qps" in line for line in failures)
        assert any("SLO verdict regressed" in line for line in failures)

    def test_environment_mismatch_skips_speed_gates(self):
        skipped = []
        failures = check_scenarios(
            {"s": self.entry(qps=1.0, slo_ok=False)},
            {"s": self.entry(env={"cpu_count": -1})},
            tolerance=1.5, skipped=skipped)
        assert failures == []
        assert len(skipped) == 1
        assert "host class differs" in skipped[0]

    def test_baseline_only_scenarios_are_ignored(self):
        assert check_scenarios({}, {"s": self.entry()}) == []
