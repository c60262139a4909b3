"""Experiment harness reproducing every table and figure of the paper."""

from .ablations import (
    ablation_cache_policy,
    ablation_knn_metric,
    ablation_recon_scorer,
)
from .common import CACHE_DIR, ExperimentContext, TableResult, default_config
from .figures import (
    ABLATIONS,
    fig3_ablation,
    fig4_gnn_architectures,
    fig5_cache_size,
    fig6_shots_sweep,
    fig7_embedding_distribution,
    fig8_multi_hop,
    fig9_training_curves,
)
from .gateway import serve_bench_gateway, serve_gateway_demo
from .grids import accuracy_grid
from .recovery import serve_bench_recovery
from .scenarios import (
    SCENARIOS,
    Scenario,
    build_slos,
    check_scenarios,
    run_matrix,
    run_scenario,
    scenarios_main,
)
from .serving import serve_bench, serve_bench_mutating
from .tables import (
    table2_dataset_statistics,
    table3_arxiv,
    table4_kg,
    table5_many_ways,
    table6_ofa_comparison,
    table7_random_pseudo_labels,
    table8_inference_time,
)

__all__ = [
    "ExperimentContext",
    "TableResult",
    "default_config",
    "CACHE_DIR",
    "ablation_knn_metric",
    "ablation_cache_policy",
    "ablation_recon_scorer",
    "accuracy_grid",
    "SCENARIOS",
    "Scenario",
    "build_slos",
    "check_scenarios",
    "run_matrix",
    "run_scenario",
    "scenarios_main",
    "serve_bench",
    "serve_bench_gateway",
    "serve_bench_mutating",
    "serve_bench_recovery",
    "serve_gateway_demo",
    "table2_dataset_statistics",
    "table3_arxiv",
    "table4_kg",
    "table5_many_ways",
    "table6_ofa_comparison",
    "table7_random_pseudo_labels",
    "table8_inference_time",
    "ABLATIONS",
    "fig3_ablation",
    "fig4_gnn_architectures",
    "fig5_cache_size",
    "fig6_shots_sweep",
    "fig7_embedding_distribution",
    "fig8_multi_hop",
    "fig9_training_curves",
]
