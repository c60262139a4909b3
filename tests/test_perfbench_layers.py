"""perfbench's wrap points: every ledger row still finds its function.

The serving cost ledger (``perfbench/``) times each layer by patching
named functions and methods under ``src/`` (``perfbench.layers.SPANS``).
A rename there would otherwise surface only when someone runs the traced
benchmark; these tests catch it in the tier-1 suite.
"""

import inspect
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.layers import SPANS, install  # noqa: E402
from perfbench.ledger import Ledger  # noqa: E402
from repro.graph import Graph, NodeInput  # noqa: E402
from repro.graph.sampling import sample_data_graph  # noqa: E402


def test_every_span_target_resolves():
    missing = []
    for owner, attr, name, _count in SPANS:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr} ({name})")
    assert not missing, f"perfbench wraps missing functions: {missing}"


def test_sample_data_graph_records_sample_and_induce_spans():
    """One ``sample_data_graph`` call reaches the sampler and the inducer
    through the ``repro.graph.sampling`` globals the ledger patches."""
    r = np.random.default_rng(0)
    graph = Graph(30, r.integers(0, 30, size=90), r.integers(0, 30, size=90),
                  node_features=r.normal(size=(30, 3)))
    originals = [inspect.getattr_static(owner, attr)
                 for owner, attr, _name, _count in SPANS]
    ledger = Ledger()
    install(ledger)
    try:
        sample_data_graph(graph, NodeInput(4), num_hops=2, max_nodes=8,
                          rng=np.random.default_rng(1))
    finally:
        ledger.restore()
    assert ledger.calls() == {"graph.sampling.sample": 1,
                              "graph.subgraph.induce": 1}
    assert [inspect.getattr_static(owner, attr)
            for owner, attr, _name, _count in SPANS] == originals
