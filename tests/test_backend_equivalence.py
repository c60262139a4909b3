"""Equivalence suite for the pluggable tensor backends (repro.nn.backend).

Four families of guarantees pinned here, mirroring the sampling suite's
50-random-workload pattern:

* the default :class:`NumpyBackend` is **bit-identical** to the reference
  numpy expressions the engine used before the backend seam existed —
  re-implemented inline here, independent of the backend module, so a
  drive-by "optimisation" of the default path fails loudly;
* the ``fused`` segment kernels match the reference within the documented
  tolerance contract — float rounding at float64, ~1e-5 relative at
  float32 — across random segment workloads including the empty /
  single-segment / all-one-bucket edge cases, on both of their routes
  (scipy CSR matmul, and the ``reduceat`` fallback used without scipy);
* a model configured with the fused backend still **trains** on the exact
  float64 path (the backend only activates inside ``no_grad``), and its
  float32 inference agrees with the exact model within tolerance,
  including task-logit argmax agreement;
* int8 candidate-pool quantization honours its per-row error bound
  (≤ rowmax/254), keeps zero rows exact, cuts at-rest bytes ≥ 3.3x, and a
  server running quantized pools agrees with the fp64 server on top-1
  predictions.
"""

import numpy as np
import pytest

import repro.nn.backend
from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    sample_episode,
)
from repro.datasets import Dataset, EDGE_TASK
from repro.datasets.synthetic import synthetic_knowledge_graph
from repro.graph import EdgeInput, Graph, sample_data_graph
from repro.nn import Tensor, get_backend, make_backend, no_grad, use_backend
from repro.nn.backend import BACKENDS, FusedBackend, NumpyBackend
from repro.serving import PromptServer
from repro.serving.quantize import (
    QuantizedPool,
    pool_data,
    pool_nbytes,
    quantize_pool,
)

# ---------------------------------------------------------------------------
# Random segment workloads (the kernel-level analogue of random_graph).
# ---------------------------------------------------------------------------


@pytest.fixture(params=["csr", "reduceat"])
def fused_route(request, monkeypatch):
    """Run a test on each FusedBackend route: scipy CSR matmul, then the
    ``reduceat`` kernels it falls back to when scipy is missing."""
    if request.param == "csr":
        if repro.nn.backend._sparse is None:
            pytest.skip("scipy is not installed")
    else:
        monkeypatch.setattr(repro.nn.backend, "_sparse", None)
    return request.param


def segment_workload(trial: int, dtype=np.float64):
    """One random scatter/segment workload: (values, h, index arrays...)."""
    r = np.random.default_rng(trial)
    n = int(r.integers(1, 120))
    e = int(r.integers(0, 5 * n))
    d = int(r.integers(1, 24))
    return {
        "num_nodes": n,
        "h": r.normal(size=(n, d)).astype(dtype),
        "values": r.normal(size=(e, d)).astype(dtype),
        "src": r.integers(0, n, size=e),
        "dst": r.integers(0, n, size=e),
        "scores": r.normal(size=e).astype(dtype),
        "alpha": r.random(size=e).astype(dtype),
        "weights": r.random(size=e).astype(dtype),
        "rel_emb": r.normal(size=(e, d)).astype(dtype),
    }


def reference_scatter_add(values, index, num_segments):
    """The pre-seam expression, verbatim: zero-init + ``np.add.at``."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def reference_segment_softmax(scores, index, num_segments):
    """The pre-seam max-shifted segment softmax, verbatim."""
    max_per_segment = np.full(num_segments, -np.inf, dtype=scores.dtype)
    np.maximum.at(max_per_segment, index, scores)
    max_per_segment[~np.isfinite(max_per_segment)] = 0.0
    exps = np.exp(scores - max_per_segment[index])
    denom = np.zeros(num_segments, dtype=exps.dtype)
    np.add.at(denom, index, exps)
    eps = np.asarray(1e-16, dtype=scores.dtype)
    return exps / (denom[index] + eps)


def reference_sage_aggregate(h, src, dst, num_nodes, edge_weights=None,
                             rel_emb=None):
    """The pre-seam SAGE mean aggregation, message matrix and all."""
    messages = h[src]
    if rel_emb is not None:
        messages = messages + rel_emb
    if edge_weights is not None:
        messages = messages * edge_weights.reshape(-1, 1)
    counts = np.maximum(
        np.bincount(dst, minlength=num_nodes).astype(h.dtype), 1.0)
    return (reference_scatter_add(messages, dst, num_nodes)
            / counts.reshape(-1, 1))


class TestNumpyBackendBitIdentity:
    """The default backend == the reference expressions, byte for byte."""

    @pytest.mark.parametrize("trial", range(50))
    def test_segment_kernels_bit_identical(self, trial):
        w = segment_workload(trial)
        backend = NumpyBackend()
        n = w["num_nodes"]
        got = backend.scatter_add(w["values"], w["dst"], n)
        assert got.tobytes() == reference_scatter_add(
            w["values"], w["dst"], n).tobytes()
        got = backend.segment_softmax(w["scores"], w["dst"], n)
        assert got.tobytes() == reference_segment_softmax(
            w["scores"], w["dst"], n).tobytes()
        got = backend.sage_aggregate(w["h"], w["src"], w["dst"], n,
                                     edge_weights=w["weights"],
                                     rel_emb=w["rel_emb"])
        assert got.tobytes() == reference_sage_aggregate(
            w["h"], w["src"], w["dst"], n, edge_weights=w["weights"],
            rel_emb=w["rel_emb"]).tobytes()

    @pytest.mark.parametrize("trial", range(10))
    def test_elementwise_and_gemm_bit_identical(self, trial):
        r = np.random.default_rng(trial)
        backend = NumpyBackend()
        a, b = r.normal(size=(17, 9)), r.normal(size=(9, 5))
        assert backend.matmul(a, b).tobytes() == (a @ b).tobytes()
        x = r.normal(size=(11, 7)) * 30
        assert backend.exp(x).tobytes() == np.exp(x).tobytes()
        assert backend.tanh(x).tobytes() == np.tanh(x).tobytes()
        assert backend.sigmoid(x).tobytes() == (
            1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))).tobytes()
        assert backend.reduce_sum(x, axis=1, keepdims=True).tobytes() \
            == x.sum(axis=1, keepdims=True).tobytes()

    def test_default_backend_is_exact_numpy(self):
        backend = get_backend()
        assert isinstance(backend, NumpyBackend)
        assert backend.exact and backend.dtype == np.float64

    def test_tensor_ops_route_through_active_backend(self):
        """Tensor.__matmul__ must consult the process-global backend."""

        class Recording(NumpyBackend):
            calls = 0

            def matmul(self, a, b):
                type(self).calls += 1
                return super().matmul(a, b)

        r = np.random.default_rng(0)
        a, b = Tensor(r.normal(size=(3, 4))), Tensor(r.normal(size=(4, 2)))
        with use_backend(Recording()):
            (a @ b).sum()
        assert Recording.calls == 1
        assert isinstance(get_backend(), NumpyBackend)  # scope restored


@pytest.mark.usefixtures("fused_route")
class TestAcceleratedKernelTolerance:
    """Fused kernels vs. the reference, within contract, on both routes."""

    @pytest.mark.parametrize("trial", range(50))
    def test_fused_f64_within_rounding(self, trial):
        w = segment_workload(trial)
        backend = FusedBackend()
        n = w["num_nodes"]
        np.testing.assert_allclose(
            backend.scatter_add(w["values"], w["dst"], n),
            reference_scatter_add(w["values"], w["dst"], n),
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            backend.segment_softmax(w["scores"], w["dst"], n),
            reference_segment_softmax(w["scores"], w["dst"], n),
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            backend.sage_aggregate(w["h"], w["src"], w["dst"], n,
                                   edge_weights=w["weights"],
                                   rel_emb=w["rel_emb"]),
            reference_sage_aggregate(w["h"], w["src"], w["dst"], n,
                                     edge_weights=w["weights"],
                                     rel_emb=w["rel_emb"]),
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            backend.weighted_gather_scatter(w["h"], w["src"], w["alpha"],
                                            w["dst"], n),
            reference_scatter_add(
                w["h"][w["src"]] * w["alpha"].reshape(-1, 1), w["dst"], n),
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            backend.scatter_weighted(w["values"], w["alpha"], w["dst"], n),
            reference_scatter_add(
                w["values"] * w["alpha"].reshape(-1, 1), w["dst"], n),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("trial", range(20))
    def test_fused_f32_within_documented_tolerance(self, trial):
        w32 = segment_workload(trial, dtype=np.float32)
        w64 = segment_workload(trial)  # same RNG stream at float64
        backend = FusedBackend(dtype=np.float32)
        n = w32["num_nodes"]
        got = backend.sage_aggregate(w32["h"], w32["src"], w32["dst"], n,
                                     edge_weights=w32["weights"],
                                     rel_emb=w32["rel_emb"])
        want = reference_sage_aggregate(
            w64["h"], w64["src"], w64["dst"], n,
            edge_weights=w64["weights"], rel_emb=w64["rel_emb"])
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_empty_edge_list(self):
        for backend in (NumpyBackend(), FusedBackend()):
            empty_i = np.zeros(0, dtype=np.int64)
            empty_v = np.zeros((0, 4))
            assert backend.scatter_add(empty_v, empty_i, 3).shape == (3, 4)
            assert not backend.scatter_add(empty_v, empty_i, 3).any()
            assert backend.sage_aggregate(
                np.ones((3, 4)), empty_i, empty_i, 3).shape == (3, 4)
            assert backend.segment_softmax(
                np.zeros(0), empty_i, 3).shape == (0,)

    def test_single_bucket_scatter(self):
        """Every edge landing in one segment (the hub pattern)."""
        r = np.random.default_rng(5)
        values = r.normal(size=(257, 8))
        index = np.zeros(257, dtype=np.int64)
        np.testing.assert_allclose(
            FusedBackend().scatter_add(values, index, 4),
            reference_scatter_add(values, index, 4),
            rtol=1e-12, atol=1e-12)


class TestBackendPlumbing:
    def test_registry_names(self):
        assert set(BACKENDS) == {"numpy", "fused"}

    def test_make_backend_default_is_shared(self):
        assert make_backend("numpy") is make_backend("numpy")
        assert make_backend("numpy", np.float32) \
            is not make_backend("numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="tensor backend"):
            make_backend("turbo")

    def test_config_validates_backend_fields(self):
        for name in ("turbo", "blocked", "fast"):
            with pytest.raises(ValueError):
                GraphPrompterConfig(tensor_backend=name).validate()
        with pytest.raises(ValueError):
            GraphPrompterConfig(pool_quantization="int4").validate()

    def test_use_backend_restores_on_error(self):
        before = get_backend()
        with pytest.raises(RuntimeError):
            with use_backend("fused"):
                assert get_backend().name == "fused"
                raise RuntimeError("boom")
        assert get_backend() is before


def _kg_setup(hidden_dim: int = 16):
    r = np.random.default_rng(3)
    n, m = 150, 700
    graph = Graph(
        n, r.integers(0, n, size=m), r.integers(0, n, size=m),
        rel=r.integers(0, 4, size=m),
        node_features=r.normal(size=(n, 6)),
        relation_features=r.normal(size=(4, 6)),
    )
    subs = [
        sample_data_graph(graph, EdgeInput(int(u), int(v), relation=1),
                          num_hops=2, max_nodes=14,
                          rng=np.random.default_rng(100 + i))
        for i, (u, v) in enumerate(zip(r.integers(0, n, 12),
                                       r.integers(0, n, 12)))
    ]
    return graph, subs


def _model_pair(graph, conv: str, **overrides):
    """An exact model and an override twin sharing the same weights."""
    config = GraphPrompterConfig(hidden_dim=16, conv=conv)
    exact = GraphPrompterModel(6, 4, config)
    fast = GraphPrompterModel(6, 4, config.ablate(**overrides))
    fast.load_state_dict(exact.state_dict())
    exact.eval()
    fast.eval()
    return exact, fast


class TestModelBackendEquivalence:
    @pytest.mark.usefixtures("fused_route")
    @pytest.mark.parametrize("conv", ["sage", "gat"])
    def test_fused_f32_inference_within_tolerance(self, conv):
        graph, subs = _kg_setup()
        exact, fast = _model_pair(graph, conv, tensor_backend="fused")
        with no_grad():
            a = exact.encode_subgraphs(subs).data
            b = fast.encode_subgraphs(subs).data
        assert b.dtype == np.float32
        np.testing.assert_allclose(b, a, rtol=1e-3, atol=1e-4)

    def test_training_path_stays_exact_float64(self):
        """With grad enabled the accelerated backend must NOT engage: the
        forward is byte-identical to the default model's."""
        graph, subs = _kg_setup()
        exact, fast = _model_pair(graph, "sage", tensor_backend="fused")
        a = exact.encode_subgraphs(subs).data
        b = fast.encode_subgraphs(subs).data
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()

    @pytest.mark.usefixtures("fused_route")
    def test_task_logits_argmax_agree(self):
        graph, subs = _kg_setup()
        exact, fast = _model_pair(graph, "sage", tensor_backend="fused")
        r = np.random.default_rng(0)
        prompts = r.normal(size=(9, 16))
        queries = r.normal(size=(5, 16))
        labels = r.integers(0, 3, size=9)
        with no_grad():
            a = exact.task_logits(Tensor(prompts), labels,
                                  Tensor(queries), 3).data
            b = fast.task_logits(Tensor(prompts), labels,
                                 Tensor(queries), 3).data
        np.testing.assert_array_equal(a.argmax(axis=1), b.argmax(axis=1))

    def test_default_config_installs_no_backend(self):
        model = GraphPrompterModel(6, 4, GraphPrompterConfig(hidden_dim=8))
        assert model._backend is None


class TestInt8PoolQuantization:
    @pytest.mark.parametrize("trial", range(20))
    def test_round_trip_error_bound(self, trial):
        r = np.random.default_rng(trial)
        emb = r.normal(size=(int(r.integers(1, 60)),
                             int(r.integers(1, 48)))) * 3
        pool = quantize_pool(emb)
        assert isinstance(pool, QuantizedPool)
        assert pool.codes.dtype == np.int8
        back = pool.dequantize()
        assert back.dtype == emb.dtype and back.shape == emb.shape
        # Per-row bound: scale = rowmax/127, rounding error ≤ scale/2.
        bound = np.abs(emb).max(axis=1, keepdims=True) / 254 + 1e-12
        assert (np.abs(back - emb) <= bound).all()

    def test_zero_rows_exact(self):
        emb = np.zeros((3, 8))
        emb[1] = np.linspace(-1, 1, 8)
        back = quantize_pool(emb).dequantize()
        assert back[0].tobytes() == emb[0].tobytes()
        assert back[2].tobytes() == emb[2].tobytes()

    def test_at_rest_bytes_ratio(self):
        emb = np.random.default_rng(0).normal(size=(40, 32))
        pool = quantize_pool(emb)
        assert pool_nbytes(emb) / pool_nbytes(pool) >= 3.3
        assert pool_nbytes(emb) == emb.nbytes

    def test_pool_data_pass_through(self):
        emb = np.random.default_rng(1).normal(size=(4, 4))
        assert pool_data(emb) is emb  # ndarray: no copy, no conversion


class TestQuantizedPoolServing:
    def test_top1_agreement(self):
        graph = synthetic_knowledge_graph(num_entities=120, num_relations=4,
                                          num_edges=600, feature_dim=6,
                                          rng=0)
        dataset = Dataset(graph, EDGE_TASK, rng=0)
        episode = sample_episode(dataset, num_ways=3, num_queries=8, rng=5)
        predictions = {}
        for quant in ("none", "int8"):
            config = GraphPrompterConfig(hidden_dim=16,
                                         max_subgraph_nodes=12,
                                         pool_quantization=quant)
            model = GraphPrompterModel(graph.feature_dim,
                                       graph.num_relations, config)
            model.eval()
            with PromptServer(model, dataset, max_batch_size=4,
                              rng=0) as server:
                state = server.open_session("s", episode, shots=3)
                if quant == "int8":
                    assert isinstance(state.candidate_emb, QuantizedPool)
                    assert state.pool_nbytes() * 3.3 <= np.asarray(
                        state.pool_embeddings()).nbytes
                for query in episode.queries:
                    server.submit("s", query)
                results = server.drain()
            predictions[quant] = [r.prediction for r in results]
        agree = np.mean(np.array(predictions["none"])
                        == np.array(predictions["int8"]))
        # int8 error is ≤0.4% of each row's max — ties may flip, the
        # overwhelming majority of answers must not.
        assert agree >= 0.9
