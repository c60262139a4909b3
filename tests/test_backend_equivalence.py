"""Bit-identity of the numpy kernels the engine and the GNN forwards run.

Mirrors the sampling suite's 50-random-workload pattern.  Four families
of guarantees pinned here:

* the ndarray kernels of :mod:`repro.gnn.message_passing` (scatter-add
  and the max-shifted segment softmax, shared by the SAGE/GAT no-grad
  forwards) equal the reference numpy expressions **byte for byte**;
* every compute-heavy :class:`~repro.nn.Tensor` op — array conversion,
  gemm, the transcendentals, the reductions, gather and scatter — equals
  its verbatim numpy expression byte for byte, with and without grad;
* the fused no-grad forwards of :class:`~repro.gnn.SAGEConv` and
  :class:`~repro.gnn.GATConv` equal their autodiff forwards byte for
  byte over random graphs, weights, activations, heads, edge weights and
  relation embeddings (and SAGE equals an inline reference forward), while
  the autodiff path's gradients match central finite differences;
* ``import repro`` stays a numpy-only import: no ``scipy.sparse``.

The references are re-implemented inline here, independent of the
library, so a drive-by "optimisation" of the exact path fails loudly.
"""

import os
import subprocess
import sys
from contextlib import nullcontext

import numpy as np
import pytest

import repro
from repro.gnn import GATConv, SAGEConv
from repro.gnn.message_passing import scatter_sum_data, segment_softmax_data
from repro.nn import Tensor, no_grad


def segment_workload(trial: int):
    """One random scatter/segment workload: (values, scores, index...)."""
    r = np.random.default_rng(trial)
    n = int(r.integers(1, 120))
    e = int(r.integers(0, 5 * n))
    d = int(r.integers(1, 24))
    return {
        "num_nodes": n,
        "values": r.normal(size=(e, d)),
        "dst": r.integers(0, n, size=e),
        "scores": r.normal(size=e),
    }


def reference_scatter_add(values, index, num_segments):
    """The reference expression, verbatim: zero-init + ``np.add.at``."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def reference_segment_softmax(scores, index, num_segments):
    """The reference max-shifted segment softmax, verbatim."""
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
    """The reference SAGE mean aggregation, message matrix and all."""
    messages = h[src]
    if rel_emb is not None:
        messages = messages + rel_emb
    if edge_weights is not None:
        messages = messages * edge_weights.reshape(-1, 1)
    counts = np.maximum(
        np.bincount(dst, minlength=num_nodes).astype(h.dtype), 1.0)
    return (reference_scatter_add(messages, dst, num_nodes)
            / counts.reshape(-1, 1))


class TestKernelBitIdentity:
    """The message-passing kernels == the reference expressions."""

    @pytest.mark.parametrize("trial", range(50))
    def test_segment_kernels_bit_identical(self, trial):
        w = segment_workload(trial)
        n = w["num_nodes"]
        got = scatter_sum_data(w["values"], w["dst"], n)
        assert got.tobytes() == reference_scatter_add(
            w["values"], w["dst"], n).tobytes()
        got = segment_softmax_data(w["scores"], w["dst"], n)
        assert got.tobytes() == reference_segment_softmax(
            w["scores"], w["dst"], n).tobytes()
        got = Tensor(w["values"]).scatter_add(w["dst"], n).data
        assert got.tobytes() == reference_scatter_add(
            w["values"], w["dst"], n).tobytes()

    def test_empty_edge_list(self):
        empty_i = np.zeros(0, dtype=np.int64)
        empty_v = np.zeros((0, 4))
        assert scatter_sum_data(empty_v, empty_i, 3).shape == (3, 4)
        assert not scatter_sum_data(empty_v, empty_i, 3).any()
        assert segment_softmax_data(np.zeros(0), empty_i, 3).shape == (0,)


# ---------------------------------------------------------------------------
# Tensor ops: one verbatim numpy expression each.
# ---------------------------------------------------------------------------


def op_workload(trial: int):
    """Random operands for every Tensor op under test."""
    r = np.random.default_rng([trial, 7])
    rows, cols = int(r.integers(1, 20)), int(r.integers(1, 12))
    x = r.normal(size=(rows, cols)) * 30  # reaches the ±60 sigmoid clip
    return {
        "x": x,
        "positive": np.abs(x) + 1e-3,
        "ints": r.integers(-50, 50, size=(rows, cols)),
        "b": r.normal(size=(cols, int(r.integers(1, 9)))),
        "axis": (None, 0, 1, -1)[trial % 4],
        "keepdims": bool(trial % 2),
        "index": r.integers(0, rows, size=int(r.integers(0, 3 * rows))),
        "targets": int(r.integers(1, 16)),
    }


def _leaf(array):
    return Tensor(array, requires_grad=True)


#: op name -> (Tensor computation, the numpy expression it must equal).
TENSOR_OPS = {
    "asarray": (lambda w: Tensor(w["ints"].tolist()),
                lambda w: np.asarray(w["ints"], dtype=np.float64)),
    "matmul": (lambda w: _leaf(w["x"]) @ _leaf(w["b"]),
               lambda w: w["x"] @ w["b"]),
    "exp": (lambda w: _leaf(w["x"] / 30).exp(),
            lambda w: np.exp(w["x"] / 30)),
    "log": (lambda w: _leaf(w["positive"]).log(),
            lambda w: np.log(w["positive"])),
    "tanh": (lambda w: _leaf(w["x"]).tanh(),
             lambda w: np.tanh(w["x"])),
    "sigmoid": (lambda w: _leaf(w["x"]).sigmoid(),
                lambda w: 1.0 / (1.0 + np.exp(-np.clip(w["x"], -60.0,
                                                        60.0)))),
    "sum": (lambda w: _leaf(w["x"]).sum(axis=w["axis"],
                                        keepdims=w["keepdims"]),
            lambda w: w["x"].sum(axis=w["axis"], keepdims=w["keepdims"])),
    "max": (lambda w: _leaf(w["x"]).max(axis=w["axis"],
                                        keepdims=w["keepdims"]),
            lambda w: w["x"].max(axis=w["axis"], keepdims=w["keepdims"])),
    "gather_rows": (lambda w: _leaf(w["x"]).gather_rows(w["index"]),
                    lambda w: w["x"][w["index"]]),
    "scatter_add": (
        lambda w: _leaf(w["x"][w["index"] % w["x"].shape[0]]).scatter_add(
            w["index"] % w["targets"], w["targets"]),
        lambda w: reference_scatter_add(w["x"][w["index"] % w["x"].shape[0]],
                                        w["index"] % w["targets"],
                                        w["targets"])),
}


class TestTensorOpBitIdentity:
    """Each Tensor op == its numpy expression, on both autograd paths."""

    @pytest.mark.parametrize("trial", range(10))
    @pytest.mark.parametrize("op", sorted(TENSOR_OPS))
    def test_op_bit_identical(self, op, trial):
        w = op_workload(trial)
        tensor_op, reference = TENSOR_OPS[op]
        want = np.asarray(reference(w))
        for scope in (nullcontext, no_grad):
            with scope():
                got = tensor_op(w).data
            assert got.dtype == np.float64
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# SAGE / GAT layers: fused no-grad forward vs. autodiff forward.
# ---------------------------------------------------------------------------

CONVS = ("sage", "gat")
ACTIVATIONS = ("relu", "tanh", "identity")


def layer_workload(trial: int, max_nodes: int = 60, max_dim: int = 10,
                   max_head_dim: int = 5):
    """A random graph with features, edge weights and relation embeddings.

    Edge weights and relation embeddings are each present on half of the
    trials; edge weights alternate between ndarray and Tensor form.
    """
    r = np.random.default_rng([trial, 11])
    n = int(r.integers(1, max_nodes))
    e = int(r.integers(0, 4 * n))
    d_in = int(r.integers(1, max_dim))
    heads = int(r.integers(1, 4))
    edge_weights = r.random(size=e) if trial % 2 else None
    if trial % 4 == 3:
        edge_weights = Tensor(edge_weights)
    rel_emb = r.normal(size=(e, d_in)) if (trial // 2) % 2 else None
    return {
        "num_nodes": n,
        "d_in": d_in,
        "heads": heads,
        "d_out": heads * int(r.integers(1, max_head_dim)),
        "activation": ACTIVATIONS[trial % 3],
        "h": r.normal(size=(n, d_in)),
        "src": r.integers(0, n, size=e),
        "dst": r.integers(0, n, size=e),
        "edge_weights": edge_weights,
        "rel_emb": rel_emb,
        "trial": trial,
    }


def build_layer(conv: str, w, activation: str | None = None):
    """A layer with every parameter drawn at random.

    Random biases matter: the zero-initialised bias would otherwise hide a
    change to the order of the affine terms.
    """
    r = np.random.default_rng([w["trial"], 13])
    activation = activation or w["activation"]
    if conv == "sage":
        layer = SAGEConv(w["d_in"], w["d_out"], activation=activation,
                         rng=r)
    else:
        layer = GATConv(w["d_in"], w["d_out"], activation=activation,
                        num_heads=w["heads"], rng=r)
    for param in layer.parameters():
        param.data[:] = r.normal(size=param.data.shape)
    return layer


def layer_forward(layer, w, h):
    rel_emb = None if w["rel_emb"] is None else Tensor(w["rel_emb"])
    return layer(h, w["src"], w["dst"], w["num_nodes"],
                 edge_weights=w["edge_weights"], rel_emb=rel_emb)


def reference_sage_forward(layer, w) -> np.ndarray:
    """SAGE, inline: ``act(h W_self + b + mean-aggregate W_neigh)``."""
    weights = w["edge_weights"]
    if isinstance(weights, Tensor):
        weights = weights.data
    aggregated = reference_sage_aggregate(
        w["h"], w["src"], w["dst"], w["num_nodes"], edge_weights=weights,
        rel_emb=w["rel_emb"])
    out = (w["h"] @ layer.linear_self.weight.data
           + layer.linear_self.bias.data
           + aggregated @ layer.linear_neigh.weight.data)
    if layer.activation == "relu":
        return out * (out > 0)
    if layer.activation == "tanh":
        return np.tanh(out)
    return out


class TestLayerNoGradBitIdentity:
    """The fused no-grad layer forwards == the autodiff forwards."""

    @pytest.mark.parametrize("trial", range(50))
    @pytest.mark.parametrize("conv", CONVS)
    def test_no_grad_forward_bit_identical(self, conv, trial):
        w = layer_workload(trial)
        layer = build_layer(conv, w)
        autodiff = layer_forward(layer, w, Tensor(w["h"], requires_grad=True))
        assert autodiff._backward is not None  # really the autodiff path
        with no_grad():
            fused = layer_forward(layer, w, Tensor(w["h"]))
        assert fused.data.dtype == autodiff.data.dtype == np.float64
        assert fused.shape == (w["num_nodes"], w["d_out"])
        assert fused.data.tobytes() == autodiff.data.tobytes()
        if conv == "sage":
            assert fused.data.tobytes() \
                == reference_sage_forward(layer, w).tobytes()


def finite_difference(loss, array: np.ndarray, eps: float = 1e-6):
    """Central finite-difference gradient of ``loss()`` w.r.t. ``array``,
    perturbing ``array`` in place."""
    grad = np.zeros_like(array)
    flat, gflat = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss()
        flat[i] = orig - eps
        lo = loss()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


class TestLayerGradients:
    """The training path (autodiff, exact float64) differentiates right."""

    @pytest.mark.parametrize("trial", range(10))
    @pytest.mark.parametrize("conv", CONVS)
    def test_autodiff_matches_finite_differences(self, conv, trial):
        w = layer_workload(trial, max_nodes=8, max_dim=4, max_head_dim=3)
        layer = build_layer(conv, w, activation="tanh")  # smooth
        projection = np.random.default_rng(trial).normal(
            size=(w["num_nodes"], w["d_out"]))
        h = w["h"]

        def loss(leaf=None):
            out = layer_forward(layer, w, leaf if leaf is not None
                                else Tensor(h))
            return (out * Tensor(projection)).sum()

        layer.zero_grad()
        leaf = Tensor(h, requires_grad=True)
        loss(leaf).backward()
        np.testing.assert_allclose(
            leaf.grad, finite_difference(lambda: loss().item(), h),
            rtol=1e-5, atol=1e-6)
        for name, param in layer.named_parameters():
            # A parameter the forward never reads (GAT's relation
            # attention without relation embeddings) gets no gradient;
            # its finite difference must then be zero.
            grad = (param.grad if param.grad is not None
                    else np.zeros_like(param.data))
            np.testing.assert_allclose(
                grad, finite_difference(lambda: loss().item(), param.data),
                rtol=1e-5, atol=1e-6, err_msg=name)


def test_import_does_not_load_scipy_sparse():
    """``nn`` is thinly-wrapped numpy: importing the package (and its
    serving layer) pulls in no sparse-matrix library."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, repro, repro.core, repro.gnn, repro.serving; "
             "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
