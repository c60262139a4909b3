"""Tests for the online serving subsystem (sessions, scheduler, server)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    PretrainConfig,
    Pretrainer,
    sample_episode,
)
from repro.datasets import Dataset, EDGE_TASK, NODE_TASK
from repro.datasets.synthetic import synthetic_knowledge_graph
from repro.graph import EdgeInput, NodeInput
from repro.graph.datapoints import validate_datapoint
from repro.serving import (
    MicroBatchScheduler,
    PromptServer,
    SessionState,
    SessionStore,
)
from repro.persist import PersistentStore
from repro.serving import server as server_module
from repro.serving.session import SessionStats
from reference_paths import serve_per_query


class FakeClock:
    """Manually advanced clock for TTL / max-wait tests."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_session(session_id: str) -> SessionState:
    """Minimal SessionState for store-level tests (no real encodings)."""
    from repro.core import PromptAugmenter

    config = GraphPrompterConfig(hidden_dim=4)
    return SessionState(
        session_id=session_id, num_ways=2, shots=1,
        candidate_emb=np.zeros((2, 4)),
        candidate_importance=np.ones(2),
        pool_labels=np.array([0, 1]),
        augmenter=PromptAugmenter(config, rng=0))


class TestSessionStore:
    def test_put_get_touch_recency(self):
        store = SessionStore(capacity=2)
        store.put(make_session("a"))
        store.put(make_session("b"))
        store.get("a")  # refresh: "b" is now least recently used
        store.put(make_session("c"))
        assert "a" in store and "c" in store and "b" not in store
        assert store.evicted_total == 1

    def test_capacity_lru_eviction_order(self):
        store = SessionStore(capacity=2)
        store.put(make_session("a"))
        store.put(make_session("b"))
        evicted = store.put(make_session("c"))
        assert evicted == ["a"]
        assert store.ids() == ["b", "c"]

    def test_get_unknown_raises(self):
        store = SessionStore(capacity=2)
        with pytest.raises(KeyError):
            store.get("ghost")

    def test_ttl_sweep(self):
        clock = FakeClock()
        store = SessionStore(capacity=4, ttl_seconds=10.0, clock=clock)
        store.put(make_session("old"))
        clock.advance(5)
        store.put(make_session("young"))
        clock.advance(6)  # "old" idle 11s, "young" idle 6s
        assert store.sweep() == ["old"]
        assert "young" in store and "old" not in store
        assert store.expired_total == 1

    def test_activity_refreshes_ttl(self):
        clock = FakeClock()
        store = SessionStore(capacity=4, ttl_seconds=10.0, clock=clock)
        store.put(make_session("a"))
        clock.advance(8)
        store.get("a")  # activity resets the idle timer
        clock.advance(8)
        assert store.sweep() == []

    def test_close(self):
        store = SessionStore(capacity=2)
        store.put(make_session("a"))
        assert store.close("a").session_id == "a"
        assert store.close("a") is None
        assert len(store) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionStore(capacity=0)
        with pytest.raises(ValueError):
            SessionStore(ttl_seconds=0.0)


class TestMicroBatchScheduler:
    def test_releases_at_max_batch_size(self):
        sched = MicroBatchScheduler(max_batch_size=3, max_wait_s=100.0,
                                    clock=FakeClock())
        sched.submit("s", None)
        sched.submit("s", None)
        assert not sched.ready()
        sched.submit("s", None)
        assert sched.ready()

    def test_releases_after_max_wait(self):
        clock = FakeClock()
        sched = MicroBatchScheduler(max_batch_size=8, max_wait_s=0.5,
                                    clock=clock)
        sched.submit("s", None)
        assert not sched.ready()
        clock.advance(0.6)
        assert sched.ready()

    def test_next_batch_arrival_order_and_cap(self):
        sched = MicroBatchScheduler(max_batch_size=2)
        ids = [sched.submit(f"s{i}", None) for i in range(5)]
        first = sched.next_batch()
        assert [r.request_id for r in first] == ids[:2]
        assert [r.request_id for r in sched.next_batch()] == ids[2:4]
        assert len(sched) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_wait_s=-1.0)


@pytest.fixture(scope="module")
def served():
    """A briefly pre-trained model + dataset shared by the server tests."""
    graph = synthetic_knowledge_graph(300, 8, 2400, rng=0, name="kg-serve")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=12, max_subgraph_nodes=10,
                                 num_gnn_layers=2)
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations, config)
    Pretrainer(model, dataset, PretrainConfig(steps=60, num_ways=4),
               rng=0).train()
    return dataset, config, model


def run_workload(server, episodes, queries_per_session):
    """Open one session per episode, interleave queries, drain."""
    for i, episode in enumerate(episodes):
        server.open_session(f"session-{i}", episode)
    for q in range(queries_per_session):
        for i, episode in enumerate(episodes):
            server.submit(f"session-{i}", episode.queries[q])
    return server.drain()


class TestPromptServer:
    def test_serves_all_queries(self, served):
        dataset, config, model = served
        server = PromptServer(model, dataset, max_batch_size=8, rng=1)
        episodes = [sample_episode(dataset, num_ways=3, num_queries=6, rng=s)
                    for s in (1, 2)]
        results = run_workload(server, episodes, 6)
        assert len(results) == 12
        assert all(r.ok for r in results)
        assert all(0 <= r.prediction < 3 for r in results)
        assert server.stats.queries == 12
        assert server.stats.mean_batch_size > 1.0

    def test_batched_identical_to_unbatched(self, served):
        """Micro-batching must not change any answer (acceptance criterion)."""
        dataset, config, model = served
        episodes = [sample_episode(dataset, num_ways=3, num_queries=8, rng=s)
                    for s in (3, 4, 5)]
        outputs = {}
        for batch_size in (1, 8):
            server = PromptServer(model, dataset, max_batch_size=batch_size,
                                  rng=7)
            outputs[batch_size] = run_workload(server, episodes, 8)
        assert ([(r.session_id, r.prediction) for r in outputs[8]]
                == [(r.session_id, r.prediction) for r in outputs[1]])
        conf8 = np.array([r.confidence for r in outputs[8]])
        conf1 = np.array([r.confidence for r in outputs[1]])
        assert conf8.tobytes() == conf1.tobytes()

    def test_session_isolation(self, served):
        """One session's pseudo-label cache never leaks into another's."""
        dataset, config, model = served
        server = PromptServer(model, dataset, max_batch_size=4, rng=2)
        episode = sample_episode(dataset, num_ways=3, num_queries=8, rng=9)
        server.open_session("busy", episode)
        server.open_session("idle", episode)
        for query in episode.queries:
            server.submit("busy", query)
        server.drain()
        busy = server.sessions.get("busy")
        idle = server.sessions.get("idle")
        assert busy.augmenter is not idle.augmenter
        assert busy.cache_stats().insertions > 0
        assert len(busy.augmenter) > 0
        assert len(idle.augmenter) == 0
        assert idle.stats.queries == 0

    def test_isolated_sessions_match_solo_run(self, served):
        """A session sharing the server with others answers exactly as if
        it were alone — isolation means no cross-tenant interference."""
        dataset, config, model = served
        episode_a = sample_episode(dataset, num_ways=3, num_queries=8, rng=11)
        episode_b = sample_episode(dataset, num_ways=4, num_queries=8, rng=12)

        solo = PromptServer(model, dataset, max_batch_size=4, rng=3)
        solo.open_session("a", episode_a)
        for query in episode_a.queries:
            solo.submit("a", query)
        solo_preds = [r.prediction for r in solo.drain()]

        shared = PromptServer(model, dataset, max_batch_size=4, rng=3)
        shared.open_session("a", episode_a)
        shared.open_session("b", episode_b)
        tickets = []
        for qa, qb in zip(episode_a.queries, episode_b.queries):
            tickets.append(shared.submit("a", qa))
            shared.submit("b", qb)
        shared.drain()
        shared_preds = [shared.result(t).prediction for t in tickets]
        assert shared_preds == solo_preds

    def test_submit_unknown_session_raises(self, served):
        dataset, config, model = served
        server = PromptServer(model, dataset, rng=0)
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=13)
        with pytest.raises(KeyError):
            server.submit("never-opened", episode.queries[0])

    def test_malformed_datapoint_rejected_at_submit(self, served):
        """A malformed query raises at submit and never joins a batch, so
        a valid co-batched query from another session is still answered."""
        dataset, config, model = served
        graph = dataset.graph
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=15)
        bad_inputs = (EdgeInput(-1, 5), EdgeInput(graph.num_nodes + 5, 5),
                      EdgeInput(0, 1, relation=graph.num_relations),
                      EdgeInput(0, 1, relation=-2), NodeInput(2.5),
                      NodeInput(graph.num_nodes), NodeInput(0), (0, 1), None)
        for bad in bad_inputs:
            server = PromptServer(model, dataset, max_batch_size=4, rng=0)
            server.open_session("good", episode)
            server.open_session("bad", episode)
            ticket = server.submit("good", episode.queries[0])
            with pytest.raises(ValueError):
                server.submit("bad", bad)
            (result,) = server.drain()
            assert result.request_id == ticket and result.ok, bad
            assert server.stats.queries == 1

    def test_datapoint_type_must_match_task(self):
        """A node task takes only NodeInputs and an edge task only
        EdgeInputs: a mismatched type would fail its whole micro-batch."""
        validate_datapoint(NodeInput(0), 5, 2, NODE_TASK)
        validate_datapoint(EdgeInput(0, 1), 5, 2, EDGE_TASK)
        with pytest.raises(ValueError, match="node task takes NodeInput"):
            validate_datapoint(EdgeInput(0, 1), 5, 2, NODE_TASK)
        with pytest.raises(ValueError, match="edge task takes EdgeInput"):
            validate_datapoint(NodeInput(0), 5, 2, EDGE_TASK)

    def test_lru_session_eviction(self, served):
        dataset, config, model = served
        server = PromptServer(model, dataset, session_capacity=1, rng=0)
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=14)
        server.open_session("first", episode)
        server.open_session("second", episode)
        assert server.stats.sessions_evicted == 1
        with pytest.raises(KeyError):
            server.submit("first", episode.queries[0])
        assert server.submit("second", episode.queries[0]) >= 0

    def test_ttl_expiry_fails_pending_request(self, served):
        """A query whose session expires while queued gets an error result."""
        dataset, config, model = served
        clock = FakeClock()
        server = PromptServer(model, dataset, max_batch_size=8,
                              session_ttl_s=10.0, rng=0, clock=clock)
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=15)
        server.open_session("fleeting", episode)
        ticket = server.submit("fleeting", episode.queries[0])
        clock.advance(11.0)
        results = server.drain()
        assert server.stats.sessions_expired == 1
        assert len(results) == 1
        assert results[0].request_id == ticket
        assert not results[0].ok
        assert results[0].error == "session-expired"

    def test_result_lookup_and_ledger(self, served):
        dataset, config, model = served
        server = PromptServer(model, dataset, max_batch_size=2, rng=4)
        episode = sample_episode(dataset, num_ways=3, num_queries=6, rng=16)
        server.open_session("s", episode)
        tickets = [server.submit("s", q) for q in episode.queries]
        assert server.result(tickets[0]) is None  # nothing processed yet
        server.drain()
        for ticket in tickets:
            result = server.result(ticket)
            assert result is not None and result.ok
            assert result.latency_s >= result.service_s >= 0
        state = server.sessions.get("s")
        assert state.stats.queries == 6

    def test_result_buffer_is_bounded(self, served):
        """Old results fall out of the lookup buffer; memory stays flat."""
        dataset, config, model = served
        server = PromptServer(model, dataset, max_batch_size=2,
                              result_buffer_size=3, rng=5)
        episode = sample_episode(dataset, num_ways=3, num_queries=8, rng=19)
        server.open_session("s", episode)
        tickets = [server.submit("s", q) for q in episode.queries]
        server.drain()
        assert len(server._results) == 3
        assert server.result(tickets[0]) is None  # aged out
        assert server.result(tickets[-1]) is not None
        with pytest.raises(ValueError):
            PromptServer(model, dataset, result_buffer_size=0)

    def test_from_pretrained_warm_start(self, served, tmp_path, monkeypatch):
        """Warm-start builds a working server from the artifact cache."""
        import repro.experiments.common as common

        dataset, config, model = served
        monkeypatch.setattr(common, "CACHE_DIR", str(tmp_path))
        from repro.experiments.common import ExperimentContext

        context = ExperimentContext(pretrain_steps=5, use_disk_cache=True)
        server = PromptServer.from_pretrained(
            "wiki", dataset, config=config, context=context,
            max_batch_size=4)
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=18)
        server.open_session("warm", episode)
        for query in episode.queries:
            server.submit("warm", query)
        results = server.drain()
        assert len(results) == 4 and all(r.ok for r in results)
        # The artifact now exists on disk: a second context re-loads it.
        again = ExperimentContext(pretrain_steps=5, use_disk_cache=True)
        assert again.pretrained_state("wiki", config) is not None

    @pytest.mark.parametrize("kwarg, value", [
        ("num_workers", 2),
        ("worker_backend", "process"),
        ("num_shards", 2),
        ("shard_strategy", "hash"),
        ("shard_owner", np.zeros(4, dtype=np.int64)),
    ])
    def test_server_rejects_retired_worker_kwargs(self, served, kwarg,
                                                  value):
        """Every encode runs in-process on the server's own model, on the
        one monolithic path: the retired worker-pool and sharding knobs
        fail loudly instead of being ignored."""
        dataset, config, model = served
        with pytest.raises(TypeError, match=kwarg):
            PromptServer(model, dataset, **{kwarg: value})

    @pytest.mark.parametrize("kwarg, value", [
        ("max_batch_size", 0),
        ("max_batch_size", -3),
        ("session_capacity", 0),
        ("session_capacity", -3),
        ("session_ttl_s", 0.0),
        ("session_ttl_s", -1.0),
        ("result_buffer_size", 0),
        ("result_buffer_size", -3),
    ])
    def test_server_rejects_non_positive_sizes(self, served, tmp_path,
                                               kwarg, value):
        """Sizes are checked at construction, before the server touches
        its store: a refused server leaves no snapshot behind."""
        dataset, config, model = served
        persist = PersistentStore(str(tmp_path / "store"))
        with pytest.raises(ValueError, match="must be"):
            PromptServer(model, dataset, persist=persist, **{kwarg: value})
        assert not persist.has_snapshot()


#: Malformed candidates, each planted at index 2 of an episode's pool.
BAD_CANDIDATES = ("node-out-of-range", "negative-node", "node-on-edge-task",
                  "relation-out-of-range", "unhashable-node")


def malformed_open(episode, case, num_nodes):
    """``(episode, shots)`` for one malformed way of opening ``episode``
    (an edge task on a graph of ``num_nodes`` nodes)."""
    labels = episode.candidate_labels.copy()
    if case in BAD_CANDIDATES:
        candidates = list(episode.candidates)
        head, tail, relation = (candidates[2].head, candidates[2].tail,
                                candidates[2].relation)
        candidates[2] = {
            "node-out-of-range": EdgeInput(num_nodes + 5, tail, relation),
            "negative-node": EdgeInput(-1, tail, relation),
            "node-on-edge-task": NodeInput(3),
            "relation-out-of-range": EdgeInput(head, tail, 10**6),
            "unhashable-node": EdgeInput([head], tail, relation),
        }[case]
        return replace(episode, candidates=candidates), 3
    if case == "no-candidates":
        return replace(episode, candidates=[],
                       candidate_labels=labels[:0]), 3
    if case == "one-way":
        return replace(episode, way_classes=episode.way_classes[:1],
                       candidate_labels=np.zeros_like(labels)), 3
    if case == "zero-shots":
        return episode, 0
    if case == "label-out-of-range":
        labels[0] = 7
    elif case == "negative-label":
        labels[-1] = -1
    elif case == "float-labels":
        labels = labels.astype(np.float64)
    elif case == "2-d-labels":
        labels = labels[:, None]
    elif case == "label-count":
        labels = labels[:-1]
    return replace(episode, candidate_labels=labels), 3


class TestOpenValidation:
    """A malformed episode is rejected at open, so it can never fail the
    micro-batches it would share with other tenants' queries."""

    @pytest.mark.parametrize("case", [
        "one-way", "zero-shots", "label-out-of-range", "negative-label",
        "float-labels", "2-d-labels", "label-count", "no-candidates",
        *BAD_CANDIDATES])
    def test_malformed_episode_rejected_before_any_effect(self, served,
                                                          tmp_path, case):
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=5, num_queries=4, rng=21)
        bad, shots = malformed_open(episode, case, dataset.graph.num_nodes)
        persist = PersistentStore(str(tmp_path / "store"))
        server = PromptServer(model, dataset, max_batch_size=4, rng=0,
                              persist=persist)
        fresh = PromptServer(model, dataset, max_batch_size=4, rng=0)
        with pytest.raises(ValueError) as rejected:
            server.open_session("bad", bad, shots=shots)
        if case in BAD_CANDIDATES:
            assert str(rejected.value).startswith("candidate 2 (")
        assert "bad" not in server.sessions
        assert server.stats.sessions_opened == 0
        assert len(server.memo) == server.memo.hits == server.memo.misses == 0
        assert persist.sessions.load_all() == []
        assert (server.rng.bit_generator.state
                == fresh.rng.bit_generator.state)
        # A later session answers exactly as on a server that never saw
        # the rejected open.
        answers = []
        for target in (server, fresh):
            target.open_session("good", episode)
            for query in episode.queries:
                target.submit("good", query)
            answers.append([(r.prediction, r.confidence.hex())
                            for r in target.drain()])
        assert answers[0] == answers[1]


    @pytest.mark.parametrize("case", BAD_CANDIDATES)
    def test_rejected_candidate_leaves_memo_unchanged(self, served, case,
                                                      monkeypatch):
        """The other candidates are memo hits, so only the planted one is
        validated, and the memo's entries, recency and counts stay."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=5, num_queries=4, rng=21)
        server = PromptServer(model, dataset, max_batch_size=4, rng=0)
        server.open_session("warm", episode)
        memo = server.memo
        before = (list(memo._slots.items()), memo.hits, memo.misses)
        checked = []
        monkeypatch.setattr(
            server_module, "validate_datapoint",
            lambda point, *args: (checked.append(point),
                                  validate_datapoint(point, *args)))
        bad, shots = malformed_open(episode, case, dataset.graph.num_nodes)
        with pytest.raises(ValueError, match="candidate 2 "):
            server.open_session("bad", bad, shots=shots)
        assert checked == [bad.candidates[2]]
        assert (list(memo._slots.items()), memo.hits, memo.misses) == before
        # A pool the memo holds whole is not validated again.
        server.open_session("again", episode)
        assert checked == [bad.candidates[2]]


def replay_both(build, script):
    """Run ``script(server, clock)`` on a wave server and on one whose
    micro-batches run request by request (``serve_per_query``); returns
    both result lists as ``(request, session, prediction, confidence
    bytes, error)`` tuples."""
    outputs = []
    for per_query in (False, True):
        clock = FakeClock()
        server = build(clock)
        if per_query:
            server._process_scoped = (
                lambda batch, server=server: serve_per_query(server, batch))
        outputs.append([
            (r.request_id, r.session_id, r.prediction, r.confidence.hex(),
             r.error) for r in script(server, clock)])
    return outputs


class TestWaveServing:
    """Waves answer byte for byte as per-query serving does."""

    def test_waves_match_per_query_serving(self, served):
        dataset, config, model = served
        episodes = {
            "a": sample_episode(dataset, num_ways=3, num_queries=8, rng=31),
            "b": sample_episode(dataset, num_ways=4, num_queries=8, rng=32),
            "c": sample_episode(dataset, num_ways=3, num_queries=8, rng=33),
            "gone": sample_episode(dataset, num_ways=3, num_queries=8,
                                   rng=34)}

        def build(clock):
            return PromptServer(model, dataset, max_batch_size=16,
                                session_ttl_s=10.0, rng=5, clock=clock)

        def script(server, clock):
            for session_id, episode in episodes.items():
                server.open_session(session_id, episode)
            server.submit("gone", episodes["gone"].queries[0])
            clock.advance(6.0)
            # Several queries of one session (several waves), two way
            # counts, and a session that expires while queued.
            order = ["a", "a", "b", "c", "a", "b", "c", "c", "a", "b"]
            for n, session_id in enumerate(order):
                server.submit(session_id, episodes[session_id].queries[n % 8])
            clock.advance(5.0)
            results = server.drain()
            for q in range(8):
                for session_id in ("a", "b", "c"):
                    server.submit(session_id, episodes[session_id].queries[q])
            return results + server.drain()

        waves, per_query = replay_both(build, script)
        assert waves == per_query
        assert ("session-expired" in {error for *_, error in waves})
        assert len(waves) == 1 + 10 + 24

    def test_stale_session_waves_match_per_query_serving(self):
        from repro.graph import GraphUpdate

        def build(clock):
            graph, dataset, config, model = two_component_setup()
            return PromptServer(model, dataset, max_batch_size=16, rng=0,
                                clock=clock)

        def script(server, clock):
            rng = np.random.default_rng(6)
            graph = server.dataset.graph
            episode_a = component_episode(graph, 0, 40, rng)
            episode_b = component_episode(graph, 40, 80, rng)
            server.open_session("a", episode_a)
            server.open_session("b", episode_b)
            for q in range(4):
                server.submit("a", episode_a.queries[q])
                server.submit("b", episode_b.queries[q])
            results = server.drain()
            touched = sorted(server.sessions.get("a").dependent_nodes)[:2]
            server.update_graph(GraphUpdate(
                add_src=[touched[0]], add_dst=[touched[-1]], add_rel=[2]))
            assert server.sessions.get("a").stale
            for q in (0, 1, 2, 3, 1):
                server.submit("b", episode_b.queries[q])
                server.submit("a", episode_a.queries[q])
            return results + server.drain()

        waves, per_query = replay_both(build, script)
        assert waves == per_query
        assert len(waves) == 18


class TestSessionStats:
    def test_record_accumulates(self):
        stats = SessionStats()
        stats.record(wait_s=0.1, service_s=0.2, now=5.0)
        stats.record(wait_s=0.3, service_s=0.4, now=6.0)
        assert stats.queries == 2
        assert stats.total_wait_s == pytest.approx(0.4)
        assert stats.total_service_s == pytest.approx(0.6)
        assert stats.last_active == 6.0


# ----------------------------------------------------------------------
# Live graph updates: cache-epoch invalidation
# ----------------------------------------------------------------------
def two_component_setup():
    """A graph of two disconnected halves, one serving session per half.

    Disconnection makes dependency scoping provable: a mutation inside
    one component cannot change any subgraph sampled in the other.
    """
    from repro.graph import Graph

    rng = np.random.default_rng(0)
    half, m = 40, 160
    src = np.concatenate([rng.integers(0, half, m),
                          rng.integers(half, 2 * half, m)])
    dst = np.concatenate([rng.integers(0, half, m),
                          rng.integers(half, 2 * half, m)])
    rel = rng.integers(0, 3, 2 * m)
    graph = Graph(2 * half, src, dst, rel=rel, num_relations=3,
                  node_features=rng.normal(size=(2 * half, 6)),
                  name="two-component")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=8, mutable_graph=True)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    model.eval()
    return graph, dataset, config, model


def component_episode(graph, lo, hi, rng, per_class=4, num_queries=4):
    """A 2-way edge episode whose datapoints all live inside [lo, hi)."""
    from repro.core.episodes import Episode
    from repro.graph import EdgeInput

    ids = np.flatnonzero((graph.src >= lo) & (graph.src < hi))
    candidates, labels, queries, query_labels = [], [], [], []
    for local, relation in enumerate((0, 1)):
        members = [int(e) for e in ids if graph.rel[e] == relation]
        rng.shuffle(members)
        assert len(members) >= per_class + num_queries // 2
        for e in members[:per_class]:
            candidates.append(EdgeInput(int(graph.src[e]),
                                        int(graph.dst[e]),
                                        relation=relation))
            labels.append(local)
        for e in members[per_class:per_class + num_queries // 2]:
            queries.append(EdgeInput(int(graph.src[e]), int(graph.dst[e])))
            query_labels.append(local)
    return Episode(way_classes=np.array([0, 1]),
                   candidates=candidates,
                   candidate_labels=np.array(labels, dtype=np.int64),
                   queries=queries,
                   query_labels=np.array(query_labels, dtype=np.int64))


class TestGraphMutationServing:
    def test_update_requires_mutable_config(self):
        from repro.graph import GraphUpdate

        graph = synthetic_knowledge_graph(80, 3, 400, feature_dim=6, rng=0)
        dataset = Dataset(graph, EDGE_TASK, rng=0)
        config = GraphPrompterConfig(hidden_dim=8)  # mutable_graph off
        model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                                   config)
        server = PromptServer(model, dataset, rng=0)
        with pytest.raises(RuntimeError, match="mutable_graph"):
            server.update_graph(GraphUpdate(add_src=[0], add_dst=[1]))

    def test_mutated_session_invalidated_untouched_keeps_cache(self):
        from repro.graph import GraphUpdate

        graph, dataset, config, model = two_component_setup()
        server = PromptServer(model, dataset, max_batch_size=4, rng=0)
        rng = np.random.default_rng(1)
        episode_a = component_episode(graph, 0, 40, rng)
        episode_b = component_episode(graph, 40, 80, rng)
        server.open_session("a", episode_a)
        server.open_session("b", episode_b)
        for q in range(4):
            server.submit("a", episode_a.queries[q])
            server.submit("b", episode_b.queries[q])
        server.drain()

        state_a = server.sessions.get("a")
        state_b = server.sessions.get("b")
        assert len(state_a.augmenter) > 0 and len(state_b.augmenter) > 0
        assert state_a.dependent_nodes and state_b.dependent_nodes
        assert max(state_a.dependent_nodes) < 40 <= min(
            state_b.dependent_nodes)
        pool_b = state_b.candidate_emb
        cache_b = state_b.augmenter.stats()

        # Mutate strictly inside component A, on nodes session A depends on.
        touched = sorted(state_a.dependent_nodes)[:2]
        applied = server.update_graph(GraphUpdate(
            add_src=[touched[0]], add_dst=[touched[-1]], add_rel=[2]))
        assert applied.version == graph.version
        assert state_a.stale and not state_b.stale
        assert server.stats.sessions_invalidated == 1
        assert server.stats.graph_version == graph.version
        open_centroids = state_a.selector_state.centroids

        # Next predictions: A refreshes (pool re-encoded, cache purged —
        # counted as stale evictions), B answers from its intact cache.
        server.submit("a", episode_a.queries[0])
        server.submit("b", episode_b.queries[0])
        server.drain()
        assert not state_a.stale
        assert state_a.graph_version == graph.version
        # The refresh rebuilt the selector state from the re-encoded pool.
        rebuilt = server.pipeline.selector.pool_state(state_a.candidate_emb,
                                                      state_a.pool_labels)
        assert (state_a.selector_state.centroids.tobytes()
                == rebuilt.centroids.tobytes())
        assert (state_a.selector_state.centroids.tobytes()
                != open_centroids.tobytes())
        assert state_a.augmenter.stats().stale_evictions > 0
        assert server.stats.stale_evictions > 0
        assert state_b.candidate_emb is pool_b
        after_b = state_b.augmenter.stats()
        assert after_b.stale_evictions == 0
        assert after_b.insertions >= cache_b.insertions
        assert state_b.graph_version < graph.version  # never re-encoded

    def test_mutated_session_matches_cold_server(self):
        """Post-refresh answers == a cold server's: no pre-mutation cache
        (pool encodings or pseudo-label prompts) survives into them."""
        from repro.graph import GraphUpdate

        graph, dataset, config, model = two_component_setup()
        server = PromptServer(model, dataset, max_batch_size=4, rng=0)
        rng = np.random.default_rng(2)
        episode_a = component_episode(graph, 0, 40, rng)
        server.open_session("a", episode_a)
        for q in range(4):
            server.submit("a", episode_a.queries[q])
        server.drain()
        state_a = server.sessions.get("a")

        touched = sorted(state_a.dependent_nodes)[:2]
        server.update_graph(GraphUpdate(
            add_src=[touched[0], touched[-1]],
            add_dst=[touched[-1], touched[0]], add_rel=[2, 1]))
        assert state_a.stale

        cold_dataset = Dataset(graph.rebuild(), EDGE_TASK, rng=0)
        cold = PromptServer(model, cold_dataset, max_batch_size=4, rng=0)
        cold.open_session("a", episode_a)
        live_preds, cold_preds = [], []
        for q in range(4):
            server.submit("a", episode_a.queries[q])
            cold.submit("a", episode_a.queries[q])
            live_preds.extend(
                (r.prediction, r.confidence) for r in server.drain())
            cold_preds.extend(
                (r.prediction, r.confidence) for r in cold.drain())
        assert live_preds == cold_preds

    def test_version_epoch_monotonic_and_dependencies_grow(self):
        from repro.graph import GraphUpdate

        graph, dataset, config, model = two_component_setup()
        server = PromptServer(model, dataset, max_batch_size=4, rng=0)
        rng = np.random.default_rng(3)
        episode = component_episode(graph, 0, 40, rng)
        state = server.open_session("a", episode)
        deps_after_open = set(state.dependent_nodes)
        server.submit("a", episode.queries[0])
        server.drain()
        # Query subgraph nodes joined the dependency set.
        assert state.dependent_nodes >= deps_after_open
        versions = [graph.version]
        for _ in range(3):
            server.update_graph(GraphUpdate(add_src=[50], add_dst=[51]))
            versions.append(graph.version)
        assert versions == sorted(set(versions))
        assert server.stats.graph_updates == 3
        # Component-B mutations never invalidate the component-A session.
        assert server.stats.sessions_invalidated == 0
