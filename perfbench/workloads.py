"""The three served workloads and the closed-loop client that drives them.

Every workload serves ``default_config()`` weights pre-trained on wiki
(numpy float64 backend, one shard, one worker) in this one process and
thread.  Clients form a closed loop: each session submits its next query
only after its previous answer arrived.  All sessions move in lockstep
rounds, so one round is one micro-batch tick; a session whose episode is
used up opens its next episode before submitting.  Episodes have a fixed
length and the sessions' first episodes are staggered, so session opens
land on a fixed share of rounds: the latency percentiles then fall in the
same regime (rounds with or without an open) whatever the seed.

The program under test receives only what :func:`make_inputs` generates
from the seed (episodes, plus seeded graph updates on ``mutating``).
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core import GraphPrompterModel, sample_episode
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentContext, default_config
from repro.experiments.serving import random_graph_update
from repro.serving import Overloaded, PromptServer, ServingGateway

__all__ = ["WORKLOADS", "CoreRotation", "Workload", "ensure_weights",
           "setup", "make_inputs", "drive", "run_drive"]

#: Pre-training source of every workload's weights (the serve-bench one).
SOURCE = "wiki"
#: Pre-generated episodes per session; sessions that serve more cycle.
EPISODES_PER_SESSION = 12


class CoreRotation:
    """Moves this process to the next allowed core on every :meth:`step`.

    The host's cores run at different and drifting speeds, so a run that
    stays where the scheduler first put it measures that core.  Rotating
    every round makes each run average over all the cores it may use.
    """

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.cores = sorted(self.allowed)
        self.turn = 0

    def step(self) -> None:
        if len(self.cores) > 1:
            os.sched_setaffinity(0, {self.cores[self.turn % len(self.cores)]})
            self.turn += 1

    def restore(self) -> None:
        os.sched_setaffinity(0, self.allowed)


def host_probe() -> float:
    """Seconds one fixed slice of interpreter and numpy work takes now.

    It runs no code of the served system, so its time moves only with the
    host's speed.  The benchmark reports timings at a reference speed by
    scaling them with it (see :mod:`perfbench.report`).
    """
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    block = np.full((48, 48), 0.5)
    for _ in range(30):
        block = np.tanh(block @ block * 0.01)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    """One traffic mix: which graph, how many ways and sessions, writes."""

    name: str
    dataset: str
    num_ways: int
    sessions: int
    max_batch_size: int = 16
    gateway: bool = False
    mutable: bool = False
    #: A seeded graph update runs after every ``update_every`` rounds.
    update_every: int = 0
    update_add: int = 0
    update_remove: int = 0
    #: Queries per episode; an episode with fewer test datapoints cycles
    #: through them.
    episode_queries: int = 48
    #: Rounds whose predictions must equal a ``max_batch_size=1`` replay.
    prefix_rounds: int = 8


WORKLOADS = {
    w.name: w for w in (
        Workload("kg-serve", dataset="nell", num_ways=5, sessions=16,
                 gateway=True),
        Workload("many-way", dataset="fb15k237", num_ways=50, sessions=4,
                 episode_queries=64, prefix_rounds=6),
        Workload("mutating", dataset="nell", num_ways=5, sessions=8,
                 mutable=True, update_every=4, update_add=40,
                 update_remove=20, prefix_rounds=12),
    )
}


def ensure_weights() -> None:
    """Pre-train and cache the served weights once if the cache lacks them.

    This is the benchmark's build step (about half a minute on a cold
    checkout); it is not part of the measured set-up time.
    """
    ExperimentContext().pretrained_state(SOURCE, default_config())


@dataclass
class Served:
    """One built serving stack."""

    dataset: object
    server: PromptServer
    gateway: ServingGateway | None
    setup_s: float


def setup(workload: Workload, max_batch_size: int | None = None) -> Served:
    """Build the dataset, load weights, build the model and the server."""
    start = time.perf_counter()
    batch = max_batch_size or workload.max_batch_size
    dataset = load_dataset(workload.dataset)
    # A fresh context reads the weights from the on-disk artifact cache.
    state = ExperimentContext().pretrained_state(SOURCE, default_config())
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations,
                               default_config(mutable_graph=workload.mutable))
    model.load_state_dict(state)
    server = PromptServer(model, dataset, max_batch_size=batch, rng=0)
    gateway = None
    if workload.gateway:
        gateway = ServingGateway(server, max_batch_size=batch,
                                 auto_drain=False)
    return Served(dataset, server, gateway, time.perf_counter() - start)


@dataclass
class Inputs:
    """Everything the workload sends, generated from the seed."""

    episodes: list[list]          # per session, the episodes it cycles
    update_seed: list[int]


def make_inputs(workload: Workload, dataset, seed: int) -> Inputs:
    """Seeded episodes per session (and the update stream's seed)."""
    episodes = []
    for session in range(workload.sessions):
        rng = np.random.default_rng([seed, session])
        episodes.append([
            sample_episode(dataset, num_ways=workload.num_ways,
                           num_queries=workload.episode_queries, rng=rng)
            for _ in range(EPISODES_PER_SESSION)])
    return Inputs(episodes=episodes, update_seed=[seed, 7919])


@dataclass
class Phase:
    """Request accounting of one phase (session open, query, update)."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies_s: list = field(default_factory=list)
    #: The round each latency sample was taken in.
    rounds: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one closed-loop drive observed."""

    wall_s: float = 0.0
    rounds: int = 0
    opens: Phase = field(default_factory=Phase)
    queries: Phase = field(default_factory=Phase)
    updates: Phase = field(default_factory=Phase)
    correct: int = 0
    out_of_range: int = 0
    queue_waits_s: list = field(default_factory=list)
    #: (round, session index, prediction) of the first prefix rounds.
    prefix: list = field(default_factory=list)
    #: :func:`host_probe` time before every round.
    probes_s: list = field(default_factory=list)
    #: The program's own counters (``ServerStats``) after the drive.
    stats: object = None

    @property
    def phases(self) -> dict[str, Phase]:
        return {"open": self.opens, "query": self.queries,
                "update": self.updates}

    @property
    def attempted(self) -> int:
        return sum(phase.sent for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases.values())

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self.prefix).encode()).hexdigest()[:16]


class _Client:
    """One session's position in its episode stream."""

    def __init__(self, index: int, episodes: list, length: int,
                 first_length: int):
        self.index = index
        self.episodes = episodes
        self.opened = 0
        self.episode = None
        self.length = first_length
        self.next_length = length
        self.next_query = 0
        self.session_id = None

    @property
    def needs_open(self) -> bool:
        return self.episode is None or self.next_query >= self.length


def _close(served: Served, client: _Client) -> None:
    """Close the client's current session, if it has one."""
    if client.session_id is not None:
        (served.gateway or served.server).close_session(client.session_id)
        client.session_id = None


def _open(served: Served, client: _Client, outcome: Outcome, clock,
          round_id: int) -> None:
    """Open the client's next episode as a new session (timed, counted)."""
    _close(served, client)
    episode = client.episodes[client.opened % len(client.episodes)]
    session_id = f"s{client.index}-e{client.opened}"
    client.opened += 1
    outcome.opens.sent += 1
    opened_at = clock()
    try:
        if served.gateway is not None:
            served.gateway.open_session(f"tenant-{client.index}",
                                        session_id, episode)
        else:
            served.server.open_session(session_id, episode)
    except Exception:
        _report("open_session")
        outcome.opens.failed += 1
        return
    outcome.opens.latencies_s.append(clock() - opened_at)
    outcome.opens.rounds.append(round_id)
    outcome.opens.succeeded += 1
    if client.episode is not None:
        client.length = client.next_length
    client.episode, client.next_query = episode, 0
    client.session_id = session_id


async def drive(workload: Workload, served: Served, inputs: Inputs, *,
                seconds: float | None = None, rounds: int | None = None,
                ledger=None) -> Outcome:
    """Run the closed loop for ``seconds`` or for ``rounds`` rounds."""
    server, gateway = served.server, served.gateway
    submit = gateway.submit_nowait if gateway is not None else server.submit
    length = workload.episode_queries
    clients = [_Client(i, episodes, length,
                       length - i * length // workload.sessions)
               for i, episodes in enumerate(inputs.episodes)]
    update_rng = np.random.default_rng(inputs.update_seed)
    outcome = Outcome()
    clock = time.perf_counter
    cores = CoreRotation()
    start = clock()
    paused = 0.0
    round_id = 0
    while True:
        if rounds is not None and round_id >= rounds:
            break
        if seconds is not None and clock() - start - paused >= seconds:
            break
        cores.step()
        # The host probe runs off the clock, between rounds.
        paused_at = clock()
        outcome.probes_s.append(host_probe())
        paused += clock() - paused_at
        if ledger is not None:
            ledger.tick = round_id
        # Opens first: a session's query never waits on another session's
        # open, so query latency is the query path and opens are timed on
        # their own.
        for client in clients:
            if client.needs_open:
                _open(served, client, outcome, clock, round_id)
        pending = []
        for client in clients:
            if client.session_id is None:
                continue  # its open failed; it sits this round out
            query = client.next_query % client.episode.num_queries
            client.next_query += 1
            datapoint = client.episode.queries[query]
            outcome.queries.sent += 1
            submitted_at = clock()
            try:
                handle = submit(client.session_id, datapoint)
            except Exception:
                _report("submit")
                outcome.queries.failed += 1
                continue
            pending.append((client, query, submitted_at, handle))
        try:
            if gateway is not None:
                await gateway.flush()
            else:
                server.drain()
        except Exception:
            _report("dispatch")  # its unanswered queries count as failed
        answered_at = clock()
        for client, query, submitted_at, handle in pending:
            prediction, wait_s = _answer(server, gateway, handle)
            if prediction is None:
                outcome.queries.failed += 1
                continue
            outcome.queries.succeeded += 1
            outcome.queries.latencies_s.append(answered_at - submitted_at)
            outcome.queries.rounds.append(round_id)
            outcome.queue_waits_s.append(wait_s)
            if not 0 <= prediction < client.episode.num_ways:
                outcome.out_of_range += 1
            outcome.correct += int(
                prediction == client.episode.query_labels[query])
            if round_id < workload.prefix_rounds:
                outcome.prefix.append((round_id, client.index, prediction))
        if workload.update_every and (
                round_id % workload.update_every == workload.update_every - 1):
            update = random_graph_update(
                served.dataset.graph, update_rng,
                num_add=workload.update_add,
                num_remove=workload.update_remove)
            outcome.updates.sent += 1
            updated_at = clock()
            try:
                server.update_graph(update)
            except Exception:
                _report("update_graph")
                outcome.updates.failed += 1
            else:
                outcome.updates.latencies_s.append(clock() - updated_at)
                outcome.updates.succeeded += 1
        round_id += 1
    outcome.wall_s = clock() - start - paused
    outcome.rounds = round_id
    cores.restore()
    for client in clients:
        _close(served, client)
    outcome.stats = (gateway or server).stats
    return outcome


def _report(operation: str) -> None:
    """Log a failed operation's traceback; the caller counts the failure."""
    print(f"perfbench: {operation} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _answer(server: PromptServer, gateway, handle):
    """``(prediction, queue wait)`` of one answered query, else ``None``."""
    if gateway is None:
        result = server.result(handle)
        if result is None or not result.ok:
            return None, 0.0
        return result.prediction, result.wait_s
    if isinstance(handle, Overloaded) or not handle.done():
        return None, 0.0
    answer = handle.result()
    if not answer.ok:
        return None, 0.0
    return answer.prediction, answer.queue_wait_s + answer.result.wait_s


def run_drive(workload: Workload, served: Served, inputs: Inputs,
              **kwargs) -> Outcome:
    """Synchronous entry point around :func:`drive`."""
    return asyncio.run(drive(workload, served, inputs, **kwargs))
