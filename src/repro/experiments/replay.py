"""The one replay loop every serving driver shares.

A workload is a list of *ticks*; a tick is a list of ``(session_id,
query_index)`` keys into an ``episodes`` dict.  :func:`replay` submits
each tick to a :class:`~repro.serving.PromptServer` and drains it;
:func:`replay_gateway` submits each tick to a
:class:`~repro.serving.ServingGateway` and flushes it.  The two stay
apart because ``PromptServer.drain()`` is synchronous and
``ServingGateway.flush()`` is awaited.  A differential check is two
replays and one :func:`require_identical`.
"""

from __future__ import annotations

import asyncio
import time

from ..core import GraphPrompterModel, sample_episode
from .common import default_config

__all__ = ["served_model", "sample_episodes", "replay", "replay_workload",
           "replay_gateway", "require_identical"]


def served_model(context, source: str, target: str, **config):
    """``(model, dataset)``: a model over ``target`` with ``source``'s
    pre-trained weights; ``config`` overrides :func:`default_config`."""
    state = context.pretrained_state(source)
    dataset = context.dataset(target)
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations,
                               default_config(**config))
    model.load_state_dict(state)
    return model, dataset


def sample_episodes(dataset, count: int, num_ways: int, num_queries: int,
                    first_rng: int) -> dict:
    """``{"session-i": episode}``, episode ``i`` seeded ``first_rng + i``."""
    return {
        f"session-{i}": sample_episode(dataset, num_ways=num_ways,
                                       num_queries=num_queries,
                                       rng=first_rng + i)
        for i in range(count)
    }


def replay(server, episodes: dict, ticks) -> tuple[list, float]:
    """Submit each tick, then drain it.

    Returns ``(results in arrival order, seconds)``.
    """
    results = []
    start = time.perf_counter()
    for tick in ticks:
        for session_id, query_index in tick:
            server.submit(session_id,
                          episodes[session_id].queries[query_index])
        results.extend(server.drain())
    return results, time.perf_counter() - start


def replay_workload(server, episodes: dict) -> tuple[list, float]:
    """Open every session, then replay all queries round-robin as one tick.

    Round-robin arrival means every micro-batch mixes queries from many
    tenants — the cross-session coalescing case the serve benches measure.
    """
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    num_queries = next(iter(episodes.values())).num_queries
    tick = [(session_id, q) for q in range(num_queries)
            for session_id in episodes]
    return replay(server, episodes, [tick])


async def replay_gateway(gateway, episodes: dict, ticks,
                         after_tick=None) -> tuple[list, float]:
    """Submit each tick without waiting, then flush the gateway.

    Returns ``([(key, outcome)] in submission order, seconds)``: each
    outcome is the shed :class:`~repro.serving.Overloaded` or the
    admitted request's ``GatewayResult``.  ``after_tick(index)`` runs
    after tick ``index``'s flush.  Raises ``RuntimeError`` when an
    admitted request is still unresolved — the gateway must never hang
    one.
    """
    pending = []
    start = time.perf_counter()
    for index, tick in enumerate(ticks):
        for key in tick:
            session_id, query_index = key
            pending.append((key, gateway.submit_nowait(
                session_id, episodes[session_id].queries[query_index])))
        await gateway.flush()
        if after_tick is not None:
            after_tick(index)
    elapsed = time.perf_counter() - start
    outcomes = []
    for key, outcome in pending:
        if isinstance(outcome, asyncio.Future):
            if not outcome.done():
                raise RuntimeError(
                    f"request {key} never resolved — the gateway must "
                    f"never hang an admitted request")
            outcome = outcome.result()
        outcomes.append((key, outcome))
    return outcomes, elapsed


def require_identical(reference: list, candidate: list, what: str) -> None:
    """The differential check: raise ``RuntimeError`` unless equal.

    ``what`` names the comparison; the message adds the first mismatch.
    """
    if candidate == reference:
        return
    for index, (want, got) in enumerate(zip(reference, candidate)):
        if want != got:
            raise RuntimeError(f"{what} diverged at item {index}: "
                               f"{got!r} != {want!r}")
    raise RuntimeError(f"{what} diverged: {len(candidate)} items != "
                       f"{len(reference)}")
