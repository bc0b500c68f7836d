"""Discrete-event makespan simulator with node-level work stealing.

The Spark engine measures, for every (chunk, query), the real work the
search performed: a non-stealable *serial* part (approximate search +
tree traversal — and the BSF-sharing approximate pass) and the list of
priority-queue processing costs (the stealable part, per paper §3.2).
This simulator replays that work on N simulated nodes under a scheduling
policy, with Odyssey's stealing protocol:

* an idle node (empty queue, nothing left to pull) steals up to
  ``N_SEND`` (=4) unstarted PQ tasks from the victim with the most
  remaining stealable work, taking them from the *tail* of the victim's
  queue — the Take-Away property: rightmost queues in the LB-sorted
  array are the most likely still unprocessed;
* no data moves: the thief re-creates the queues from its own replica's
  index, modelled as ``steal_recreate_frac`` of the stolen work (the
  paper observes queue re-creation is cheap relative to processing).

Everything is deterministic given the seed, so experiments are exactly
reproducible. Time is in node-time cost units (cost / ``N_THREADS``, the
search's threads per node).
"""
import heapq
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..core.search import N_THREADS
from ..distributed.replication import ReplicationConfig
from .schedulers import POLICIES, Policy, dynamic_order, static_assignment

#: PQ tasks a thief takes per steal (the paper's N_send)
N_SEND = 4


@dataclass
class QueryWork:
    """Measured node-level work of one query on one chunk's index."""

    query_id: int
    serial: float
    tasks: list[float] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.serial + float(sum(self.tasks))


def works_from_stats(chunk_stats: pd.DataFrame) -> dict[int, list[QueryWork]]:
    """Convert engine chunk stats into per-chunk QueryWork lists sorted by
    query id (node-time = cost units / ``N_THREADS``)."""
    st = chunk_stats.sort_values(["chunk_id", "query_id"])
    serial = st["t_serial"] / N_THREADS
    out: dict[int, list[QueryWork]] = {}
    for chunk, qid, ser, pq in zip(st["chunk_id"], st["query_id"], serial, st["pq_costs"]):
        out.setdefault(int(chunk), []).append(
            QueryWork(query_id=int(qid), serial=float(ser), tasks=np.divide(pq, N_THREADS).tolist())
        )
    return out


@dataclass
class GroupSimResult:
    makespan: float
    node_busy: list[float]
    n_steals: int
    total_work: float

    @property
    def imbalance(self) -> float:
        mean = np.mean(self.node_busy) if self.node_busy else 0.0
        return float(max(self.node_busy) / mean) if mean > 0 else 1.0


_SERIAL, _PQ, _PQ_STOLEN = 0, 1, 2  # stolen queues are marked and never re-stolen


def simulate_group(
    works: list[QueryWork],
    n_nodes: int,
    policy: Policy | str,
    *,
    predictions: np.ndarray | None = None,
    steal_recreate_frac: float = 0.15,
    seed: int = 0,
) -> GroupSimResult:
    """Simulate one replication group answering its query batch."""
    if isinstance(policy, str):
        policy = POLICIES[policy]
    rng = np.random.default_rng(seed)
    n_q = len(works)

    def chores_of(i: int) -> list[tuple[int, int, float]]:
        w = works[i]
        return [(_SERIAL, i, w.serial)] + [(_PQ, i, c) for c in w.tasks]

    queues: list[list[tuple[int, int, float]]] = [[] for _ in range(n_nodes)]
    shared: list[int] = []
    if policy.dynamic:
        shared = dynamic_order(policy, n_q, predictions)
    else:
        for node, qs in enumerate(static_assignment(policy, n_q, n_nodes, predictions)):
            for i in qs:
                queues[node].extend(chores_of(i))
    shared_pos = 0

    clocks = [(0.0, node) for node in range(n_nodes)]
    heapq.heapify(clocks)
    busy = [0.0] * n_nodes
    finish = [0.0] * n_nodes
    n_steals = 0
    total_work = sum(w.total for w in works)

    while clocks:
        t, node = heapq.heappop(clocks)
        if not queues[node]:
            if shared_pos < len(shared):
                queues[node].extend(chores_of(shared[shared_pos]))
                shared_pos += 1
            elif policy.steal:
                # steal only queues with actual work left (cost > 0) that
                # were not themselves stolen (Take-Away property + "mark
                # the priority queue as stolen")
                loads = np.array(
                    [
                        sum(c for k, _, c in queues[v] if k == _PQ and c > 0)
                        if v != node
                        else 0.0
                        for v in range(n_nodes)
                    ]
                )
                if loads.max() <= 0:
                    finish[node] = t
                    continue
                victim = int(rng.choice(np.flatnonzero(loads == loads.max())))
                stolen: list[tuple[int, int, float]] = []
                for pos in range(len(queues[victim]) - 1, -1, -1):
                    if len(stolen) >= N_SEND:
                        break
                    kind, qid, cost = queues[victim][pos]
                    if kind == _PQ and cost > 0:
                        queues[victim].pop(pos)
                        stolen.append((_PQ_STOLEN, qid, cost))
                n_steals += 1
                recreate = steal_recreate_frac * sum(c for _, _, c in stolen)
                total_work += recreate
                queues[node].append((_SERIAL, stolen[0][1], recreate))
                queues[node].extend(stolen)
            else:
                finish[node] = t
                continue
        if queues[node]:
            _, _, cost = queues[node].pop(0)
            busy[node] += cost
            heapq.heappush(clocks, (t + cost, node))
        else:
            finish[node] = t

    return GroupSimResult(
        makespan=max(finish) if finish else 0.0,
        node_busy=busy,
        n_steals=n_steals,
        total_work=total_work,
    )


@dataclass
class ClusterSimResult:
    makespan: float
    group_results: dict[int, GroupSimResult]
    n_steals: int


def simulate_cluster(
    works_by_chunk: dict[int, list[QueryWork]],
    config: ReplicationConfig,
    policy: Policy | str,
    *,
    predictions_by_chunk: dict[int, np.ndarray] | None = None,
) -> ClusterSimResult:
    """Simulate the full PARTIAL-k system: every replication group answers
    the whole batch on its chunk with ``group_size`` replicas; the batch
    makespan is the slowest group (the coordinator needs every group's
    partial answers). Group ``c`` steals with seed ``c``. A chunk with no
    rows has no works and, when predictions are passed, none to predict."""
    groups: dict[int, GroupSimResult] = {}
    for chunk in range(config.n_chunks):
        works = works_by_chunk.get(chunk, [])
        preds = None
        if predictions_by_chunk is not None:
            preds = predictions_by_chunk.get(chunk, np.empty(0))
        groups[chunk] = simulate_group(works, config.group_size, policy, predictions=preds, seed=chunk)
    return ClusterSimResult(
        makespan=max((g.makespan for g in groups.values()), default=0.0),
        group_results=groups,
        n_steals=sum(g.n_steals for g in groups.values()),
    )
