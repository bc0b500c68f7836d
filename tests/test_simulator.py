"""Makespan simulator and work-stealing protocol tests."""
import numpy as np
import pandas as pd
import pytest

from repro.core.search import N_THREADS
from repro.distributed.replication import ReplicationConfig
from repro.experiments.harness import _first_queries
from repro.scheduling.schedulers import ALL_POLICIES
from repro.scheduling.simulator import (
    QueryWork,
    simulate_cluster,
    simulate_group,
    works_from_stats,
)


def _works(costs, tasks_per_query=4):
    out = []
    for i, c in enumerate(costs):
        out.append(QueryWork(i, c * 0.2, [c * 0.8 / tasks_per_query] * tasks_per_query))
    return out


def test_single_node_makespan_is_total_work():
    works = _works([10, 20, 30])
    r = simulate_group(works, 1, "STATIC")
    assert r.makespan == pytest.approx(60.0)
    assert r.total_work == pytest.approx(60.0)


def test_makespan_at_least_lower_bound():
    works = _works(np.random.default_rng(0).random(50) * 100)
    total = sum(w.total for w in works)
    for pol in ("STATIC", "DYNAMIC", "WORK-STEAL"):
        r = simulate_group(works, 4, pol)
        assert r.makespan >= total / 4 - 1e-9
        assert r.makespan <= total + 1e-9


def test_work_conservation_without_stealing():
    works = _works([5, 7, 11, 13, 17])
    r = simulate_group(works, 3, "DYNAMIC")
    assert sum(r.node_busy) == pytest.approx(sum(w.total for w in works))


def test_deterministic_given_seed():
    works = _works(np.random.default_rng(1).random(40) * 50)
    a = simulate_group(works, 4, "WORK-STEAL", seed=7)
    b = simulate_group(works, 4, "WORK-STEAL", seed=7)
    assert a.makespan == b.makespan and a.n_steals == b.n_steals


def test_zero_cost_tasks_terminate():
    """Regression: zero-cost priority queues must not livelock stealing."""
    works = [QueryWork(i, 0.0, [0.0, 0.0]) for i in range(10)]
    r = simulate_group(works, 4, "WORK-STEAL")
    assert r.makespan == 0.0


def test_stealing_helps_tail_heavy_batch():
    """One giant query at the end of the batch: without stealing one node
    carries it alone; stealing splits its queues (paper Fig 10a)."""
    costs = [1.0] * 40 + [200.0]
    works = _works(costs, tasks_per_query=16)
    no_steal = simulate_group(works, 8, "DYNAMIC")
    steal = simulate_group(works, 8, "WORK-STEAL")
    assert steal.n_steals > 0
    assert steal.makespan < no_steal.makespan


def test_predict_dn_beats_static_on_increasing_difficulty():
    """The paper's SQS pathology: progressively harder queries."""
    costs = np.linspace(1, 100, 64)
    works = _works(costs)
    preds = np.array([w.total for w in works])
    static = simulate_group(works, 8, "STATIC")
    pdn = simulate_group(works, 8, "PREDICT-DN", predictions=preds)
    assert pdn.makespan < static.makespan


def test_steal_recreate_cost_accounted():
    costs = [1.0] * 20 + [100.0]
    works = _works(costs, tasks_per_query=8)
    r = simulate_group(works, 4, "WORK-STEAL", steal_recreate_frac=0.5)
    assert r.total_work > sum(w.total for w in works)


def test_more_nodes_never_slower():
    works = _works(np.random.default_rng(3).random(60) * 30)
    prev = np.inf
    for n in (1, 2, 4, 8):
        m = simulate_group(works, n, "WORK-STEAL").makespan
        assert m <= prev + 1e-9
        prev = m


def test_cluster_partial_replication_max_over_groups():
    works_by_chunk = {0: _works([10, 10]), 1: _works([50, 50])}
    cfg = ReplicationConfig(4, 2)  # 2 groups of 2 nodes
    r = simulate_cluster(works_by_chunk, cfg, "DYNAMIC")
    assert r.makespan == pytest.approx(r.group_results[1].makespan)
    assert r.group_results[0].makespan < r.group_results[1].makespan


def test_cluster_missing_chunk_is_empty_group():
    cfg = ReplicationConfig(2, 2)
    r = simulate_cluster({0: _works([5])}, cfg, "STATIC")
    assert r.makespan == pytest.approx(5.0)


def test_full_replication_uses_all_nodes():
    works_by_chunk = {0: _works([10] * 16)}
    fast = simulate_cluster(works_by_chunk, ReplicationConfig(8, 1), "DYNAMIC")
    slow = simulate_cluster(works_by_chunk, ReplicationConfig(1, 1), "DYNAMIC")
    assert fast.makespan < slow.makespan


def test_works_from_stats_roundtrip():
    stats = pd.DataFrame(
        {
            "chunk_id": [0, 0, 1],
            "query_id": [1, 0, 0],
            "t_serial": [8.0, 16.0, 24.0],
            "pq_costs": [np.array([8.0, 8.0]), np.array([]), np.array([16.0])],
        }
    )
    works = works_from_stats(stats)
    assert sorted(works) == [0, 1]
    assert [w.query_id for w in works[0]] == [0, 1]  # sorted by query id
    assert works[0][1].serial == pytest.approx(1.0)
    assert works[0][1].tasks == [pytest.approx(1.0)] * 2
    assert works[1][0].total == pytest.approx(5.0)


def _works_reference(chunk_stats, n_threads):
    """``works_from_stats`` as a plain loop over rows."""
    out = {}
    for _, r in chunk_stats.sort_values(["chunk_id", "query_id"]).iterrows():
        tasks = [c / n_threads for c in r["pq_costs"]]
        out.setdefault(int(r["chunk_id"]), []).append(
            QueryWork(int(r["query_id"]), float(r["t_serial"]) / n_threads, tasks)
        )
    return out


def _random_chunk_stats(seed):
    """Engine-like stats: 1-4 chunks, each answering queries 0..m-1 for its
    own m in 1..7, rows in random order, 0-5 PQ costs per row."""
    rng = np.random.default_rng(seed)
    rows = [
        {
            "chunk_id": c,
            "query_id": q,
            "t_serial": float(rng.random() * 100),
            "pq_costs": rng.random(int(rng.integers(0, 6))) * 50,
            "topk_dist": np.array([]),
            "topk_id": np.array([], dtype=np.int64),
        }
        for c in rng.permutation(int(rng.integers(1, 5)))
        for q in rng.permutation(int(rng.integers(1, 8)))
    ]
    return pd.DataFrame(rows)


@pytest.mark.parametrize("seed", range(10))
def test_works_from_stats_matches_loop(seed):
    stats = _random_chunk_stats(seed)
    assert works_from_stats(stats) == _works_reference(stats, N_THREADS)


@pytest.mark.parametrize("seed", range(10))
def test_first_queries_match_filtered_stats(seed):
    """The harness converts a search's stats once and slices the works by
    query id; that equals converting the stats of the first queries."""
    stats = _random_chunk_stats(seed)
    works = works_from_stats(stats)
    for n_q in range(1, stats["query_id"].max() + 2):
        assert _first_queries(works, n_q) == works_from_stats(stats[stats["query_id"] < n_q])


def test_imbalance_metric():
    r = simulate_group(_works([100, 1, 1, 1]), 4, "STATIC")
    assert r.imbalance > 1.5


def _random_works(rng):
    """Up to 30 queries: serial parts and 0-7 PQ tasks, some costs zero,
    some integer-valued so that loads tie."""
    works = []
    for i in range(int(rng.integers(0, 31))):
        tasks = rng.exponential(5.0, int(rng.integers(0, 8)))
        tasks[rng.random(len(tasks)) < 0.1] = 0.0
        if rng.random() < 0.3:
            tasks = np.round(tasks)
        works.append(QueryWork(i, float(rng.exponential(10.0)), tasks.tolist()))
    return works


@pytest.mark.parametrize("seed", range(25))
def test_simulator_invariants(seed):
    """For every policy and 1-8 nodes: the nodes' busy time adds up to the
    measured work plus the steal re-creation cost (``total_work``), and
    the makespan is at least the even share of that work and at least the
    largest single chore."""
    rng = np.random.default_rng(seed)
    works = _random_works(rng)
    predictions = rng.random(len(works)) * 100
    measured = sum(w.total for w in works)
    stealable = sum(sum(w.tasks) for w in works)
    largest = max((c for w in works for c in [w.serial, *w.tasks]), default=0.0)
    for policy in ALL_POLICIES:
        for n_nodes in range(1, 9):
            r = simulate_group(works, n_nodes, policy, predictions=predictions, seed=seed)
            case = (policy, n_nodes)
            recreate = r.total_work - measured
            assert -1e-9 <= recreate <= 0.15 * stealable + 1e-9, case
            if r.n_steals == 0:
                assert recreate == pytest.approx(0.0, abs=1e-9), case
            assert len(r.node_busy) == n_nodes, case
            assert sum(r.node_busy) == pytest.approx(r.total_work, rel=1e-12, abs=1e-9), case
            bound = max(r.total_work / n_nodes, largest)
            assert r.makespan >= bound * (1 - 1e-12) - 1e-9, case
