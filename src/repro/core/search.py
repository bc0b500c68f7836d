"""Odyssey single-node exact query answering (paper Algorithms 1–2).

Phases, exactly as in the paper:

1. *Approximate search* seeds the BSF (optionally capped by a globally
   shared BSF — Odyssey's BSF-sharing).
2. *Tree traversal*: root subtrees are grouped into ``N_sb`` RS-batches;
   leaves whose MINDIST lower bound beats the BSF are pushed into the
   batch's active priority queue; when a queue reaches the threshold
   ``TH`` it is sealed and a new one starts (this is what makes queues
   steal-able at RS-batch granularity without moving data).
3. *PQ preprocessing*: the queue array is sorted by the lower bound of
   each queue's top element (Odyssey) or left in creation order (MESSI
   baseline mode, ``sorted_pqs=False``).
4. *PQ processing*: queues are consumed in order; a queue is abandoned as
   soon as its head's lower bound reaches the BSF; surviving leaves go
   through the distance's series-level cascade and the remainder get real
   (vectorised) distances, updating the BSF.

Only the lower bounds change between distances, so one loop
(:func:`pq_search`) runs every distance over a small metric: its leaf
lower bounds, its approximate search and its per-leaf cascade. For ED the
cascade is PAA MINDIST → Euclidean distance (:class:`_EdMetric`); for DTW
see :mod:`repro.core.dtw`.

The search returns exact work counters and the priority-queue cost
decomposition (:class:`SearchStats`), which feed the cluster-level
makespan simulator; :func:`approximate_search` returns the same record for
phase 1 alone (the distributed operator's first pass). Supports k-NN
(``k`` best-so-far distances) out of the box.
"""
import heapq
from dataclasses import dataclass, field

import numpy as np

from .index import ISaxIndex, approx_search
from .isax import mindist_paa_paa
from .paa import paa

#: cost units (flop-ish): real distance = L per series, lower bounds = w.
LEAF_OVERHEAD = 8.0
#: threads per node: the search's RS-batch count, and the simulator's and
#: harness's cost-to-node-time divisor
N_THREADS = 8


@dataclass
class SearchStats:
    """Result + work breakdown of one single-node query execution."""

    topk: list  # [(dist, id)] sorted ascending, length <= k
    approx_bsf: float
    leaf_lb: int = 0  # leaf lower-bound computations
    series_lb: int = 0  # per-series lower-bound computations
    real_series: int = 0  # series whose real distance was computed
    leaves_processed: int = 0
    approx_cost: float = 0.0
    traversal_cost: float = 0.0
    pq_costs: list = field(default_factory=list)
    pq_sizes: list = field(default_factory=list)

    @property
    def nn_dist(self) -> float:
        return self.topk[0][0]

    @property
    def nn_id(self) -> int:
        return self.topk[0][1]

    @property
    def total_cost(self) -> float:
        return self.approx_cost + self.traversal_cost + float(sum(self.pq_costs))


class _KBsf:
    """k best-so-far (distance, id) pairs; the pruning bound is the k-th best
    distance, capped by a shared (global) bound when BSF-sharing is active.

    Entries are ordered by (distance, id), the coordinator's order, so the
    heap keeps the same k entries whatever order they are offered in."""

    def __init__(self, k: int, shared_bound: float):
        self.k = k
        self.shared = float(shared_bound)
        self._heap: list = []  # max-heap on (dist, id) via negated keys
        self._ids: set[int] = set()  # a series may be offered in both the
        # approximate and the PQ-processing phase; count it once

    @property
    def bound(self) -> float:
        local = -self._heap[0][0] if len(self._heap) >= self.k else np.inf
        return min(local, self.shared)

    def offer(self, dist: float, sid: int) -> None:
        if sid in self._ids:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-dist, -sid))
            self._ids.add(sid)
        elif (dist, sid) < (-self._heap[0][0], -self._heap[0][1]):
            _, evicted = heapq.heapreplace(self._heap, (-dist, -sid))
            self._ids.discard(-evicted)
            self._ids.add(sid)

    def offer_many(self, dists: np.ndarray, sids: np.ndarray) -> None:
        if len(dists) == 0:
            return
        for i in np.lexsort((sids, dists)):
            d = float(dists[i])
            if len(self._heap) >= self.k and d > -self._heap[0][0]:
                break  # sorted ascending: nothing further can qualify
            self.offer(d, int(sids[i]))

    def topk(self) -> list:
        return sorted((-d, -i) for d, i in self._heap)


def make_batches(index: ISaxIndex, n_batches: int) -> list[list[int]]:
    """Split the (ordered) non-empty root subtrees into contiguous RS-batches
    of leaf indices."""
    root_ids = sorted(index.roots)
    n_batches = max(1, min(n_batches, len(root_ids))) if root_ids else 1
    batches: list[list[int]] = []
    per = -(-len(root_ids) // n_batches) if root_ids else 0
    for b in range(0, len(root_ids), per if per else 1):
        leaves: list[int] = []
        for rid in root_ids[b : b + per]:
            leaves.extend(index.roots[rid])
        batches.append(leaves)
    return batches or [[]]


class _EdMetric:
    """Euclidean distance: leaf MINDIST, then per leaf the series-level PAA
    MINDIST and the real distance of its survivors."""

    def __init__(self, index: ISaxIndex, q: np.ndarray):
        self.index = index
        self.q = np.asarray(q, dtype=np.float64)
        self.q_paa = paa(self.q, index.w)
        self.leaf_lbs = index.leaf_lower_bounds(self.q_paa)

    def approx(self, kbsf):
        bsf, _, dists, member_ids, cost = approx_search(
            self.index, self.q, self.q_paa, self.leaf_lbs
        )
        kbsf.offer_many(dists, member_ids)
        return bsf, len(member_ids), cost

    def refine(self, members: np.ndarray, bound: float):
        index = self.index
        slb = mindist_paa_paa(self.q_paa, index.paa[members], index.length)
        survivors = members[slb <= bound]
        cost = LEAF_OVERHEAD + len(members) * index.w + len(survivors) * index.length
        if len(survivors) == 0:  # common on pruned leaves: skip the empty kernel
            return np.empty(0), survivors, cost
        diffs = index.data[survivors] - self.q
        return np.sqrt(np.einsum("ij,ij->i", diffs, diffs)), survivors, cost


def _approx_phase(index: ISaxIndex, metric, kbsf: _KBsf) -> SearchStats:
    """Phase 1: seed ``kbsf`` with the metric's approximate search; the
    record holds its answer, the leaf lower bounds and its real distances."""
    approx_bsf, approx_real, approx_cost = metric.approx(kbsf)
    return SearchStats(
        topk=kbsf.topk(), approx_bsf=approx_bsf, leaf_lb=index.n_leaves,
        real_series=approx_real, approx_cost=approx_cost,
    )


def pq_search(
    index: ISaxIndex, metric, *, k: int, init_bsf: float,
    n_batches: int, pq_threshold: int | None, sorted_pqs: bool,
) -> SearchStats:
    """The search phases over one distance's lower-bound cascade.

    ``metric`` has one lower bound per leaf (``leaf_lbs``), seeds the k-BSF
    with ``approx(kbsf) -> (approx_bsf, real distances, cost)`` and scores
    a leaf with ``refine(members, bound) -> (dists, scored members, cost)``.
    """
    kbsf = _KBsf(k, init_bsf)
    stats = _approx_phase(index, metric, kbsf)

    # --- tree traversal phase: build the priority queues per RS-batch ---
    bound = kbsf.bound
    pqs: list[list] = []  # each: sorted [(lb, leaf_idx)]
    for leaves in make_batches(index, n_batches):
        current: list = []
        for leaf_idx in leaves:
            lb = float(metric.leaf_lbs[leaf_idx])
            if lb > bound:
                continue
            current.append((lb, leaf_idx))
            if pq_threshold is not None and len(current) >= pq_threshold:
                current.sort()
                pqs.append(current)
                current = []
        if current:
            current.sort()
            pqs.append(current)
    # the batches partition the leaves: one leaf lower bound (w) per leaf
    stats.traversal_cost = float(index.n_leaves * index.w)
    stats.pq_sizes = [len(pq) for pq in pqs]

    # --- PQ preprocessing: sort queue array by top-element priority ---
    if sorted_pqs:
        pqs.sort(key=lambda pq: pq[0][0])

    # --- PQ processing ---
    for pq in pqs:
        cost = 0.0
        for lb, leaf_idx in pq:
            if lb > kbsf.bound:
                break  # queue sorted by lb: the rest is pruned too
            members = index.leaves[leaf_idx].members
            dists, scored, leaf_cost = metric.refine(members, kbsf.bound)
            kbsf.offer_many(dists, index.ids[scored])
            stats.series_lb += len(members)
            stats.real_series += len(scored)
            stats.leaves_processed += 1
            cost += leaf_cost
        stats.pq_costs.append(cost)

    stats.topk = kbsf.topk()
    return stats


def approximate_search(index: ISaxIndex, q: np.ndarray, *, k: int = 1) -> SearchStats:
    """Phase 1 alone, under ED: the k best series of the approximate leaf.
    The distributed operator's first pass, for DTW queries too (banded DTW
    is at most ED, so the ED answer bounds the DTW one)."""
    return _approx_phase(index, _EdMetric(index, q), _KBsf(k, np.inf))


def exact_search(
    index: ISaxIndex,
    q: np.ndarray,
    *,
    k: int = 1,
    init_bsf: float = np.inf,
    n_batches: int = N_THREADS,
    pq_threshold: int | None = 64,
    sorted_pqs: bool = True,
) -> SearchStats:
    """Exact k-NN search on one node's index (Odyssey; MESSI baseline via
    ``sorted_pqs=False, pq_threshold=None``)."""
    return pq_search(
        index, _EdMetric(index, q), k=k, init_bsf=init_bsf,
        n_batches=n_batches, pq_threshold=pq_threshold, sorted_pqs=sorted_pqs,
    )
