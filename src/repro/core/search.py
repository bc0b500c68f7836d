"""Odyssey single-node exact query answering (paper Algorithms 1–2).

Phases, exactly as in the paper:

1. *Approximate search* seeds the BSF (optionally capped by a globally
   shared BSF — Odyssey's BSF-sharing).
2. *Tree traversal*: root subtrees are grouped into ``N_sb`` RS-batches;
   leaves whose MINDIST lower bound beats the BSF are pushed into the
   batch's active priority queue; when a queue reaches the threshold
   ``TH`` it is sealed and a new one starts (this is what makes queues
   steal-able at RS-batch granularity without moving data). The index
   stores its leaves in ascending root order, so each leaf's RS-batch is
   its root's rank (:func:`leaf_batches`) and the queues are a few array
   operations over the leaf lower bounds.
3. *PQ preprocessing*: the queue array is sorted by the lower bound of
   each queue's top element (Odyssey) or left in creation order (MESSI
   baseline mode, ``sorted_pqs=False``).
4. *PQ processing*: queues are consumed in order; a queue is abandoned as
   soon as its head's lower bound exceeds the BSF; surviving leaves go
   through the distance's series-level cascade and the remainder get real
   distances, updating the BSF. Each queue is evaluated as one block: one
   cascade call over the rows of all its leaves under the BSF at the
   queue's start (the BSF only falls, so that computes every value the
   per-leaf loop needs), then a replay of the per-leaf decisions from those
   values (:func:`_process_queue`), with the same counters and answers.

Only the lower bounds change between distances, so one loop
(:func:`pq_search`) runs every distance over a small metric: its leaf
lower bounds, its approximate search and its staged series-level cascade.
For ED the cascade is PAA MINDIST → Euclidean distance (:class:`_EdMetric`);
for DTW see :mod:`repro.core.dtw`.

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
    def kth(self) -> float:
        """The heap's own k-th distance (+inf while it holds fewer)."""
        return -self._heap[0][0] if len(self._heap) >= self.k else np.inf

    @property
    def bound(self) -> float:
        return min(self.kth, self.shared)

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


def leaf_batches(index: ISaxIndex) -> np.ndarray:
    """The RS-batch of each leaf: the root subtrees, in ascending order, in
    contiguous batches of ``⌈n_roots / min(N_THREADS, n_roots)⌉``."""
    root = index.leaf_root  # ascending
    rank = np.concatenate(([0], np.cumsum(root[1:] != root[:-1])))  # the root's rank
    n_roots = int(rank[-1]) + 1
    return rank // -(-n_roots // min(N_THREADS, n_roots))


def next_stage(prev: np.ndarray, bound: float, values) -> np.ndarray:
    """One cascade stage after ``prev``: ``values(keep)`` at the positions
    ``keep`` whose ``prev`` value is at most ``bound``, +inf (never computed,
    never passed) elsewhere."""
    out = np.full(len(prev), np.inf)
    keep = np.flatnonzero(prev <= bound)
    if len(keep):
        out[keep] = values(keep)
    return out


class _EdMetric:
    """Euclidean distance: leaf MINDIST, then the series-level PAA MINDIST
    and the real distance of its survivors."""

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

    def cascade(self, rows: np.ndarray, bound: float) -> list:
        index = self.index
        slb = mindist_paa_paa(self.q_paa, index.paa[rows], index.length)

        def dist(keep):
            diffs = index.data[rows[keep]]
            diffs -= self.q  # the gather is a copy: one (rows, L) temporary
            return np.sqrt(np.einsum("ij,ij->i", diffs, diffs))

        return [(slb, index.w), (next_stage(slb, bound, dist), index.length)]


def _approx_phase(index: ISaxIndex, metric, kbsf: _KBsf) -> SearchStats:
    """Phase 1: seed ``kbsf`` with the metric's approximate search; the
    record holds its answer, the leaf lower bounds and its real distances."""
    approx_bsf, approx_real, approx_cost = metric.approx(kbsf)
    return SearchStats(
        topk=kbsf.topk(), approx_bsf=approx_bsf, leaf_lb=index.n_leaves,
        real_series=approx_real, approx_cost=approx_cost,
    )


def _priority_queues(
    index: ISaxIndex, lbs: np.ndarray, bound: float,
    pq_threshold: int | None, sorted_pqs: bool,
):
    """Phases 2–3: the leaves with ``lb <= bound``, per RS-batch in groups
    of ``pq_threshold``, each group sorted by (lb, leaf). Returns the queues
    in processing order as ``(leaves, lbs)`` and their sizes in creation
    order."""
    keep = lbs <= bound
    leaves, batch = np.flatnonzero(keep), leaf_batches(index)[keep]
    if len(leaves) == 0:
        return [], []
    pos = np.arange(len(leaves))
    first = np.concatenate(([True], batch[1:] != batch[:-1]))  # a batch's first leaf
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    new = rank % pq_threshold == 0 if pq_threshold else rank == 0
    starts = np.flatnonzero(new)  # queues are contiguous, before and after the sort
    leaves = leaves[np.lexsort((leaves, lbs[leaves], np.cumsum(new)))]  # (lb, leaf) per queue
    pqs = np.split(leaves, starts[1:])
    if sorted_pqs:  # PQ preprocessing: by the lower bound of each top element
        pqs = [pqs[i] for i in np.argsort(lbs[leaves[starts]], kind="stable")]
    return [(pq, lbs[pq]) for pq in pqs], np.diff(starts, append=len(leaves)).tolist()


def _process_queue(index: ISaxIndex, metric, kbsf: _KBsf, stats: SearchStats,
                   leaves: np.ndarray, lbs: np.ndarray) -> float:
    """Phase 4 for one queue, as one block; returns the queue's cost.

    Alg. 2 pops the leaves in ``lb`` order, abandons the queue at the first
    ``lb`` above the bound, keeps a leaf's series whose every cascade stage
    but the last is at most the bound, scores them and offers the scores to
    the heap. The bound only falls, so every value that loop needs is among
    those one cascade call computes under the bound at the queue's start.
    The replay then makes the loop's decisions from those values: runs of
    leaves that cannot change the heap are counted together, and a leaf is
    offered on its own only when one of its scores is at most the heap's
    own k-th distance (or the heap is not full), after which the bound is
    read again. Values computed for series the loop would not reach are
    neither counted nor charged."""
    bound = kbsf.bound
    m = int(np.searchsorted(lbs, bound, side="right"))
    if m == 0:
        return 0.0
    leaves, lbs = leaves[:m], lbs[:m]
    lo = index.leaf_offsets[leaves]
    sizes = index.leaf_offsets[leaves + 1] - lo
    starts = np.concatenate(([0], np.cumsum(sizes)))  # each leaf's rows in the block
    rows = np.repeat(lo - starts[:-1], sizes) + np.arange(starts[-1])
    stages = metric.cascade(rows, bound)
    dist = stages[-1][0]
    cost = 0.0
    i = 0
    while i < m:
        bound = kbsf.bound
        stop = int(np.searchsorted(lbs, bound, side="right"))  # the queue is abandoned there
        if stop <= i:
            break
        r0, r1 = starts[i], starts[stop]
        reach = [np.ones(r1 - r0, dtype=bool)]  # the rows that reach each stage
        for values, _ in stages[:-1]:
            reach.append(reach[-1] & (values[r0:r1] <= bound))
        # the heap's own k-th entry, not the capped bound: an offer between
        # the two changes the heap, not the bound
        hits = np.flatnonzero(reach[-1] & (dist[r0:r1] <= kbsf.kth))
        end = int(np.searchsorted(starts, r0 + hits[0], side="right")) if len(hits) else stop
        counts = [int(np.count_nonzero(r[: starts[end] - r0])) for r in reach]
        stats.series_lb += counts[0]
        stats.real_series += counts[-1]
        stats.leaves_processed += end - i
        cost += LEAF_OVERHEAD * (end - i) + sum(c * unit for c, (_, unit) in zip(counts, stages))
        if not len(hits):
            break
        a = starts[end - 1]  # the rows of the first leaf whose offer can change the heap
        scored = a + np.flatnonzero(reach[-1][a - r0 : starts[end] - r0])
        kbsf.offer_many(dist[scored], index.ids[rows[scored]])
        i = end
    return cost


def pq_search(
    index: ISaxIndex, metric, *, k: int, init_bsf: float,
    pq_threshold: int | None, sorted_pqs: bool,
) -> SearchStats:
    """The search phases over one distance's lower-bound cascade.

    ``metric`` has one lower bound per leaf (``leaf_lbs``), seeds the k-BSF
    with ``approx(kbsf) -> (approx_bsf, real distances, cost)`` and
    evaluates its series-level cascade over a block of chunk rows with
    ``cascade(rows, bound) -> [(values, unit cost), ...]``: one entry per
    stage, the last the distance, each stage computed (else +inf) only
    for the rows whose previous stage is at most ``bound``.
    """
    kbsf = _KBsf(k, init_bsf)
    stats = _approx_phase(index, metric, kbsf)
    pqs, stats.pq_sizes = _priority_queues(
        index, metric.leaf_lbs, kbsf.bound, pq_threshold, sorted_pqs
    )
    # the batches partition the leaves: one leaf lower bound (w) per leaf
    stats.traversal_cost = float(index.n_leaves * index.w)
    for leaves, lbs in pqs:
        stats.pq_costs.append(_process_queue(index, metric, kbsf, stats, leaves, lbs))
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
    pq_threshold: int | None = 64,
    sorted_pqs: bool = True,
) -> SearchStats:
    """Exact k-NN search on one node's index (Odyssey; MESSI baseline via
    ``sorted_pqs=False, pq_threshold=None``)."""
    return pq_search(
        index, _EdMetric(index, q), k=k, init_bsf=init_bsf,
        pq_threshold=pq_threshold, sorted_pqs=sorted_pqs,
    )
