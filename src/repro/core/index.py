"""Single-node iSAX index tree (Odyssey per-node index).

The tree mirrors the paper's single-node design: the w top bits of the iSAX
word define ``2^w`` *root subtrees* (= summarization buffers); a node whose
member count exceeds the leaf capacity splits by raising the cardinality of
its lowest-cardinality segment and routing members by the next symbol bit.
Leaves keep references (indices) into the chunk arrays plus their region
bounds, so leaf lower bounds are one vectorised MINDIST over a matrix. The
references are stored leaf by leaf in one array (``leaf_order``, with
``leaf_offsets``), each leaf's ``members`` a view into it, so the members of
any set of leaves are one gather.

Build-cost accounting mirrors the paper's evaluation measures: *buffer cost*
(summarisation flops ∝ n·L) and *tree cost* (∝ node visits), which together
give the "index time" reported in the scalability experiments.
"""
from dataclasses import dataclass, field

import numpy as np

from .isax import MAX_BITS, W, mindist_paa_regions, pack_bits, region_bounds, symbols
from .paa import paa


@dataclass
class Leaf:
    """A leaf: an iSAX region (per-segment cardinality + prefix) and members."""

    cards: np.ndarray  # (w,) bits per segment
    prefixes: np.ndarray  # (w,) symbol prefixes at those cardinalities
    members: np.ndarray  # indices into the chunk arrays (a leaf_order view)
    root_id: int


@dataclass
class ISaxIndex:
    """Per-node index over one data chunk."""

    ids: np.ndarray  # (n,) series ids
    data: np.ndarray  # (n, L) raw (z-normalised) series
    paa: np.ndarray  # (n, w)
    syms: np.ndarray  # (n, w) symbols at max cardinality
    w: int
    length: int
    max_bits: int
    leaf_capacity: int
    leaves: list[Leaf] = field(default_factory=list)
    roots: dict[int, list[int]] = field(default_factory=dict)  # root_id -> leaf idx
    leaf_lo: np.ndarray | None = None  # (n_leaves, w)
    leaf_hi: np.ndarray | None = None
    leaf_order: np.ndarray | None = None  # (n,) chunk rows, leaf after leaf
    leaf_offsets: np.ndarray | None = None  # (n_leaves + 1,) into leaf_order
    batch_layouts: dict = field(default_factory=dict, repr=False)  # search's cache
    buffer_cost: float = 0.0
    tree_cost: float = 0.0

    @property
    def n_series(self) -> int:
        return len(self.ids)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def index_bytes(self) -> int:
        """Approximate in-memory size of the index *structure* (not raw data).

        PAA (w float32, as MESSI stores summaries) + iSAX word (w bytes) +
        id (8B) per series, plus bounds and headers per leaf. Small relative
        to the dataset (the paper's Fig 14 observation); note our shrunk
        series lengths inflate the index/data ratio vs the paper's L=256.
        """
        per_series = self.w * 4 + self.w + 8
        per_leaf = 2 * self.w * 8 + 2 * self.w + 16
        return self.n_series * per_series + self.n_leaves * per_leaf

    def leaf_lower_bounds(self, q_paa: np.ndarray) -> np.ndarray:
        """MINDIST lower bound from a query PAA to every leaf region."""
        return mindist_paa_regions(q_paa, self.leaf_lo, self.leaf_hi, self.length)


def build_index(
    ids: np.ndarray,
    data: np.ndarray,
    *,
    w: int = W,
    max_bits: int = MAX_BITS,
    leaf_capacity: int = 64,
) -> ISaxIndex:
    """Build the iSAX index tree over one chunk of series."""
    data = np.asarray(data, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    if data.ndim != 2 or len(ids) != len(data):
        raise ValueError("data must be (n, L) with one id per series")
    if len(ids) == 0:
        raise ValueError("cannot index a chunk of zero series")
    p = paa(data, w)
    s = symbols(p, max_bits)
    index = ISaxIndex(
        ids=ids,
        data=data,
        paa=p,
        syms=s,
        w=w,
        length=data.shape[1],
        max_bits=max_bits,
        leaf_capacity=leaf_capacity,
    )
    index.buffer_cost = float(data.size)  # one pass over every point

    root_bits = (s >> (max_bits - 1)) & 1
    root_ids = pack_bits(root_bits)
    order = np.argsort(root_ids, kind="stable")
    sorted_roots = root_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_roots)) + 1
    node_visits = 0
    for members in np.split(order, boundaries):
        rid = int(root_ids[members[0]])
        index.roots[rid] = []
        stack = [
            (
                np.ones(w, dtype=np.int64),
                (s[members[0]] >> (max_bits - 1)).astype(np.int64),
                members.astype(np.int64),
            )
        ]
        while stack:
            cards, prefixes, mem = stack.pop()
            node_visits += 1
            splittable = cards.min() < max_bits
            if len(mem) <= leaf_capacity or not splittable:
                index.roots[rid].append(len(index.leaves))
                index.leaves.append(Leaf(cards, prefixes, mem, rid))
                continue
            seg = int(np.argmin(cards))
            b = int(cards[seg])
            bit = (s[mem, seg] >> (max_bits - b - 1)) & 1
            for v in (0, 1):
                child = mem[bit == v]
                if len(child) == 0:
                    continue
                c2 = cards.copy()
                c2[seg] += 1
                p2 = prefixes.copy()
                p2[seg] = prefixes[seg] * 2 + v
                stack.append((c2, p2, child))
    index.tree_cost = float(node_visits * w + len(ids))

    index.leaf_order = np.concatenate([lf.members for lf in index.leaves])
    index.leaf_offsets = np.cumsum([0] + [len(lf.members) for lf in index.leaves])
    for lf, a, b in zip(index.leaves, index.leaf_offsets[:-1], index.leaf_offsets[1:]):
        lf.members = index.leaf_order[a:b]

    all_prefixes = np.stack([lf.prefixes for lf in index.leaves])
    all_cards = np.stack([lf.cards for lf in index.leaves])
    index.leaf_lo, index.leaf_hi = region_bounds(all_prefixes, all_cards)
    return index


def approx_search(index: ISaxIndex, q: np.ndarray, q_paa: np.ndarray, lbs: np.ndarray):
    """Approximate search: best leaf by lower bound (``lbs``, the query's
    ``leaf_lower_bounds``), preferring the query's own root subtree (the
    descent target), then real distances to its members.

    Returns ``(bsf, nn_id, dists, member_ids, cost)`` where ``cost`` is in
    flop-ish units (used by the cost model and the schedulers' predictor).
    """
    q_syms = symbols(q_paa, index.max_bits)
    rid = int(pack_bits((q_syms >> (index.max_bits - 1)) & 1))
    if rid in index.roots:
        cand_leaves = index.roots[rid]
        leaf_idx = cand_leaves[int(np.argmin(lbs[cand_leaves]))]
    else:
        leaf_idx = int(np.argmin(lbs))
    members = index.leaves[leaf_idx].members
    diffs = index.data[members] - q
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    best = int(np.argmin(dists))
    cost = float(index.n_leaves * index.w + len(members) * index.length)
    return float(dists[best]), int(index.ids[members[best]]), dists, index.ids[
        members
    ], cost
