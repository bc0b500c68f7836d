"""Single-node iSAX index tree (Odyssey per-node index).

The tree mirrors the paper's single-node design: the w top bits of the iSAX
word define ``2^w`` *root subtrees* (= summarization buffers); a node whose
member count exceeds the leaf capacity splits by raising the cardinality of
its lowest-cardinality segment and routing members by the next symbol bit.

The index is its arrays, and its rows are stored leaf after leaf. The tree
(``split_leaves``) appends the leaves root subtree by root subtree, in
ascending root id, and gives the row order that puts them so; one
assembler (``load_index``) turns rows in that order, the leaves' offsets
and cardinalities into the index. One leaf is one row of ``leaf_root`` (its
root subtree), ``leaf_lo``/``leaf_hi`` (its region bounds, so leaf lower
bounds are one vectorised MINDIST over a matrix) and the rows
``leaf_offsets[j]:leaf_offsets[j + 1]`` (its members), so the members of
any run of leaves are one slice. ``build_index`` is the two in sequence;
the distributed engine's layout is the same rows, written with their
leaf numbers and cardinalities, and loads with ``load_index`` alone.

Build-cost accounting mirrors the paper's evaluation measures: *buffer cost*
(summarisation flops ∝ n·L) and *tree cost* (∝ node visits), which together
give the "index time" reported in the scalability experiments.
"""
from dataclasses import dataclass

import numpy as np

from .isax import MAX_BITS, W, mindist_paa_regions, pack_bits, region_bounds, symbols
from .paa import paa


def root_ids(words: np.ndarray) -> np.ndarray:
    """The root subtree of max-cardinality iSAX words: their top bits."""
    return pack_bits(words >> (MAX_BITS - 1))


@dataclass(frozen=True)
class ISaxIndex:
    """Per-node index over one data chunk: an immutable record of arrays."""

    ids: np.ndarray  # (n,) series ids, leaf after leaf
    data: np.ndarray  # (n, L) raw (z-normalised) series, in the rows of ids
    paa: np.ndarray  # (n, w)
    leaf_root: np.ndarray  # (n_leaves,) root subtree of each leaf, ascending
    leaf_card: np.ndarray  # (n_leaves, w) cardinality bits of each leaf's region
    leaf_lo: np.ndarray  # (n_leaves, w) region bounds
    leaf_hi: np.ndarray
    leaf_offsets: np.ndarray  # (n_leaves + 1,) each leaf's first row, then n
    w: int
    length: int
    buffer_cost: float
    tree_cost: float

    @property
    def n_series(self) -> int:
        return len(self.ids)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_root)

    def members(self, leaf: int) -> slice:
        """The rows of one leaf: indexing ``ids``/``data``/``paa`` with it
        is a view."""
        return slice(self.leaf_offsets[leaf], self.leaf_offsets[leaf + 1])

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


def split_leaves(data: np.ndarray, *, w: int = W, leaf_capacity: int = 64):
    """The iSAX tree over the rows of ``data``, on symbol bits alone.

    Returns ``(order, leaf_offsets, leaf_card, tree_cost)``: ``data[order]``
    holds the rows leaf after leaf, leaf ``j`` at rows
    ``leaf_offsets[j]:leaf_offsets[j + 1]`` with cardinality bits
    ``leaf_card[j]``; ``tree_cost`` counts the node visits."""
    s = symbols(paa(data, w), MAX_BITS)
    roots = root_ids(s)
    order = np.argsort(roots, kind="stable")
    boundaries = np.flatnonzero(np.diff(roots[order])) + 1
    cards, members = [], []
    node_visits = 0
    for root in np.split(order, boundaries):  # ascending root id
        stack = [(np.ones(w, dtype=np.int64), root)]
        while stack:
            c, mem = stack.pop()
            node_visits += 1
            if len(mem) <= leaf_capacity or c.min() == MAX_BITS:
                cards.append(c)
                members.append(mem)
                continue
            seg = int(np.argmin(c))
            bit = (s[mem, seg] >> (MAX_BITS - c[seg] - 1)) & 1
            for v in (0, 1):
                child = mem[bit == v]
                if len(child) == 0:
                    continue
                c2 = c.copy()
                c2[seg] += 1
                stack.append((c2, child))
    return (
        np.concatenate(members),
        np.cumsum([0] + [len(m) for m in members]),
        np.stack(cards),
        float(node_visits * w + len(data)),
    )


def build_index(
    ids: np.ndarray, data: np.ndarray, *, w: int = W, leaf_capacity: int = 64
) -> ISaxIndex:
    """Build the iSAX index tree over one chunk of series: its rows are
    ``ids``/``data`` reordered leaf after leaf."""
    data = np.asarray(data, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    if data.ndim != 2 or len(ids) != len(data):
        raise ValueError("data must be (n, L) with one id per series")
    if len(ids) == 0:
        raise ValueError("cannot index a chunk of zero series")
    order, leaf_offsets, leaf_card, tree_cost = split_leaves(
        data, w=w, leaf_capacity=leaf_capacity
    )
    return load_index(ids[order], data[order], leaf_offsets, leaf_card, tree_cost)


def load_index(
    ids: np.ndarray,
    data: np.ndarray,
    leaf_offsets: np.ndarray,
    leaf_card: np.ndarray,
    tree_cost: float,
) -> ISaxIndex:
    """The index whose rows are ``ids``/``data`` in leaf order: leaf ``j`` is
    rows ``leaf_offsets[j]:leaf_offsets[j + 1]``, with cardinalities
    ``leaf_card[j]``; ``tree_cost`` is the tree's. Every member of a leaf
    lies in its region, so the leaf's root and its symbol prefixes are those
    of its first member's symbols, cut to the leaf's cardinalities."""
    w = leaf_card.shape[1]
    p = paa(data, w)
    first = symbols(p[leaf_offsets[:-1]], MAX_BITS)
    leaf_card = leaf_card.astype(np.int64)
    leaf_lo, leaf_hi = region_bounds(first >> (MAX_BITS - leaf_card), leaf_card)
    return ISaxIndex(
        ids=ids,
        data=data,
        paa=p,
        leaf_root=root_ids(first),
        leaf_card=leaf_card,
        leaf_lo=leaf_lo,
        leaf_hi=leaf_hi,
        leaf_offsets=leaf_offsets,
        w=w,
        length=data.shape[1],
        buffer_cost=float(data.size),  # one pass over every point
        tree_cost=float(tree_cost),
    )


def approx_search(index: ISaxIndex, q: np.ndarray, q_paa: np.ndarray, lbs: np.ndarray):
    """Approximate search: best leaf by lower bound (``lbs``, the query's
    ``leaf_lower_bounds``), preferring the query's own root subtree (the
    descent target), then real distances to its members.

    Returns ``(bsf, nn_id, dists, member_ids, cost)`` where ``cost`` is in
    flop-ish units (used by the cost model and the schedulers' predictor).
    """
    root = root_ids(symbols(q_paa, MAX_BITS))
    a, b = np.searchsorted(index.leaf_root, [root, root + 1])  # its leaves
    leaf_idx = a + int(np.argmin(lbs[a:b])) if b > a else int(np.argmin(lbs))
    members = index.members(leaf_idx)
    diffs = index.data[members] - q
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    member_ids = index.ids[members]
    best = int(np.argmin(dists))
    cost = float(index.n_leaves * index.w + len(dists) * index.length)
    return float(dists[best]), int(member_ids[best]), dists, member_ids, cost
