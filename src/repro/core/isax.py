"""iSAX symbols, region bounds, MINDIST lower bounds, Gray-code utilities.

Breakpoints come from the standard normal quantiles (``statistics.NormalDist``
— stdlib, no SciPy). A symbol at cardinality ``2^b`` is the index of the
region containing the PAA value; lower cardinalities are bit prefixes of the
max-cardinality symbol, which is what makes the iSAX tree's bit-refinement
splits consistent with the summarization.
"""
from functools import lru_cache
from statistics import NormalDist

import numpy as np

#: iSAX word length (segments per series) and maximum cardinality (bits per
#: symbol), the paper's configuration; every index and partitioner uses them
W = 8
MAX_BITS = 8


@lru_cache(maxsize=None)
def breakpoints(bits: int) -> np.ndarray:
    """The ``2^bits - 1`` standard-normal breakpoints for ``2^bits`` regions."""
    if bits < 1:
        raise ValueError("cardinality must be at least 1 bit")
    nd = NormalDist()
    card = 1 << bits
    return np.array([nd.inv_cdf(i / card) for i in range(1, card)])


def symbols(paa_values: np.ndarray, bits: int = MAX_BITS) -> np.ndarray:
    """iSAX symbols at max cardinality ``2^bits`` for PAA values (any shape)."""
    return np.searchsorted(breakpoints(bits), paa_values, side="right").astype(
        np.int64
    )


def prefix(syms: np.ndarray, from_bits: int, to_bits: int) -> np.ndarray:
    """Truncate symbols from ``from_bits`` cardinality down to ``to_bits``."""
    if to_bits > from_bits:
        raise ValueError("cannot raise cardinality of a symbol")
    return syms >> (from_bits - to_bits)


def region_bounds(prefixes: np.ndarray, cards: np.ndarray):
    """Value interval ``[lo, hi]`` of iSAX regions.

    ``prefixes``/``cards`` are same-shape integer arrays (symbol prefix and
    its cardinality in bits). Outermost regions are unbounded (±inf).
    """
    prefixes = np.asarray(prefixes, dtype=np.int64)
    cards = np.asarray(cards, dtype=np.int64)
    lo = np.full(prefixes.shape, -np.inf)
    hi = np.full(prefixes.shape, np.inf)
    for b in np.unique(cards):
        b = int(b)
        mask = cards == b
        bp = breakpoints(b)
        p = prefixes[mask]
        top = (1 << b) - 1
        lo_b = np.where(p > 0, bp[np.clip(p - 1, 0, len(bp) - 1)], -np.inf)
        hi_b = np.where(p < top, bp[np.clip(p, 0, len(bp) - 1)], np.inf)
        lo[mask] = lo_b
        hi[mask] = hi_b
    return lo, hi


def mindist_paa_regions(
    q_paa: np.ndarray, lo: np.ndarray, hi: np.ndarray, length: int
) -> np.ndarray:
    """MINDIST lower bound between a query PAA (w,) and iSAX regions.

    ``lo``/``hi`` have shape (..., w). Always ≤ the true Euclidean distance
    between the query and any series whose PAA lies in the region.
    """
    d = np.maximum(0.0, np.maximum(lo - q_paa, q_paa - hi))
    w = q_paa.shape[-1]
    return np.sqrt(length / w * np.sum(d * d, axis=-1))


def mindist_paa_paa(q_paa: np.ndarray, p: np.ndarray, length: int) -> np.ndarray:
    """PAA-to-PAA lower bound — tighter, used at the series level."""
    w = q_paa.shape[-1]
    d = p - q_paa
    return np.sqrt(length / w * np.sum(d * d, axis=-1))


def pack_bits(bit_matrix: np.ndarray) -> np.ndarray:
    """Pack a (..., w) 0/1 matrix into integers, MSB = first segment."""
    bit_matrix = np.asarray(bit_matrix, dtype=np.int64)
    w = bit_matrix.shape[-1]
    weights = (1 << np.arange(w - 1, -1, -1)).astype(np.int64)
    return bit_matrix @ weights


def pack_symbols(syms: np.ndarray, bits: int) -> np.ndarray:
    """Pack per-segment symbols of ``bits`` bits each into one integer."""
    syms = np.asarray(syms, dtype=np.int64)
    w = syms.shape[-1]
    shifts = (np.arange(w - 1, -1, -1) * bits).astype(np.int64)
    return (syms << shifts).sum(axis=-1)


def gray(x: np.ndarray) -> np.ndarray:
    """Binary-reflected Gray code of ``x``."""
    x = np.asarray(x, dtype=np.int64)
    return x ^ (x >> 1)


def inverse_gray(g: np.ndarray) -> np.ndarray:
    """Rank of a word in the Gray-code sequence (inverse of :func:`gray`).

    Two buffers adjacent in this rank order differ in exactly one bit, which
    is what DENSITY-AWARE partitioning exploits to spread similar series.
    """
    g = np.asarray(g, dtype=np.int64)
    n = g.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        n = n ^ (n >> shift)
    return n
