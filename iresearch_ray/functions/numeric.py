"""Precision-shifted trie encoding for numeric terms — SURVEY §2.1
(`numeric` analyzer; ref: core/analysis/token_streams.cpp
numeric_token_stream, core/utils/numeric_utils.cpp) and the granular-range
decomposition used by `by_granular_range` (ref:
core/search/granular_range_filter.cpp).

Scheme (Lucene/IResearch-style): an int64 value is mapped to an
order-preserving uint64 (sign-bit flip), then indexed once per precision
level: level L holds ``value >> (L * STEP)``.  A term is the string

    ``{field-level prefix:02x}{shifted value:016x}``

so terms of one level sort lexicographically in numeric order — which turns
any [lo, hi] range into at most ~2·(64/STEP) CONTIGUOUS term-dictionary
range scans (few dict probes instead of enumerating every value), exactly
the trick the reference's granular range uses.

STEP=8 bits ⇒ 8 terms per value; the classic index-size/probe-count
trade-off pinned here.
"""

from __future__ import annotations

import numpy as np

STEP = 8
LEVELS = 64 // STEP  # 8


def to_sortable_u64(values: np.ndarray) -> np.ndarray:
    """int64 → order-preserving uint64 (flip sign bit)."""
    v = np.asarray(values, dtype=np.int64)
    return (v.astype(np.uint64)) ^ np.uint64(1 << 63)


def encode_level(values_u64: np.ndarray, level: int) -> list[str]:
    """Vectorized term strings for one precision level."""
    shifted = values_u64 >> np.uint64(level * STEP)
    pre = f"{level:02x}"
    return [pre + format(int(x), "016x") for x in shifted]


def trie_terms(values: np.ndarray) -> list[list[str]]:
    """Per-value list of LEVELS terms (level 0 = exact .. LEVELS-1 = coarse)."""
    u = to_sortable_u64(values)
    per_level = [encode_level(u, lv) for lv in range(LEVELS)]
    return [[per_level[lv][i] for lv in range(LEVELS)] for i in range(len(u))]


def decompose_range(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """[lo, hi] (inclusive, int64) → minimal covering set of
    (level, lo_shifted, hi_shifted) contiguous runs, mutually disjoint —
    every value in [lo, hi] matches EXACTLY ONE run's term.  Standard
    Lucene `splitRange`: consume un-aligned edges at each level, recurse
    coarser on the aligned middle."""
    if hi < lo:
        return []
    out: list[tuple[int, int, int]] = []
    lo_u = int(to_sortable_u64(np.array([lo]))[0])
    hi_u = int(to_sortable_u64(np.array([hi]))[0])
    level = 0
    while True:
        if level >= LEVELS - 1 or (hi_u - lo_u) < (1 << STEP):
            out.append((level, lo_u, hi_u))
            return out
        mask = (1 << STEP) - 1
        if lo_u & mask:  # lower edge not aligned: cover [lo, end-of-block]
            edge_hi = lo_u | mask
            out.append((level, lo_u, min(edge_hi, hi_u)))
            if edge_hi >= hi_u:
                return out
            lo_u = edge_hi + 1
        if (hi_u & mask) != mask:  # upper edge not aligned
            edge_lo = hi_u & ~mask
            out.append((level, max(edge_lo, lo_u), hi_u))
            if edge_lo <= lo_u:
                return out
            hi_u = edge_lo - 1
        lo_u >>= STEP
        hi_u >>= STEP
        level += 1


def range_term_bounds(lo: int, hi: int) -> list[tuple[str, str]]:
    """[lo, hi] → inclusive (low_term, high_term) dictionary-scan bounds,
    one per covering run (terms of a level sort numerically)."""
    return [
        (f"{lv:02x}" + format(a, "016x"), f"{lv:02x}" + format(b, "016x"))
        for lv, a, b in decompose_range(lo, hi)
    ]
