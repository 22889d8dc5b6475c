"""Consolidation policies — SURVEY.md §2.3 (ref: core/utils/index_utils.cpp
consolidate_tier / consolidate_bytes_accum / consolidate_count; defaults per
SURVEY ⚠ unverified, mirrored in shape).

Pure-python policy over segment metas from the manifest: each policy returns
candidate sets (lists of segment names) to merge; execution fans out as Ray
tasks (pipelines/consolidate.py).

``tier`` departs from a literal ``min_score=0`` mirror in one rule: a window
holds only segments of similar floored size (largest <= ``MAX_SIZE_RATIO`` x
smallest).  With ``min_score=0`` alone every window of >= 2 segments would
qualify, so consolidating after each append would merge the whole index with
the new segment, and total write cost would grow quadratically in the number
of appends.  Under the ratio rule a large segment is left alone until smaller
tiers grow into its size class, so each byte is rewritten O(log N) times.
"""

from __future__ import annotations

FLOOR_SEGMENT_BYTES = 2 << 20      # tiny segments count as 2MB for scoring
MAX_SIZE_RATIO = 4                 # a tier window's largest / smallest floored size
MAX_SEGMENTS_BYTES = 5 << 30       # candidate set byte cap
MAX_SEGMENTS_PER_TIER = 10
MIN_SEGMENTS_PER_TIER = 2


def tier(
    segments: list[dict],
    max_segments_per_tier: int = MAX_SEGMENTS_PER_TIER,
    min_segments_per_tier: int = MIN_SEGMENTS_PER_TIER,
    floor_segment_bytes: int = FLOOR_SEGMENT_BYTES,
    max_segments_bytes: int = MAX_SEGMENTS_BYTES,
    min_score: float = 0.0,
) -> list[list[str]]:
    """Tiered merge: sort by floored byte size, slide a window of
    <= max_segments_per_tier whose largest member is at most MAX_SIZE_RATIO x
    its smallest, score by size skew (even windows score higher), take the
    best-scoring window above min_score.

    The ratio cap keeps a large segment out of a window with one small
    append, which would otherwise qualify and have repeated consolidation
    rewrite the whole index after every append.  Equal-size segments compact
    to one segment when each round's merged sizes stay within the ratio (64
    and 128 do; 11 ends as a 10-segment merge beside a lone original)."""
    if len(segments) < min_segments_per_tier:
        return []
    sized = sorted(
        ((max(s.get("bytes", 0), floor_segment_bytes), s["name"]) for s in segments),
    )

    def best_window(rows: list[tuple[int, str]]) -> list[str] | None:
        best: tuple[float, list[str]] | None = None
        n = len(rows)
        for lo in range(0, n - min_segments_per_tier + 1):
            total = 0
            for hi in range(lo, min(n, lo + max_segments_per_tier)):
                total += rows[hi][0]
                count = hi - lo + 1
                if count < min_segments_per_tier:
                    continue
                if total > max_segments_bytes or rows[hi][0] > MAX_SIZE_RATIO * rows[lo][0]:
                    break
                # skew score in (0,1]: 1.0 = perfectly even window; more
                # segments of similar size beat fewer/lopsided ones
                score = total / (count * rows[hi][0]) * (count / max_segments_per_tier)
                if score >= min_score and (best is None or score > best[0]):
                    best = (score, [name for _, name in rows[lo : hi + 1]])
        return best[1] if best else None

    # greedily emit DISJOINT candidate sets so one consolidation round fans
    # all of them out as parallel Ray merge tasks (a serial one-set-per-round
    # loop wastes the cluster — SURVEY §3.3)
    out: list[list[str]] = []
    remaining = sized
    while True:
        pick = best_window(remaining)
        if not pick:
            return out
        out.append(pick)
        picked = set(pick)
        remaining = [r for r in remaining if r[1] not in picked]
        if len(remaining) < min_segments_per_tier:
            return out


def bytes_policy(segments: list[dict], threshold_bytes: int = FLOOR_SEGMENT_BYTES * 8) -> list[list[str]]:
    """Merge all segments smaller than an absolute byte threshold (ref:
    consolidate_bytes — size-based small-segment sweep)."""
    small = sorted(s["name"] for s in segments if s.get("bytes", 0) < threshold_bytes)
    return [small] if len(small) >= 2 else []


def docs_live(segments: list[dict], threshold_docs: int = 10_000) -> list[list[str]]:
    """Merge segments whose LIVE doc count is below an absolute threshold
    (ref: consolidate_docs_live — sweeps up fragments and heavily-deleted
    segments; ``live_docs`` annotated by consolidate())."""
    small = sorted(
        s["name"]
        for s in segments
        if s.get("live_docs", s["docs_count"]) < threshold_docs
    )
    return [small] if len(small) >= 2 else []


def docs_fill(segments: list[dict], threshold: float = 0.85) -> list[list[str]]:
    """Merge segments whose live-doc fraction fell below ``threshold``
    (ref: consolidate_docs_fill — deletion-pressure policy; ``live_docs`` is
    annotated by consolidate() from the tombstone files)."""
    victims = [
        s["name"]
        for s in segments
        if s.get("live_docs", s["docs_count"]) < threshold * s["docs_count"]
    ]
    return [sorted(victims)] if victims else []


def count(segments: list[dict], threshold: int = 8) -> list[list[str]]:
    """Merge everything whenever the segment count exceeds ``threshold``
    (ref: consolidate_count)."""
    if len(segments) <= threshold:
        return []
    return [[s["name"] for s in sorted(segments, key=lambda s: s["name"])]]


def bytes_accum(segments: list[dict], byte_cap: int = MAX_SEGMENTS_BYTES) -> list[list[str]]:
    """Accumulate smallest-first until the byte cap (ref: consolidate_bytes_accum)."""
    sized = sorted((s.get("bytes", 0), s["name"]) for s in segments)
    picked: list[str] = []
    total = 0
    for b, name in sized:
        if total + b > byte_cap and len(picked) >= 2:
            break
        picked.append(name)
        total += b
    return [picked] if len(picked) >= 2 else []


POLICIES = {
    "tier": tier,
    "count": count,
    "bytes": bytes_policy,
    "bytes_accum": bytes_accum,
    "docs_live": docs_live,
    "docs_fill": docs_fill,
}
