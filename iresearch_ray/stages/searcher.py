"""Per-segment query work — the shard half of every query op (SURVEY.md
§3.2).

A ``Shard`` is a list of segment readers plus their deleted-doc masks.
Every op — scored top-k, scoreless count, top-k with highlight spans,
payload-weight top-k — takes plans prepared on the driver, evaluates them
segment by segment, and returns per-shard rows that the driver merges.
Three placements run the same class:

- ``Searcher`` holds one shard over every segment, in-process;
- each ``QueryPool`` actor (``pipelines.search.PoolShard``) holds a
  round-robin slice of the segments for the pool's lifetime;
- ``search_batch_task`` opens a shard over the segments of one Ray Data
  batch (``Searcher.search_ray``) in a prestarted worker process.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from iresearch_ray.query.exec import doc_keys_of, segment_count, segment_topk_docs
from iresearch_ray.stages.segment import SegmentReader

RESULT_SCHEMA = pa.schema(
    [
        ("query_id", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("score", pa.float64()),
    ]
)


def deleted_masks(index_dir: str, tombstones: list[dict], readers, crypto=None) -> list:
    """One deleted-doc mask (or None) per reader from the normalized
    tombstone entries (``delete._entries``), honoring each entry's
    segment scope; tombstone files are read with ``crypto``."""
    from iresearch_ray.pipelines.delete import segment_deleted_mask

    tombs = {"tombstones": tombstones}
    return [segment_deleted_mask(index_dir, tombs, r.seg_dir, r, crypto) for r in readers]


def _topk_order(k: int, qid: np.ndarray | None, score: np.ndarray,
                *ties: np.ndarray) -> np.ndarray:
    """Row positions of each query's top-k, grouped by query id ascending
    (one query when ``qid`` is None), under the pinned order: score desc,
    then the ``ties`` keys asc, most significant first.  One stable
    lexsort, then a per-query rank cut — the one merge kernel of shard
    and driver merges."""
    if qid is None:
        return np.lexsort((*ties[::-1], -score))[: max(k, 0)]
    order = np.lexsort((*ties[::-1], -score, qid))
    q = qid[order]
    rank = np.arange(q.size) - np.searchsorted(q, q)  # position within its query
    return order[rank < k]


class Shard:
    """Segment readers with their deleted-doc masks; each op returns the
    rows of this shard for the driver to merge."""

    def __init__(self, readers: list[SegmentReader], deleted: list):
        self.readers = readers
        self.deleted = deleted

    def _segments(self):
        return zip(self.readers, self.deleted)

    def _plan_topk(self, plan: dict, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(conv_id, turn_idx, score) arrays: every segment's top-k of
        ``plan``, concatenated in segment order."""
        parts = []
        for r, d in self._segments():
            docs, score = segment_topk_docs(r, plan, k, d)
            parts.append((*doc_keys_of(r, docs), score))
        return _concat_hits(parts)

    def topk_arrays(self, plans: dict[str, dict], k: int) -> dict[str, tuple]:
        """Per-segment top-k of every named plan: query id → its
        (conv_id, turn_idx, score) arrays."""
        return {qid: self._plan_topk(p, k) for qid, p in plans.items()}

    def topk(self, plans: dict[str, dict], k: int) -> pa.Table:
        """``topk_arrays`` as one table of ``RESULT_SCHEMA`` rows labelled
        with their query ids — the transport format of pool actors and
        Ray tasks."""
        return _result_table(self.topk_arrays(plans, k))

    def count(self, plan: dict) -> int:
        return sum(segment_count(r, plan, deleted=d) for r, d in self._segments())

    def highlight(self, plans: dict[str, dict], k: int, field: str, source: str) -> pd.DataFrame:
        """This shard's top-k of every plan with ``text`` and ``spans``:
        the segments' top-k are merged first, and only the k survivors per
        query get spans, each from the reader that holds it (stored-text
        retokenize or the indexed offset stream, functions/highlight.py)."""
        from iresearch_ray.functions.highlight import plan_terms, spans_for_hits

        if source == "index":
            if self.readers and not self.readers[0].meta.get("config", {}).get("offsets"):
                raise ValueError(
                    "highlights(source='index') needs the index built with "
                    "IndexConfig(offsets=True)"
                )
        elif any(field not in r.docs_schema.names for r in self.readers):
            raise ValueError(
                f"highlights() needs the index built with store_text=True "
                f"(stored column {field!r} missing)"
            )
        hits, texts, spans = {}, [], []
        for qid, plan in plans.items():
            terms = sorted(plan_terms(plan["root"], field))
            seg_docs, parts = [], []
            for r, d in self._segments():
                docs, score = segment_topk_docs(r, plan, k, d)
                seg_docs.append(docs)
                parts.append((*doc_keys_of(r, docs), score))
            conv, turn, score = _concat_hits(parts)
            # the shard's own top-k, in segment order: only these get spans
            keep = np.sort(_topk_order(k, None, score, conv, turn))
            starts = np.cumsum([0] + [docs.size for docs in seg_docs])
            cuts = np.searchsorted(keep, starts)
            for r, docs, start, lo, hi in zip(self.readers, seg_docs, starts, cuts, cuts[1:]):
                if hi > lo:
                    t, sp = spans_for_hits(r, docs[keep[lo:hi] - start], terms, field, source)
                    texts += t
                    spans += sp
            hits[qid] = (conv[keep], turn[keep], score[keep])
        out = _result_table(hits).to_pandas()
        out["text"] = pd.Series(texts, dtype=object)
        out["spans"] = pd.Series(spans, dtype=object)
        return out

    def payload_topk(self, field: str, term: str, k: int) -> pd.DataFrame:
        """Per-segment top-k by payload-weight sum (functions/payload.py)."""
        from iresearch_ray.functions.payload import reader_payload_topk

        parts = [reader_payload_topk(r, field, term, k, deleted=d) for r, d in self._segments()]
        if not parts:
            return pd.DataFrame(columns=["conv_id", "turn_idx", "score"])
        return pd.concat(parts, ignore_index=True)


def _concat_hits(parts: list[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-segment (conv_id, turn_idx, score) arrays."""
    if not parts:
        return np.empty(0, object), np.empty(0, np.int32), np.empty(0, np.float64)
    return tuple(np.concatenate(c) for c in zip(*parts))


def _result_table(hits: dict[str, tuple]) -> pa.Table:
    """One ``RESULT_SCHEMA`` table of every query's (conv_id, turn_idx,
    score) arrays, each row labelled with its query id."""
    qids = list(hits)
    conv, turn, score = _concat_hits(list(hits.values()))
    sizes = [h[0].size for h in hits.values()]
    return pa.table(
        [
            pa.array(np.repeat(np.array(qids, object), sizes), pa.string()),
            pa.array(conv, pa.string()),
            pa.array(turn, pa.int32()),
            pa.array(score, pa.float64()),
        ],
        schema=RESULT_SCHEMA,
    )


def search_batch_task(
    batch: pa.Table, *, plans: dict[str, dict], k: int, tombstones: list[dict],
    index_dir: str, crypto=None,
) -> pa.Table:
    """``RESULT_SCHEMA`` rows of every plan over the segments in ``batch``
    (a ``seg_dir`` column).  Plans, k, the normalized tombstone entries and
    crypto ship once per call (fn_kwargs), not per item."""
    from iresearch_ray.state.meter import cpu_mark, report_since

    mk = cpu_mark()
    readers = [
        SegmentReader(d, cache_bytes=8 << 20, crypto=crypto)
        for d in batch["seg_dir"].to_pylist()
    ]
    out = Shard(readers, deleted_masks(index_dir, tombstones, readers, crypto)).topk(plans, k)
    report_since("query", mk)
    return out
