"""Per-segment query work — the map function of ``Searcher.search_ray``
(SURVEY.md §3.2).

``search_batch_task`` runs one batch of (seg_dir, query_id, plan, k)
work items as a Ray task in a prestarted worker process: no actor spawn or
import before the first posting block is read.  Segment readers, parsed
plans and deleted-doc masks are opened lazily and shared within the call
only — work items are grouped one segment × all queries per batch, so a
cross-batch cache would never hit.  Output is the per-segment top-k
(query_id, conv_id, turn_idx, score).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

from iresearch_ray.query.exec import segment_topk
from iresearch_ray.stages.segment import SegmentReader

RESULT_SCHEMA = pa.schema(
    [
        ("query_id", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("score", pa.float64()),
    ]
)


def search_batch_task(
    batch: pa.Table, *, tombstones_json: str = "", index_dir: str = "", crypto=None
) -> pa.Table:
    """Per-segment top-k of every work item in ``batch``.  Tombstones,
    index_dir and crypto ship once per call (fn_kwargs) instead of per item;
    tombstone entries are pre-normalized scoped dicts ({"file", "segments"})
    so the deleted mask honors per-segment delete scope."""
    from iresearch_ray.state.meter import cpu_mark, report_since

    mk = cpu_mark()
    readers: dict[str, SegmentReader] = {}
    plans: dict[str, dict] = {}
    masks: dict[str, object] = {}

    def reader(seg_dir: str) -> SegmentReader:
        if seg_dir not in readers:
            # a worker's posting-cache budget, split across the readers a
            # wide batch may open
            readers[seg_dir] = SegmentReader(
                seg_dir,
                cache_bytes=max(8 << 20, SegmentReader.POSTING_CACHE_BYTES // 64),
                crypto=crypto,
            )
        return readers[seg_dir]

    def deleted(seg_dir: str):
        if not tombstones_json:
            return None
        if seg_dir not in masks:
            from iresearch_ray.pipelines.delete import deleted_doc_mask, load_tombstone_keys

            keys = load_tombstone_keys(
                index_dir,
                {"tombstones": json.loads(tombstones_json), "segments": []},
                for_segment=os.path.basename(seg_dir.rstrip("/")),
            )
            masks[seg_dir] = deleted_doc_mask(reader(seg_dir), keys)
        return masks[seg_dir]

    out: list[pa.Table] = []
    for seg_dir, qid, plan_json, k in zip(
        batch["seg_dir"].to_pylist(),
        batch["query_id"].to_pylist(),
        batch["plan"].to_pylist(),
        batch["k"].to_pylist(),
    ):
        if plan_json not in plans:
            plans[plan_json] = json.loads(plan_json)
        t = segment_topk(
            reader(seg_dir), plans[plan_json], int(k), deleted=deleted(seg_dir)
        )
        out.append(
            pa.table(
                {
                    "query_id": pa.array([qid] * t.num_rows, pa.string()),
                    "conv_id": t["conv_id"].cast(pa.string()),
                    "turn_idx": t["turn_idx"].cast(pa.int32()),
                    "score": t["score"],
                }
            )
        )
    report_since("query", mk)
    if not out:
        return RESULT_SCHEMA.empty_table()
    return pa.concat_tables(out).cast(RESULT_SCHEMA)
