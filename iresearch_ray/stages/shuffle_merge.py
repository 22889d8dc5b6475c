"""Shuffle-based wide merge — the salted partial-posting path
(B north_star: "handles hot-term skew via salted partial-posting shuffle
and term-frequency-aware partitioning").

``merge_segments`` (stages/merge.py) runs one k-way merge per task — right
for tier-policy sets of ≤10 segments.  When a consolidation spans MANY
segments (wide rebuilds, epoch compactions of 100s of shards), a single
task would pull every dictionary+blob; this module instead SHUFFLES the
term rows AND writes the merged segment distributed — the driver never
holds a corpus-sized table (round-2 review: the old path materialized the
entire merged terms+docs on the driver; now stage-2 tasks write
term-range parquet partitions and per-source tasks write doc-rank
partitions, the driver finalizes metadata only):

  stage 0 (narrow): read every candidate's term parts with
      ``include_paths`` → attach the segment's doc-id offset + rank
      (global doc order = sorted segment-name order, SURVEY §2.3) + a
      TERM-RANGE shard id from sampled (field, term) quantile boundaries.
  stage 1 (groupby shard, salt): Zipf-hot terms are split by
      ``salt = rank // ceil(n/num_salts)``; RANGE salting keeps each salt
      group a contiguous run of segments, so partial posting blobs stay
      globally ordered.  The group UDF runs ONCE PER SHARD (thousands of
      terms), sorts by (field, term, rank) and splices equal-(field, term)
      runs — not once per term (the singleton-group dispatch hot spot the
      round-2 review flagged; same coarse-shard pattern as dataops pair
      emission).  Blob concat rebases doc ids to global via the offset map
      (deltas inside blocks survive because every doc in a segment shifts
      equally).

      Hotness is decided ONCE per (field, term) from a parallel pre-pass
      (column-pruned + predicate-pushdown reads of every candidate's
      ``df`` column): a term is hot iff its df reaches ``hot_df_threshold``
      in ANY candidate segment.  A per-row (per-segment-df) decision would
      split a mixed-hotness term into a salted group PLUS a cold salt=-1
      group whose segment ranks interleave with the salted ranges — the
      final merge orders partials by first rank only, so the merged
      postings would come out doc-id-unsorted (breaking Not, skip-list
      targeting and phrase membership).  The global pre-pass keeps every stage-1
      group a contiguous rank range.
  stage 2 (groupby shard): ≤ num_salts partials per term merge in rank
      order, then the task WRITES its shard's term-range part file
      (``terms/part-{shard:05d}.parquet``) straight into the tmp segment
      dir — parts in shard order are exactly the (field, term)-sorted
      table (range partitioning), so no global concat or sort is ever
      needed.  Cold terms arrive fully merged (singleton runs).

Doc tables are rebased + written as ``docs/part-{rank:05d}.parquet`` by
one Ray task per source segment (ids = offset + local), so the merged
segment is identical to the task-merge output when concatenated; the
equivalence is asserted in tests.  Deletes route to the rebuild path
(merge_segments) — masked drops invalidate blob concat.

Partitioning assumptions at cluster scale: the segment store is shared
storage (every task can write the tmp segment dir — true of any real
multi-node deployment); shard count scales with cluster CPUs so one
shard's blob volume stays bounded.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from iresearch_ray.stages.merge import splice_term_runs
from iresearch_ray.stages.segment import (
    IndexConfig,
    SegmentReader,
    TERMS_SCHEMA,
    docs_paths,
    publish_segment_dir,
    terms_paths,
)

_BLOB_COLS = [f.name for f in TERMS_SCHEMA]
_STAGE_SCHEMA = pa.schema(
    list(TERMS_SCHEMA)
    + [
        pa.field("__rank", pa.int64()),
        pa.field("__off", pa.int64()),
        pa.field("__salt", pa.int64()),
        pa.field("__shard", pa.int64()),
    ]
)
_STATS_OUT_SCHEMA = pa.schema(
    [("shard", pa.int64()), ("terms", pa.int64()), ("bytes", pa.int64())]
)


# staging-name uniqueness: pid alone is not enough — same-process
# concurrent writers to one target would share (and interleave in) a
# pid-only staging path; see state/manifest.py:_atomic_write_json
_STAGE_SEQ = itertools.count()


def _combined_key(field_col, term_col):
    """field + \\x00 + term — one binary key whose byte order equals the
    (field, term) tuple order (utf-8 is order-preserving, \\x00 sorts below
    every utf-8 byte)."""
    return pc.binary_join_element_wise(field_col, term_col, "\x00")


def _atomic_part_write(table: pa.Table, path: str) -> int:
    """Write + fsync a part file via tmp+rename (task-retry idempotent:
    the content is deterministic per shard, so a re-run overwrites with
    identical bytes).  Returns the file size."""
    tmp = f"{path}.inprog.{os.getpid()}.{next(_STAGE_SEQ)}"
    # same write profile as write_segment: blobs are unique (dictionary
    # encoding is pure CPU loss) and segment parts are never predicate-pushed
    pq.write_table(table, tmp, use_dictionary=False, write_statistics=False)
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return os.path.getsize(path)


def _merge_runs(group: pa.Table, shard: int) -> pa.Table:
    """Splice equal-(field, term) runs of a shard table — fully vectorized
    via :func:`splice_term_runs` (Arrow-buffer reads, from_buffers output;
    the earlier per-run ``to_pylist`` version was the profiled hot spot).
    Returns a _STAGE_SCHEMA table; ``__rank`` carries each run's FIRST
    part's rank (stage-2 merge order), ``__off`` 0 — partial blobs carry
    GLOBAL doc ids."""
    g = group.sort_by(
        [("field", "ascending"), ("term", "ascending"), ("__rank", "ascending")]
    )
    merged, run_starts = splice_term_runs(g)
    n_runs = merged.num_rows
    ranks = g["__rank"].to_numpy(zero_copy_only=False)[run_starts]
    return (
        merged.append_column("__rank", pa.array(ranks, pa.int64()))
        .append_column("__off", pa.array(np.zeros(n_runs, dtype=np.int64)))
        .append_column("__salt", pa.array(np.full(n_runs, -1, dtype=np.int64)))
        .append_column("__shard", pa.array(np.full(n_runs, shard, dtype=np.int64)))
        .select(_STAGE_SCHEMA.names)
    )


def merge_segments_shuffle(
    index_dir: str,
    seg_names: list[str],
    generation: int,
    hot_df_threshold: int = 10_000,
    num_salts: int = 8,
    num_output_parts: int | None = None,
) -> dict:
    """Merge the named segments into one via a term-keyed Ray shuffle with
    range-salted hot terms and a fully distributed segment write.  Same
    output contract as merge_segments."""
    import ray
    import ray.data as rd

    t0 = time.perf_counter()
    seg_names = sorted(seg_names)
    key = zlib.crc32(("|".join(seg_names) + "|shuffle").encode())
    name = f"seg-s{generation:04d}-{key:08x}"
    final_dir = os.path.join(index_dir, "segments", name)
    if os.path.exists(os.path.join(final_dir, "meta.json")):
        with open(os.path.join(final_dir, "meta.json")) as f:
            return json.load(f)  # idempotent retry / resume hit

    seg_root = os.path.join(index_dir, "segments")
    seg_dirs = [os.path.join(seg_root, n) for n in seg_names]
    readers = [SegmentReader(d) for d in seg_dirs]
    cfg = IndexConfig.from_json(readers[0].meta["config"])

    from iresearch_ray.state.manifest import load_manifest

    man = load_manifest(index_dir) or {}
    if man.get("tombstones"):
        from iresearch_ray.pipelines.delete import load_tombstone_keys

        for sname in seg_names:
            keys = load_tombstone_keys(index_dir, man, for_segment=sname)
            if keys:
                # masked drops need the rebuild path
                from iresearch_ray.stages.merge import merge_segments

                return merge_segments(index_dir, seg_names, generation)

    counts = [r.meta["docs_count"] for r in readers]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    # every term part path of a segment shares its rank/offset (sources may
    # themselves be multi-part shuffle-merge outputs)
    rank_of: dict[str, int] = {}
    off_of: dict[str, int] = {}
    paths: list[str] = []
    for i, d in enumerate(seg_dirs):
        for p in terms_paths(d):
            rank_of[p] = i
            off_of[p] = int(offsets[i])
            paths.append(p)
    n_segs = len(seg_names)
    run = max(1, math.ceil(n_segs / num_salts))
    if num_output_parts is None:
        # size parts by INPUT BYTES (≈96 MB each), not by segment count — a
        # 2-way merge of two multi-GB segments needs just as much write
        # parallelism as a 100-way merge of small ones
        total_bytes = sum(int(r.meta.get("bytes", 0)) for r in readers)
        try:
            ncpu = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            ncpu = 8
        num_output_parts = max(
            4, min(256, max(ncpu, math.ceil(total_bytes / (96 << 20))))
        )

    # ---- parallel pre-passes over the narrow dictionary columns ----------
    # (a) global hotness: (field, term) keys whose df reaches the threshold
    #     in ANY candidate — tiny by Zipf (predicate-pushdown df read)
    # (b) term-range boundaries: strided sample of combined keys → quantile
    #     boundaries so output shards are balanced by dictionary rows
    @ray.remote(num_cpus=1)
    def _prepass(path: str, thr: int) -> tuple[list[str], list[str]]:
        import pyarrow.dataset as pads

        hot_t = pads.dataset(path).to_table(
            columns=["field", "term"], filter=pads.field("df") >= thr
        )
        hot_keys = _combined_key(hot_t["field"], hot_t["term"]).to_pylist()
        kt = pq.read_table(path, columns=["field", "term"])
        keys = _combined_key(kt["field"], kt["term"])
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        stride = max(1, kt.num_rows // 256)
        sample = keys.take(pa.array(np.arange(0, kt.num_rows, stride))).to_pylist()
        return hot_keys, sample

    hot: set[str] = set()
    samples: list[str] = []
    for hk, sm in ray.get([_prepass.remote(p, hot_df_threshold) for p in paths]):
        hot.update(hk)
        samples.extend(sm)
    samples.sort()
    P = max(1, min(num_output_parts, len(samples) or 1))
    bounds = sorted(
        {samples[(len(samples) * i) // P] for i in range(1, P)}
    ) if samples else []
    bounds_np = np.asarray(bounds, dtype=object)
    hot_ref = ray.put(pa.array(sorted(hot), pa.string()) if hot else None)
    rank_ref = ray.put(rank_of)
    off_ref = ray.put(off_of)

    tmp_dir = os.path.join(index_dir, "_tmp", f"{name}-{os.getpid()}-{next(_STAGE_SEQ)}")
    terms_dir = os.path.join(tmp_dir, "terms")
    docs_dir = os.path.join(tmp_dir, "docs")
    os.makedirs(terms_dir, exist_ok=True)
    os.makedirs(docs_dir, exist_ok=True)

    # ---- docs: one task per source segment writes its rank partition -----
    doc_schemas = [pq.read_schema(docs_paths(d)[0]) for d in seg_dirs]
    unified = pa.unify_schemas(doc_schemas)

    @ray.remote(num_cpus=1)
    def _write_docs_part(seg_dir: str, rank: int, offset: int) -> dict:
        from iresearch_ray.state.meter import cpu_mark, report_since

        mk = cpu_mark()
        t = pa.concat_tables(
            [pq.read_table(p) for p in docs_paths(seg_dir)], promote_options="default"
        )
        cols = {}
        for f in unified:
            if f.name in t.column_names:
                c = t[f.name]
                cols[f.name] = c if c.type == f.type else c.cast(f.type)
            else:
                cols[f.name] = pa.nulls(t.num_rows, f.type)
        t = pa.table(cols)
        t = t.set_column(
            t.schema.get_field_index("doc_id"),
            "doc_id",
            pa.array(np.arange(offset + 1, offset + t.num_rows + 1, dtype=np.int64)),
        )
        path = os.path.join(docs_dir, f"part-{rank:05d}.parquet")
        nbytes = _atomic_part_write(t, path)
        first = (
            [str(t["conv_id"][0].as_py()), int(t["turn_idx"][0].as_py())]
            if t.num_rows
            else None
        )
        last = (
            [str(t["conv_id"][-1].as_py()), int(t["turn_idx"][-1].as_py())]
            if t.num_rows
            else None
        )
        report_since("consolidate", mk)
        return {"rows": t.num_rows, "bytes": nbytes, "first": first, "last": last}

    doc_refs = [
        _write_docs_part.remote(d, i, int(offsets[i])) for i, d in enumerate(seg_dirs)
    ]

    # ---- terms: tag → (shard, salt) partial merge → (shard) final + write -
    ds = rd.read_parquet(paths, include_paths=True)

    def tag(batch: pa.Table) -> pa.Table:
        ranks = ray.get(rank_ref)
        offs = ray.get(off_ref)
        hot_arr = ray.get(hot_ref)
        pcol = batch["path"]
        if isinstance(pcol, pa.ChunkedArray):
            pcol = pcol.combine_chunks()
        enc = pcol.dictionary_encode()
        uniq = enc.dictionary.to_pylist()  # few uniques per batch
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        rank = np.asarray([ranks[u] for u in uniq], dtype=np.int64)[codes]
        off = np.asarray([offs[u] for u in uniq], dtype=np.int64)[codes]
        keys = _combined_key(batch["field"], batch["term"])
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        shard = (
            np.searchsorted(
                bounds_np, keys.to_pandas().to_numpy(dtype=object), side="right"
            ).astype(np.int64)
            if bounds_np.size
            else np.zeros(batch.num_rows, dtype=np.int64)
        )
        # term-frequency-aware partitioning: only globally-hot terms pay the
        # salt split; cold terms go straight to their final merge group.
        # The decision is per (field, term) — NEVER per row — so every
        # stage-1 group is a contiguous rank range (see module docstring).
        if hot_arr is not None:
            is_hot = pc.is_in(keys, value_set=hot_arr).to_numpy(zero_copy_only=False)
        else:
            is_hot = np.zeros(batch.num_rows, dtype=bool)
        salt = np.where(is_hot, rank // run, -1)
        out = (
            batch.drop_columns(["path"])
            .append_column("__rank", pa.array(rank))
            .append_column("__off", pa.array(off))
            .append_column("__salt", pa.array(salt))
            .append_column("__shard", pa.array(shard))
        )
        return out.select(_STAGE_SCHEMA.names)

    def combine_partial(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _STAGE_SCHEMA.empty_table()
        from iresearch_ray.state.meter import cpu_mark, report_since

        mk = cpu_mark()
        shard = int(group["__shard"][0].as_py())
        out = _merge_runs(group, shard)
        report_since("consolidate", mk)
        return out

    def finalize_write(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _STATS_OUT_SCHEMA.empty_table()
        from iresearch_ray.state.meter import cpu_mark, report_since

        mk = cpu_mark()
        shard = int(group["__shard"][0].as_py())
        # emitted in (field, term) order
        t = _merge_runs(group, shard).select(_BLOB_COLS).cast(TERMS_SCHEMA)
        path = os.path.join(terms_dir, f"part-{shard:05d}.parquet")
        nbytes = _atomic_part_write(t, path)
        report_since("consolidate", mk)
        return pa.table(
            {
                "shard": pa.array([shard], pa.int64()),
                "terms": pa.array([t.num_rows], pa.int64()),
                "bytes": pa.array([nbytes], pa.int64()),
            }
        )

    stage1 = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby(["__shard", "__salt"])
        .map_groups(combine_partial, batch_format="pyarrow")
    )
    stage2 = stage1.groupby("__shard").map_groups(
        finalize_write, batch_format="pyarrow"
    )
    shard_stats = [r for r in stage2.take_all()]  # tiny: one row per shard
    terms_count = int(sum(r["terms"] for r in shard_stats))
    terms_bytes = int(sum(r["bytes"] for r in shard_stats))
    if not shard_stats:  # degenerate: no terms at all
        _atomic_part_write(
            TERMS_SCHEMA.empty_table(), os.path.join(terms_dir, "part-00000.parquet")
        )

    doc_stats = ray.get(doc_refs)
    docs_bytes = int(sum(d["bytes"] for d in doc_stats))
    nonempty = [d for d in doc_stats if d["rows"]]

    field_stats: dict[str, dict] = {}
    for r in readers:
        for fname, fs in r.meta["field_stats"].items():
            acc = field_stats.setdefault(
                fname, {"docs_with_field": 0, "total_term_freq": 0}
            )
            acc["docs_with_field"] += fs["docs_with_field"]
            acc["total_term_freq"] += fs["total_term_freq"]

    meta = {
        "name": name,
        "docs_count": total,
        "field_stats": field_stats,
        "terms_count": terms_count,
        "min_key": nonempty[0]["first"] if nonempty else None,
        "max_key": nonempty[-1]["last"] if nonempty else None,
        "bytes": terms_bytes + docs_bytes,
        "config": cfg.to_json(),
        "lineage": {
            "merged_from": seg_names,
            "engine": "shuffle",
            "num_salts": num_salts,
            "num_output_parts": num_output_parts,
        },
        "metrics": {"merge_secs": round(time.perf_counter() - t0, 4), "docs": total},
    }
    # metadata-only finalize: parts were written + fsynced by the tasks
    return publish_segment_dir(index_dir, name, tmp_dir, meta, fsync_data=False)
