"""Index build pipeline — SURVEY.md §3.1 (entry point 1).

One physical plan, an explicit two-stage hash exchange, serves every build:

    source: Parquet files (column-pruned reads) or the Arrow blocks of a
            ray.data.Dataset (``Dataset.to_arrow_refs``)
      → stage A, one Ray task per input group: split the rows by
        crc32(conv_id) % P with one stable sort and P zero-copy slices,
        returned as P objects (num_returns=P) so stage B fetches only its
        own partition's bytes.  Partitions adopted on resume are dropped
        here: a resumed build re-reads but never re-ships or re-indexes
        finished work.
      → stage B, one Ray task per partition: concat its shards → build +
        atomically write one segment (an empty partition writes nothing)
      → driver: collect the meta dicts → manifest generation+1 (two-phase
        commit)

``build_index`` (a fresh build) and ``append_index`` (a new batch appended
in one generation) both run this exchange; ``build_index_local`` applies the
same split and writer in-process, without Ray.  The jobs differ only in the
segment name prefix and lineage (``seg-p…`` vs ``seg-b<batch>-p…``), and one
predicate (``_adoptable``) decides what a resumed job may reuse.

The only exchange is keyed by hash(conv_id) — one conversation's turns
always land in one segment, which preserves stable (conv_id, turn_idx)-local
doc ids and makes per-turn text equality checks partition-local (SURVEY
§4.2).  The postings accumulator lives entirely inside one stage-B task (the
field_data analog) — no cross-task mutable state (SURVEY §3.1).

Why an explicit exchange rather than a Dataset groupby (SURVEY §4.1): the
sort-based shuffle pays a global sort whose poorly parallelized boundary
dominates small-to-mid builds; this is the classic M×R map-side split, every
stage embarrassingly parallel, with no ordering requirement (each partition
re-sorts locally by (conv_id, turn_idx) anyway).  Metadata cost is G×P refs
for G input groups, and G is capped near P.

Skew note (SURVEY §4.1): conv_id hash partitioning is uniform by construction
(conv sizes are bounded: one conversation ≪ partition size), unlike term-keyed
shuffles — term-keyed salting only matters on the consolidation path.
"""

from __future__ import annotations

import json
import math
import os
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray.stages.segment import (
    IndexConfig,
    build_segment_tables,
    segment_content_key,
    write_segment,
)
from iresearch_ray.state.manifest import commit_manifest, completed_segments, load_manifest

TARGET_PARTITION_BYTES = 256 << 20  # SURVEY §4.2: P = ceil(input_bytes / 256MB)


def hash_partition(conv_ids, num_partitions: int) -> np.ndarray:
    """Deterministic (process- and version-independent) partition id per conv_id:
    crc32 over the utf-8 bytes — stable for resume across runs.

    Accepts an Arrow (Chunked)Array or a Python list.  Arrow inputs are
    dictionary-encoded first so crc32 (a per-string Python call) runs only
    over the UNIQUES — turns repeat per conversation, so this is
    ~turns/convs× fewer Python calls on the build hot path (round-2 review
    #4) — then the codes are gathered.  Bit-identical to the per-row path
    (same crc32 over the same utf-8 bytes), so resume fingerprints and
    partition assignments are unchanged; test_build_direct asserts this."""
    if isinstance(conv_ids, (pa.Array, pa.ChunkedArray)):
        arr = (
            conv_ids.combine_chunks()
            if isinstance(conv_ids, pa.ChunkedArray)
            else conv_ids
        )
        enc = arr.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        uhash = np.fromiter(
            (zlib.crc32(s.encode()) % num_partitions for s in uniq),
            dtype=np.int64,
            count=len(uniq),
        )
        return uhash[np.asarray(enc.indices)]
    return np.fromiter(
        (zlib.crc32(s.encode()) % num_partitions for s in conv_ids),
        dtype=np.int64,
        count=len(conv_ids),
    )


def _expand_files(source) -> list[str]:
    """str | list[str] (files or dirs) → flat sorted parquet file list —
    the ONE expansion rule shared by build/append/fingerprint/verify so
    resume fingerprints can never diverge between paths."""
    out: list[str] = []
    for s_ in [source] if isinstance(source, str) else list(source):
        if os.path.isdir(s_):
            out += [
                os.path.join(s_, f) for f in sorted(os.listdir(s_)) if f.endswith(".parquet")
            ]
        else:
            out.append(s_)
    return out


def _input_columns(schema_names: list[str], cfg: IndexConfig) -> list[str]:
    wanted = ["conv_id", "turn_idx", cfg.text_field, *cfg.keyword_fields,
              *cfg.numeric_fields, *cfg.json_fields, *cfg.geo_fields, "ts"]
    return [c for c in wanted if c in schema_names]


def _partitions_for(nbytes: int | None) -> int:
    return max(1, math.ceil((nbytes or 0) / TARGET_PARTITION_BYTES))


def _parquet_source(source, cfg: IndexConfig, num_partitions: int | None):
    """(files, fingerprint, pruned columns, P) of a Parquet source.  Default
    P: parquet is ~4x smaller than in-memory arrow for text, so partitions
    aim at TARGET_PARTITION_BYTES of in-memory rows."""
    files = _expand_files(source)
    if not files:
        raise ValueError(f"no parquet files in {source!r}")
    # json-shaped (lists, not tuples) so the manifest round-trip compares
    # equal on resume
    fingerprint = {"files": [[f, os.path.getsize(f)] for f in files]}
    cols = _input_columns(pq.read_schema(files[0]).names, cfg)
    P = num_partitions or _partitions_for(4 * sum(sz for _, sz in fingerprint["files"]))
    return files, fingerprint, cols, P


def _adoptable(index_dir: str, P: int, cfg: IndexConfig, crypto, **lineage) -> dict[int, dict]:
    """Completed segments a resumed job may reuse, by partition.  Adoption
    requires per-segment provenance: the segment's own meta must record this
    P, this config, this encryption key (id AND key-bytes fingerprint, so a
    rotated master key under a reused key_id forces a rebuild — ADVICE r3)
    and every ``lineage`` item (the source fingerprint of a build, the batch
    key of an append).  Orphans from a crashed run over different data or
    under a prior config are never adopted (round-2 review fix)."""
    cfg_json = cfg.to_json()
    done: dict[int, dict] = {}
    for meta in completed_segments(index_dir).values():
        lin = meta.get("lineage", {})
        if (
            lin.get("of_partitions") == P
            and isinstance(lin.get("partition"), int)
            and all(lin.get(k) == v for k, v in lineage.items())
            and meta.get("config") == cfg_json
            and meta.get("encrypted") == getattr(crypto, "key_id", None)
            and meta.get("key_fp") == getattr(crypto, "key_fingerprint", None)
        ):
            done[lin["partition"]] = meta
    return done


def _split(t: pa.Table, P: int, skip=()) -> list[pa.Table | None]:
    """Rows of ``t`` by hash(conv_id) % P — one stable sort and P zero-copy
    slices instead of P ``filter`` scans.  Empty partitions and those in
    ``skip`` come back as None."""
    part = hash_partition(t["conv_id"], P)
    order = np.argsort(part, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(P + 1))
    return [
        None if lo == hi or p in skip else t.slice(lo, hi - lo)
        for p, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    ]


def _write_part(index_dir: str, cfg: IndexConfig, rows: pa.Table, part: int, P: int,
                prefix: str, lineage: dict, crypto) -> dict:
    """Build and atomically write partition ``part``'s segment, named
    ``<prefix>p<part>-<content key>``; returns its meta entry."""
    from iresearch_ray.state.meter import cpu_mark, report_since

    t0 = time.perf_counter()
    c0 = time.process_time()
    mk = cpu_mark()
    key = segment_content_key(rows, cfg, crypto)
    layers: dict[str, float] = {}
    terms, docs, field_stats = build_segment_tables(rows, cfg, layers)
    cpu = time.process_time() - c0
    report_since("append" if "batch" in lineage else "build", mk)
    return write_segment(
        index_dir,
        f"{prefix}p{part:05d}-{key}",
        terms,
        docs,
        field_stats,
        cfg,
        lineage={"partition": part, "of_partitions": P, "rows": rows.num_rows, **lineage},
        metrics={
            "build_secs": round(time.perf_counter() - t0, 4),
            "build_cpu_secs": round(cpu, 4),
            "analyze_cpu_secs": round(layers["analyze"], 4),
            "group_encode_cpu_secs": round(layers["group_encode"], 4),
            "encode_cpu_secs": round(layers.get("encode", 0.0), 4),
            "tokens": field_stats.get(cfg.text_field, {}).get("total_term_freq", 0),
        },
        crypto=crypto,
    )


def _read_split(P: int, skip: frozenset, cols, *inputs):
    """Stage A: one input group (Parquet paths or Arrow blocks) → P shards."""
    tables = [pq.read_table(x, columns=cols) if isinstance(x, str) else x for x in inputs]
    tables = [t for t in tables if t.num_rows]  # empty blocks may lack a schema
    out = (
        _split(pa.concat_tables(tables, promote_options="default"), P, skip)
        if tables
        else [None] * P
    )
    return tuple(out) if P > 1 else out[0]


def _build_part(index_dir, cfg, crypto, P, part, prefix, lineage, *shards):
    """Stage B: one partition's shards → one segment (None when empty)."""
    tables = [t for t in shards if t is not None]
    if not tables:
        return None
    rows = pa.concat_tables(tables, promote_options="default")
    return _write_part(index_dir, cfg, rows, part, P, prefix, lineage, crypto)


def _exchange(inputs: list, index_dir: str, cfg: IndexConfig, P: int, done, crypto,
              prefix: str, lineage: dict, cols=None) -> list[dict]:
    """Run the two-stage exchange over ``inputs`` (Parquet paths, or Arrow
    block refs) for every partition not in ``done``; returns the new metas."""
    import ray

    # group inputs so stage A is O(P) tasks: one read task per file, each
    # returning P objects, floods the object store with F×P refs (observed
    # to collapse throughput at a few hundred files); ~P groups keeps the
    # ref count at P² while still saturating the cluster
    n_groups = min(len(inputs), max(P, 16))
    groups = [inputs[i::n_groups] for i in range(n_groups)]
    split = ray.remote(num_cpus=1)(_read_split).options(num_returns=P)
    skip = frozenset(done)
    refs = [split.remote(P, skip, cols, *g) for g in groups]
    if P == 1:
        refs = [[r] for r in refs]
    build = ray.remote(num_cpus=1)(_build_part)
    metas = ray.get([
        build.remote(index_dir, cfg, crypto, P, p, prefix, lineage, *[r[p] for r in refs])
        for p in range(P)
        if p not in done
    ])
    return [m for m in metas if m is not None]


def build_index(
    source,
    index_dir: str,
    cfg: IndexConfig | None = None,
    num_partitions: int | None = None,
    resume: bool = True,
    crypto=None,
) -> dict:
    """Build (or resume) an index from a Parquet path / list of paths (files
    or dirs) / an existing ``ray.data.Dataset`` of transcript rows.  Returns
    the committed manifest.  Does NOT call ray.init() — caller owns the
    session.

    Default P: 4 × Parquet bytes / TARGET_PARTITION_BYTES for files,
    ``ds.size_bytes()`` / TARGET_PARTITION_BYTES for a Dataset.  Only file
    sources are resume-adopted: an in-memory Dataset has no fingerprint
    ({"files": None}), and None == None must not alias different data."""
    cfg = cfg or IndexConfig()
    if isinstance(source, (str, list, tuple)):
        inputs, fingerprint, cols, P = _parquet_source(source, cfg, num_partitions)
    else:
        ds = source.materialize()
        fingerprint, cols = {"files": None}, None
        P = num_partitions or _partitions_for(ds.size_bytes())
        inputs = ds.to_arrow_refs()

    done = {}
    if resume and fingerprint["files"] is not None:
        done = _adoptable(index_dir, P, cfg, crypto, input=fingerprint)
    new_metas = _exchange(inputs, index_dir, cfg, P, done, crypto, "seg-",
                          {"input": fingerprint}, cols)

    all_metas = list(done.values()) + new_metas
    return commit_manifest(
        index_dir,
        all_metas,
        cfg.to_json(),
        lineage={
            "input": fingerprint,
            "num_partitions": P,
            "resumed_partitions": sorted(int(p) for p in done),
            "built_partitions": sorted(m["lineage"]["partition"] for m in new_metas),
        },
        metrics={
            "docs_count": sum(m["docs_count"] for m in all_metas),
            "segments": len(all_metas),
            "build_secs_per_partition": {
                str(m["lineage"]["partition"]): m["metrics"].get("build_secs")
                for m in new_metas
            },
        },
    )


def build_index_direct(source, index_dir: str, cfg: IndexConfig | None = None,
                       num_partitions: int | None = None, resume: bool = True,
                       crypto=None) -> dict:
    """Alias of :func:`build_index`, kept for callers that import this name."""
    return build_index(source, index_dir, cfg, num_partitions, resume, crypto)


def append_index(
    source,
    index_dir: str,
    num_partitions: int | None = None,
    resume: bool = True,
    crypto=None,
) -> dict:
    """Incremental ingest (SURVEY §2.10: incremental = NEW segments +
    consolidation, never rewriting old ones): build segments for a NEW batch
    of transcript parquet and append them to the existing manifest in one
    generation.  The batch is identified by a content fingerprint; resume
    within a batch skips its completed partitions (matched by batch key, so
    partitions of different batches can never alias).  Config comes from the
    existing manifest.  Follow with consolidate() to fold small batch
    segments into the tiers."""
    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no manifest in {index_dir} — use build_index first")
    cfg = IndexConfig.from_json(manifest["config"])

    files, fingerprint, cols, P = _parquet_source(source, cfg, num_partitions)
    batch_key = f"{zlib.crc32(json.dumps(fingerprint, sort_keys=True).encode()):08x}"
    done = _adoptable(index_dir, P, cfg, crypto, batch=batch_key) if resume else {}
    new_metas = _exchange(files, index_dir, cfg, P, done, crypto, f"seg-b{batch_key}-",
                          {"batch": batch_key}, cols)

    batch_metas = list(done.values()) + new_metas
    # re-appending an already-committed batch must be a no-op: segments the
    # manifest already references (matched by content-derived name) are not
    # added twice
    existing = {sm["name"] for sm in manifest["segments"]}
    batch_metas = [m for m in batch_metas if m["name"] not in existing]
    return commit_manifest(
        index_dir,
        manifest["segments"] + batch_metas,
        manifest["config"],
        lineage={
            **manifest.get("lineage", {}),
            # re-appending the same batch stays a true no-op: no duplicate
            # lineage entry either (round-2 review fix)
            "appended_batches": (
                manifest.get("lineage", {}).get("appended_batches", [])
                + (
                    [{"batch": batch_key, "input": fingerprint, "num_partitions": P}]
                    if batch_key
                    not in {
                        b.get("batch")
                        for b in manifest.get("lineage", {}).get("appended_batches", [])
                    }
                    else []
                )
            ),
        },
        metrics={
            "docs_count": sum(
                m["docs_count"] for m in manifest["segments"] + batch_metas
            ),
            "segments": len(manifest["segments"]) + len(batch_metas),
        },
    )


def verify_text_equality(index_dir: str, source, distributed: bool | None = None, crypto=None) -> dict:
    """Per-turn text equality against the source corpus under stable
    (conv_id, turn_idx) ordering — the end-to-end invariant pinned by the
    BASELINE input_hint.  Compares the stored doc-table text of EVERY live
    segment row to the source rows; returns counts and raises on mismatch.

    With a live Ray session and file-backed source (the default there),
    the comparison runs as a DISTRIBUTED co-located anti-join — source
    rows and segment doc rows shuffled once by conv-hash shard, compared
    vectorized inside each group, only per-shard count rows reaching the
    driver — so the check itself survives 100 TB (the round-2 version
    built a whole-corpus Python dict on the driver).  The driver path
    remains for pa.Table inputs, no-Ray contexts and encrypted indexes
    (``crypto``); both raise the same
    errors in the same priority order."""
    from iresearch_ray.stages.segment import SegmentReader
    from iresearch_ray.state.manifest import load_manifest, segment_dirs

    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    cfg = IndexConfig.from_json(manifest["config"])
    if not cfg.store_text:
        raise ValueError("verify_text_equality requires store_text=True")

    if distributed is None:
        try:
            import ray

            distributed = ray.is_initialized() and not isinstance(source, pa.Table)
        except Exception:
            distributed = False
    # encrypted indexes always take the driver path: ray.data has no
    # dataset-level parquet decryption (as in build_global_stats)
    if distributed and crypto is None:
        return _verify_text_equality_distributed(index_dir, source, cfg, manifest)

    if isinstance(source, pa.Table):
        src = source
    else:
        src = pa.concat_tables(
            pq.read_table(f, columns=["conv_id", "turn_idx", cfg.text_field])
            for f in _expand_files(source)
        )
    expect = {
        (c, t): x
        for c, t, x in zip(
            src["conv_id"].to_pylist(),
            src["turn_idx"].to_pylist(),
            src[cfg.text_field].to_pylist(),
        )
    }
    if len(expect) != src.num_rows:
        raise AssertionError(
            f"source has duplicate (conv_id, turn_idx) keys: {src.num_rows - len(expect)}"
        )

    checked = 0
    seen: set = set()
    mismatches = []
    dup_keys = []
    for d in segment_dirs(index_dir, manifest):
        r = SegmentReader(d, crypto=crypto)
        for c, t, x in zip(
            r.docs["conv_id"].to_pylist(),
            r.docs["turn_idx"].to_pylist(),
            r.docs[cfg.text_field].to_pylist(),
        ):
            checked += 1
            if (c, t) in seen:
                dup_keys.append((c, t))
            seen.add((c, t))
            if expect.get((c, t)) != x:
                mismatches.append((c, t))
    if mismatches:
        raise AssertionError(
            f"text mismatch for {len(mismatches)} keys, e.g. {mismatches[:3]}"
        )
    if dup_keys:
        raise AssertionError(
            f"{len(dup_keys)} duplicate indexed keys, e.g. {dup_keys[:3]}"
        )
    if checked != src.num_rows:
        # missing-doc blindness fix (round-2 review): equality of the rows
        # that EXIST is not enough — every source row must be indexed
        raise AssertionError(
            f"indexed row count {checked} != source rows {src.num_rows}"
        )
    return {"checked": checked, "source_rows": src.num_rows, "equal": True}


def _verify_text_equality_distributed(index_dir: str, source, cfg, manifest) -> dict:
    """Dataset-native text-equality check: normalize source rows (side 0)
    and segment doc rows (side 1) to (conv_id, turn_idx, text, side),
    co-locate by conv_id (ONE ``shard_groups`` exchange), and inside each
    kernel call sort by (conv_id, turn_idx, side) and scan (conv, turn)
    runs vectorized — src rows lead each run, so per-key comparison is a
    reduceat over run boundaries.  Output: one count row per call."""
    import pyarrow.compute as pc
    import ray.data as rd

    from iresearch_ray.pipelines.dataops import shard_groups
    from iresearch_ray.stages.segment import docs_paths
    from iresearch_ray.state.manifest import segment_dirs

    tf = cfg.text_field

    def norm(side: int):
        def f(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "conv_id": b["conv_id"].cast(pa.string()),
                    "turn_idx": b["turn_idx"].cast(pa.int64()),
                    "__text": b[tf].cast(pa.string()),
                    "side": pa.array(np.full(b.num_rows, side, np.int8)),
                }
            )

        return f

    src_files = _expand_files(source)
    doc_files = [p for d in segment_dirs(index_dir, manifest) for p in docs_paths(d)]
    src = rd.read_parquet(src_files, columns=["conv_id", "turn_idx", tf]).map_batches(
        norm(0), batch_format="pyarrow"
    )
    idx = rd.read_parquet(doc_files, columns=["conv_id", "turn_idx", tf]).map_batches(
        norm(1), batch_format="pyarrow"
    )

    def check(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g,
            sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending"), ("side", "ascending")],
        )
        g = g.take(order)
        conv = np.asarray(g["conv_id"].to_pylist(), dtype=object)
        turn = g["turn_idx"].to_numpy(zero_copy_only=False)
        text = np.asarray(g["__text"].to_pylist(), dtype=object)
        side = g["side"].to_numpy(zero_copy_only=False)
        n = conv.size
        new_run = np.ones(n, bool)
        if n > 1:
            new_run[1:] = (conv[1:] != conv[:-1]) | (turn[1:] != turn[:-1])
        starts = np.nonzero(new_run)[0]
        counts = np.diff(np.append(starts, n))
        run_of = np.repeat(np.arange(starts.size), counts)
        n0 = np.add.reduceat((side == 0).astype(np.int64), starts)
        n1 = counts - n0
        # src rows sort first within a run; the run's reference text is the
        # first row IF it is a src row
        has_src = side[starts] == 0
        is_idx = side == 1
        ref_ok = has_src[run_of]
        mism_rows = is_idx & (~ref_ok | (text != text[starts[run_of]]))
        run_bad = (
            np.bincount(run_of, weights=mism_rows.astype(np.float64), minlength=starts.size)
            > 0
        )
        ex = [(str(conv[i]), int(turn[i])) for i in starts[run_bad][:3]]
        return pa.table(
            {
                "checked": pa.array([int(n1.sum())], pa.int64()),
                "src_rows": pa.array([int(n0.sum())], pa.int64()),
                "mismatch_rows": pa.array([int(mism_rows.sum())], pa.int64()),
                "dup_idx_keys": pa.array([int(np.maximum(n1 - 1, 0).sum())], pa.int64()),
                "dup_src_keys": pa.array([int(np.maximum(n0 - 1, 0).sum())], pa.int64()),
                "examples": pa.array([json.dumps(ex)], pa.string()),
            }
        )

    rep = shard_groups(src.union(idx), "conv_id", check).to_pandas()
    src_rows = int(rep["src_rows"].sum())
    checked = int(rep["checked"].sum())
    dup_src = int(rep["dup_src_keys"].sum())
    mism = int(rep["mismatch_rows"].sum())
    dup_idx = int(rep["dup_idx_keys"].sum())
    examples = [e for s in rep["examples"] for e in json.loads(s)]
    if dup_src:
        raise AssertionError(f"source has duplicate (conv_id, turn_idx) keys: {dup_src}")
    if mism:
        raise AssertionError(f"text mismatch for {mism} keys, e.g. {examples[:3]}")
    if dup_idx:
        raise AssertionError(f"{dup_idx} duplicate indexed keys")
    if checked != src_rows:
        raise AssertionError(f"indexed row count {checked} != source rows {src_rows}")
    return {"checked": checked, "source_rows": src_rows, "equal": True}


def build_index_local(
    table: pa.Table,
    index_dir: str,
    cfg: IndexConfig | None = None,
    num_partitions: int = 1,
    crypto=None,
) -> dict:
    """Pure-local (no Ray) build over an in-memory table — unit-test and
    golden-fixture path; byte-identical segment layout to the Ray path."""
    cfg = cfg or IndexConfig()
    metas = [
        _write_part(index_dir, cfg, rows, p, num_partitions, "seg-", {"input": None}, crypto)
        for p, rows in enumerate(_split(table, num_partitions))
        if rows is not None
    ]
    return commit_manifest(
        index_dir,
        metas,
        cfg.to_json(),
        lineage={"input": {"files": None}, "num_partitions": num_partitions,
                 "built_partitions": [m["lineage"]["partition"] for m in metas]},
        metrics={"docs_count": sum(m["docs_count"] for m in metas), "segments": len(metas)},
    )
