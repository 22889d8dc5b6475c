"""Deletes — the document-mask / remove-by-filter analog (SURVEY §2.3;
ref: core/index/index_writer.cpp documents().remove(filter), document_mask).

A delete is a TOMBSTONE parquet of (conv_id, turn_idx) keys committed as a
new manifest generation, encrypted like the segments on an encrypted index
— segments are immutable, exactly like the reference's bitset side files.
Query time applies the mask per segment (docs excluded from iteration;
term stats keep counting them until a merge, matching the reference).
Consolidation PURGES masked docs: when any merge candidate contains
tombstoned keys the merge rebuilds the new segment from the stored doc rows
instead of blob-concat (requires ``store_text=True``).
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray.state.crypto import parquet_file_any, read_parquet_any, require_key
from iresearch_ray.state.manifest import commit_manifest, load_manifest

TOMBSTONE_SCHEMA = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32())])


# staging-name uniqueness: pid alone is not enough — same-process
# concurrent writers to one target would share (and interleave in) a
# pid-only staging path; see state/manifest.py:_atomic_write_json
_STAGE_SEQ = itertools.count()


def _keys_table(keys: pa.Table | list[tuple[str, int]]) -> pa.Table:
    if isinstance(keys, pa.Table):
        return pa.table(
            {
                "conv_id": keys["conv_id"].cast(pa.string()),
                "turn_idx": keys["turn_idx"].cast(pa.int32()),
            }
        )
    return pa.table(
        {
            "conv_id": pa.array([k[0] for k in keys], pa.string()),
            "turn_idx": pa.array([k[1] for k in keys], pa.int32()),
        }
    )


def _write_tombstone(index_dir: str, t: pa.Table, crypto=None) -> str:
    """Write a tombstone parquet under a CONTENT name and return it.
    sha256-derived (not crc32): a 32-bit name collision between two
    different key sets would silently drop the second delete — the
    existence check must only ever hit for identical content.  With
    ``crypto`` the file is encrypted and the name is an HMAC under the
    master key, so it cannot confirm a guessed key set."""
    import hashlib
    import hmac

    tdir = os.path.join(index_dir, "tombstones")
    os.makedirs(tdir, exist_ok=True)
    if crypto is None:
        h = hashlib.sha256()
    else:
        h = hmac.new(crypto.master_key, digestmod=hashlib.sha256)
    h.update(str(t.num_rows).encode())
    for c, i in zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()):
        h.update(f"{c}\x01{i}\x00".encode())
    name = f"ts-{h.hexdigest()[:16]}.parquet"
    path = os.path.join(tdir, name)
    if not os.path.exists(path):  # idempotent (content name)
        tmp = f"{path}.tmp.{os.getpid()}.{next(_STAGE_SEQ)}"
        if crypto is None:
            pq.write_table(t, tmp)
        else:
            crypto.write_table(t, tmp)
        # fsync file + dir before/after the publishing rename: the manifest
        # commit is fsynced, so a committed generation must never reference
        # a tombstone whose contents could be lost behind it on power loss
        # (same durability contract as write_segment / _atomic_write_json)
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.rename(tmp, path)
        dfd = os.open(tdir, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    return name


def delete_keys(index_dir: str, keys: pa.Table | list[tuple[str, int]], crypto=None) -> dict:
    """Tombstone explicit (conv_id, turn_idx) keys; returns the new manifest.
    An encrypted index needs its ``crypto``: the tombstone is written with it."""
    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    require_key(manifest, crypto)
    t = _keys_table(keys)
    if t.num_rows == 0:
        return manifest
    name = _write_tombstone(index_dir, t, crypto)
    scope = sorted(sm["name"] for sm in manifest["segments"])
    entry = {"file": name, "segments": scope}
    live = [e for e in _entries(manifest)]
    if not any(e["file"] == name and e["segments"] == scope for e in live):
        live.append(entry)
    live = sorted(live, key=lambda e: (e["file"], e["segments"]))
    return commit_manifest(
        index_dir,
        manifest["segments"],
        manifest["config"],
        lineage={**manifest.get("lineage", {}), "last_delete": name},
        metrics={
            **manifest.get("metrics", {}),
            "tombstoned_keys": _count_keys(index_dir, sorted({e["file"] for e in live}), crypto),
        },
        tombstones=live,
    )


def _entries(manifest: dict) -> list[dict]:
    """Normalize tombstone entries: each is {"file", "segments"(scope)}.
    The scope records which segments were live when the delete was issued —
    a re-inserted key in a LATER segment (update = delete + insert) is not
    masked, matching the reference's per-segment document masks."""
    out = []
    for e in manifest.get("tombstones", []):
        if isinstance(e, str):  # legacy global-scope entry
            out.append({"file": e, "segments": [s["name"] for s in manifest["segments"]]})
        else:
            out.append(e)
    return out


def delete_by_filter(index_dir: str, flt, crypto=None) -> dict:
    """remove(filter) analog: evaluate the filter against the CURRENT
    snapshot and tombstone EVERY matching key in one transaction — a
    dedicated match-keys scan (no scoring, no top-k cap: the old k-capped
    path silently left matches beyond the cap undeleted)."""
    from iresearch_ray.pipelines.search import Searcher
    from iresearch_ray.query.exec import eval_node

    s = Searcher(index_dir, crypto=crypto)
    plan = s.prepare(flt).plan
    keys: list[tuple[str, int]] = []
    shard = s._shard()
    for r, dmask in zip(shard.readers, shard.deleted):
        docs, _scores = eval_node(r, plan["root"], plan["scorer"], dmask)
        # eval_node only honors the mask for Nested — drop already-tombstoned
        # matches here so tombstone files stop accumulating dead keys
        # (output was unchanged either way; this enforces the masking intent)
        if dmask is not None and docs.size:
            docs = docs[~dmask[docs - 1]]
        if docs.size:
            conv_all, turn_all = r.doc_keys
            keys += list(zip(conv_all[docs - 1].tolist(),
                             (int(x) for x in turn_all[docs - 1])))
    return delete_keys(index_dir, keys, crypto)


def _count_keys(index_dir: str, names: list[str], crypto=None) -> int:
    return sum(
        parquet_file_any(os.path.join(index_dir, "tombstones", n), crypto).metadata.num_rows
        for n in names
    )


def load_tombstone_keys(
    index_dir: str, manifest: dict, for_segment: str | None = None, crypto=None
) -> set[tuple[str, int]]:
    """Tombstoned keys applying to ``for_segment`` (or the union over all
    scopes when None), deduped across files."""
    out: set[tuple[str, int]] = set()
    for e in _entries(manifest):
        if for_segment is not None and for_segment not in e["segments"]:
            continue
        t = read_parquet_any(os.path.join(index_dir, "tombstones", e["file"]), crypto)
        out.update(zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()))
    return out


def update_rows(index_dir: str, rows: pa.Table, num_partitions: int = 1, crypto=None) -> dict:
    """Update = delete + re-insert in ONE committed generation (ref:
    index_writer: update is remove(filter)+insert in a single trx).
    ``rows`` are full replacement turns (transcript schema), split into
    ``num_partitions`` replacement segments by hash(conv_id).  The delete is
    scoped to the segments live BEFORE the update, so the freshly-built
    segment's copies stay visible."""
    from iresearch_ray.pipelines.build import hash_partition
    from iresearch_ray.stages.segment import (
        IndexConfig,
        build_segment_tables,
        segment_content_key,
        write_segment,
    )

    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    require_key(manifest, crypto)
    cfg = IndexConfig.from_json(manifest["config"])
    scope = sorted(sm["name"] for sm in manifest["segments"])

    # 1) tombstone the replaced keys against the pre-update segments
    keys = _keys_table(rows.select(["conv_id", "turn_idx"]))
    fname = _write_tombstone(index_dir, keys, crypto)

    # 2) build the replacement segment(s) from the new rows, split by
    # hash(conv_id) into num_partitions segments (same rule as the build)
    gen = manifest["generation"] + 1
    part = hash_partition(rows["conv_id"].to_pylist(), max(1, num_partitions))
    metas = []
    for p_idx in range(max(1, num_partitions)):
        import numpy as _np

        sel = _np.flatnonzero(part == p_idx)
        if sel.size == 0:
            continue
        sub = rows.take(pa.array(sel))
        name = f"seg-u{gen:04d}-p{p_idx:03d}-{segment_content_key(sub, cfg, crypto)}"
        terms, docs, field_stats = build_segment_tables(sub, cfg)
        metas.append(
            write_segment(
                index_dir,
                name,
                terms,
                docs,
                field_stats,
                cfg,
                lineage={"update": True, "rows": sub.num_rows,
                         "partition": p_idx, "of_partitions": max(1, num_partitions)},
                metrics={},
                crypto=crypto,
            )
        )

    # 3) one atomic commit with both effects
    entry = {"file": fname, "segments": scope}
    live = _entries(manifest)
    if not any(e["file"] == fname and e["segments"] == scope for e in live):
        live = live + [entry]
    return commit_manifest(
        index_dir,
        manifest["segments"] + metas,
        manifest["config"],
        lineage={**manifest.get("lineage", {}),
                 "last_update": [m["name"] for m in metas]},
        metrics=manifest.get("metrics", {}),
        tombstones=sorted(live, key=lambda e: (e["file"], str(e["segments"]))),
    )


def _combined_keys(conv, turn) -> pa.ChunkedArray:
    """(conv_id, turn_idx) → one binary key per row, vectorized (the \\x01
    separator cannot occur inside a turn_idx decimal, so the mapping is
    injective for any conv_id)."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(
        pc.cast(conv, pa.string()),
        pc.cast(pc.cast(turn, pa.int64()), pa.string()),
        "\x01",
    )


def segment_dead_count(
    index_dir: str, seg_name: str, tomb_files: list[str], crypto=None
) -> int:
    """Tombstoned-row count for one segment, fully vectorized (pc.is_in hash
    probe — no Python row loop) and self-contained so consolidation can fan
    it out as one Ray task per segment (VERDICT r3 finding #1)."""
    if not tomb_files:
        return 0
    import pyarrow.compute as pc

    from iresearch_ray.stages.segment import docs_paths

    tomb = pa.concat_tables(
        read_parquet_any(os.path.join(index_dir, "tombstones", f), crypto) for f in tomb_files
    )
    # is_in is set membership: duplicate keys across tombstone files can't
    # double-count a doc row, so no explicit dedupe pass is needed
    vs = _combined_keys(tomb["conv_id"], tomb["turn_idx"]).combine_chunks()
    dead = 0
    for p in docs_paths(os.path.join(index_dir, "segments", seg_name)):
        t = read_parquet_any(p, crypto, columns=["conv_id", "turn_idx"])
        k = _combined_keys(t["conv_id"], t["turn_idx"])
        dead += int(pc.sum(pc.is_in(k, value_set=vs)).as_py() or 0)
    return dead


def segment_deleted_mask(index_dir: str, manifest: dict, seg_dir: str, reader, crypto=None):
    """Deleted-doc mask of the segment at ``seg_dir`` (a path or a bare
    segment name): the tombstone keys of ``manifest`` scoped to that
    segment, probed against ``reader``'s docs.  None when none applies."""
    if not manifest.get("tombstones"):
        return None
    name = os.path.basename(seg_dir.rstrip("/"))
    keys = load_tombstone_keys(index_dir, manifest, for_segment=name, crypto=crypto)
    return deleted_doc_mask(reader, keys)


def deleted_doc_mask(reader, keys: set[tuple[str, int]]) -> np.ndarray | None:
    """Boolean mask over the reader's doc space (index doc_id-1): True =
    deleted.  None when no key touches this segment.  Membership test is a
    vectorized pc.is_in hash probe (driver cost O(|keys|) to build the value
    set, not O(docs))."""
    if not keys:
        return None
    import pyarrow.compute as pc

    vs = _combined_keys(
        pa.array([k[0] for k in keys], pa.string()),
        pa.array([int(k[1]) for k in keys], pa.int64()),
    )
    k = _combined_keys(reader.doc_column("conv_id"), reader.doc_column("turn_idx"))
    mask = pc.is_in(k, value_set=vs).to_numpy(zero_copy_only=False)
    return mask if mask.any() else None
