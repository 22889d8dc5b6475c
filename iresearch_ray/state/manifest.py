"""Index manifest — the index_meta / two-phase-commit analog (SURVEY §2.3, §4.3).

Layout:

    index_dir/
      manifest.json                     # current generation (atomic swap)
      manifest-g{N}.json                # immutable per-generation snapshots
      segments/seg-*/…                  # immutable segment dirs
      _tmp/…                           # staged writes

``manifest.json`` is only ever replaced via write-temp + ``os.rename`` —
readers always see a complete generation (ref: index_writer start()/finish()
two-phase commit).  Each generation records the live segment list, lineage
(which input partitions / parent segments produced each segment) and build
metrics per partition (B north_rule: "checkpoints per-partition segment
lineage and build metrics for resumable builds").
"""

from __future__ import annotations

import itertools
import json
import os
import time


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_TMP_SEQ = itertools.count()


def _atomic_write_json(path: str, obj: dict, exclusive: bool = False) -> None:
    # tmp name must be unique PER CALL, not per process: two threads of one
    # committer process sharing a pid-only tmp can interleave — the winner
    # may hard-link the loser's half-written bytes into the published
    # generation file.  pid + in-process counter makes each call's staging
    # file private.
    tmp = f"{path}.tmp.{os.getpid()}.{next(_TMP_SEQ)}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    if exclusive:
        # publish-once: a concurrent committer racing to the same generation
        # must FAIL LOUDLY, not silently clobber (single-writer discipline
        # is the contract; this turns a violation into an error)
        try:
            os.link(tmp, path)
        except FileExistsError:
            os.unlink(tmp)
            raise RuntimeError(
                f"manifest generation conflict: {os.path.basename(path)} already "
                "committed by a concurrent writer — reload the manifest and retry"
            ) from None
        os.unlink(tmp)
    else:
        os.rename(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")  # persist the rename itself


def load_manifest(index_dir: str) -> dict | None:
    path = os.path.join(index_dir, "manifest.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def commit_manifest(
    index_dir: str,
    segments: list[dict],
    config: dict,
    lineage: dict | None = None,
    metrics: dict | None = None,
    tombstones: list[str] | None = None,
) -> dict:
    """Publish a new generation (the commit() analog).  ``segments`` is the
    full live list of segment meta entries, in stable (name) order.
    ``tombstones`` is the live list of tombstone parquet file names (under
    index_dir/tombstones/) — the document-mask side files (SURVEY §2.3);
    None inherits the previous generation's list."""
    prev = load_manifest(index_dir)
    # next generation = 1 + max(published pointer, any on-disk generation
    # file): after a crash between the g-file and the manifest.json pointer
    # (or a deleted pointer), recovery must not re-claim an existing
    # generation number — the exclusive create below would refuse it
    disk_gen = 0
    if os.path.isdir(index_dir):
        for f in os.listdir(index_dir):
            if f.startswith("manifest-g") and f.endswith(".json"):
                try:
                    disk_gen = max(disk_gen, int(f[len("manifest-g"):-len(".json")]))
                except ValueError:
                    pass
    gen = max(prev["generation"] if prev else 0, disk_gen) + 1
    if tombstones is None:
        tombstones = (prev or {}).get("tombstones", [])
    manifest = {
        "generation": gen,
        "committed_at": time.time(),
        "config": config,
        "segments": sorted(segments, key=lambda s: s["name"]),
        "docs_count": sum(s["docs_count"] for s in segments),
        "tombstones": sorted(
            tombstones,
            key=lambda e: (e["file"], str(e["segments"])) if isinstance(e, dict) else (e, ""),
        ),
        "lineage": lineage or {},
        "metrics": metrics or {},
    }
    os.makedirs(index_dir, exist_ok=True)
    _atomic_write_json(
        os.path.join(index_dir, f"manifest-g{gen}.json"), manifest, exclusive=True
    )
    _atomic_write_json(os.path.join(index_dir, "manifest.json"), manifest)
    return manifest


def segment_dirs(index_dir: str, manifest: dict) -> list[str]:
    return [
        os.path.join(index_dir, "segments", s["name"]) for s in manifest["segments"]
    ]


def completed_segments(index_dir: str) -> dict[str, dict]:
    """Scan segments/ for completed (meta.json present) segment dirs —
    the resume detection path (SURVEY §4.3: crash mid-build leaves only
    _tmp garbage; completed dirs are detected here and skipped)."""
    seg_root = os.path.join(index_dir, "segments")
    out: dict[str, dict] = {}
    if not os.path.isdir(seg_root):
        return out
    for name in os.listdir(seg_root):
        meta_path = os.path.join(seg_root, name, "meta.json")
        if os.path.exists(meta_path):
            try:
                with open(meta_path) as f:
                    out[name] = json.load(f)
            except (OSError, json.JSONDecodeError):
                continue
    return out


def gc_segments(index_dir: str, manifest: dict) -> list[str]:
    """Remove segment dirs not referenced by the current generation
    (post-consolidation garbage collection; grace handling is the caller's
    concern — SURVEY §3.3), and evict their readers from the process-level
    reader cache.  A Searcher that ran a query before the gc keeps the
    readers it holds; their docs files stay open, so it still reads docs
    columns it had not loaded after the unlink."""
    import shutil

    from iresearch_ray.stages.segment import evict_readers

    live = {s["name"] for s in manifest["segments"]}
    removed = []
    seg_root = os.path.join(index_dir, "segments")
    if not os.path.isdir(seg_root):
        return removed
    for name in os.listdir(seg_root):
        if name not in live:
            shutil.rmtree(os.path.join(seg_root, name), ignore_errors=True)
            removed.append(name)
    evict_readers([os.path.join(seg_root, name) for name in removed])
    # stale per-generation stats caches go with their generations
    # (not counted in the returned segment list): a driver-merged file or a
    # Ray-merged directory of files
    gen = manifest.get("generation")
    live_stats = {f"stats-g{gen}.parquet", f"stats-g{gen}.statsd"}
    for f in os.listdir(index_dir):
        if f.startswith("stats-g") and f not in live_stats:
            p = os.path.join(index_dir, f)
            if f.endswith(".statsd"):
                shutil.rmtree(p, ignore_errors=True)
            elif f.endswith(".parquet"):
                try:
                    os.unlink(p)
                except OSError:
                    pass
    return removed
