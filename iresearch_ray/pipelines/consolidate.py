"""Consolidation pipeline — SURVEY.md §3.3 (entry point 3).

driver reads manifest → policy (pure python over segment metas) picks
candidate sets → one Ray task per set runs the blob-concat merge
(stages/merge.py) → driver swaps manifest entries atomically
(generation+1) with ``{merged_from: [...]}`` lineage → optional GC of
now-unreferenced segment dirs (readers pin by generation; default off).

Old generations remain readable until gc: a Searcher opened before the
swap keeps serving its snapshot (segment dirs are immutable).
"""

from __future__ import annotations

import itertools
import json
import os

from iresearch_ray.stages.merge import merge_segments
from iresearch_ray.state.manifest import commit_manifest, gc_segments, load_manifest
from iresearch_ray.state.policy import POLICIES


# tier sets hold at most MAX_SEGMENTS_PER_TIER = 10 segments, so only the
# count / bytes / docs_* policies reach the shuffle merge by width
WIDE_SET_THRESHOLD = 16  # candidate sets wider than this use the salted shuffle merge
# ... or HEAVIER than this: a 2-way merge of two multi-GB segments is one
# task doing a single-threaded mega-merge + write — the shuffle engine
# spreads it across the cluster (epoch-compaction tail rounds are exactly
# this shape: few very large segments)
WIDE_BYTES_THRESHOLD = 1 << 30

# ray.remote wrappers are cached per-process: re-wrapping on every
# consolidation round mints a new function id, forcing Ray to re-export
# the pickled definition to every worker each round (repeat=True runs
# several rounds back-to-back — the export round-trips were pure
# scheduling overhead in the consolidate wall/CPU gap)
_REMOTE_CACHE: dict = {}


# staging-name uniqueness: pid alone is not enough — same-process
# concurrent writers to one target would share (and interleave in) a
# pid-only staging path; see state/manifest.py:_atomic_write_json
_STAGE_SEQ = itertools.count()


def _remote(fn):
    import ray

    r = _REMOTE_CACHE.get(fn)
    if r is None:
        r = _REMOTE_CACHE[fn] = ray.remote(num_cpus=1)(fn)
    return r


def consolidate(
    index_dir: str,
    policy: str = "tier",
    policy_kwargs: dict | None = None,
    gc: bool = False,
    repeat: bool = False,
    crypto=None,
) -> dict:
    """Run one (or, with ``repeat``, successive) consolidation rounds.
    Returns the latest manifest (unchanged if the policy found nothing)."""
    manifest = load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    pick = POLICIES[policy]
    while True:
        segs = manifest["segments"]
        if manifest.get("tombstones"):
            # annotate live-doc counts so docs_fill/docs_live policies see
            # deletion pressure (SURVEY §2.3 consolidation policies);
            # tombstone scope is per segment (update = delete + re-insert).
            # One vectorized membership probe per segment, fanned out as Ray
            # tasks when a session exists — the driver only touches metadata
            # (VERDICT r3 #1: the old path zip'd to_pylist() of every doc
            # table through a Python loop on the driver).
            from iresearch_ray.pipelines.delete import _entries, segment_dead_count

            ent = _entries(manifest)
            segs = [dict(s) for s in segs]
            jobs = []  # (seg dict, scoped tombstone files)
            for sm in segs:
                sm["live_docs"] = sm["docs_count"]
                files = sorted({e["file"] for e in ent if sm["name"] in e["segments"]})
                if files:
                    jobs.append((sm, files))
            if jobs:
                try:
                    import ray

                    have_ray = ray.is_initialized()
                except Exception:
                    have_ray = False
                if have_ray and len(jobs) > 1:
                    rdc = _remote(segment_dead_count)
                    counts = ray.get(
                        [rdc.remote(index_dir, sm["name"], fs, crypto) for sm, fs in jobs]
                    )
                else:
                    counts = [
                        segment_dead_count(index_dir, sm["name"], fs, crypto)
                        for sm, fs in jobs
                    ]
                for (sm, _fs), dead in zip(jobs, counts):
                    sm["live_docs"] = sm["docs_count"] - dead
        sets = pick(segs, **(policy_kwargs or {}))
        # singleton sets are meaningful ONLY as purge rewrites (deletion
        # pressure); a 1-segment merge with nothing to purge is a no-op and,
        # under repeat=True, an infinite loop — drop it
        live = {sm["name"]: sm.get("live_docs", sm["docs_count"]) for sm in segs}
        total = {sm["name"]: sm["docs_count"] for sm in segs}
        sets = [
            s
            for s in sets
            if len(s) >= 2 or (len(s) == 1 and live.get(s[0], 1) < total.get(s[0], 1))
        ]
        if not sets:
            return _maybe_clear_tombstones(index_dir, manifest)
        gen = manifest["generation"]
        sizes = {sm["name"]: sm.get("bytes", 0) for sm in manifest["segments"]}
        merged_metas = _run_merges(index_dir, sets, gen, sizes, crypto)
        merged_away = {n for s in sets for n in s}
        survivors = [s for s in manifest["segments"] if s["name"] not in merged_away]
        manifest = commit_manifest(
            index_dir,
            survivors + merged_metas,
            manifest["config"],
            lineage={
                **manifest.get("lineage", {}),
                "consolidations": manifest.get("lineage", {}).get("consolidations", [])
                + [
                    {"merged_from": s, "into": m["name"], "generation": gen + 1}
                    for s, m in zip(sets, merged_metas)
                ],
            },
            metrics={
                "docs_count": sum(
                    s["docs_count"] for s in survivors + merged_metas
                ),
                "segments": len(survivors) + len(merged_metas),
                "merge_secs": {
                    m["name"]: m["metrics"].get("merge_secs") for m in merged_metas
                },
            },
        )
        if gc:
            gc_segments(index_dir, manifest)
        if not repeat:
            return _maybe_clear_tombstones(index_dir, manifest)


def import_index(index_dir: str, other_index_dir: str) -> dict:
    """Bulk-attach another index's segments as new segments of this index
    (ref: index_writer::import — SURVEY §2.3).  Segment dirs are copied
    (immutable, content-named ⇒ collision-free); configs must match."""
    import shutil

    dst = load_manifest(index_dir)
    src = load_manifest(other_index_dir)
    if dst is None or src is None:
        raise FileNotFoundError("both indexes need a manifest")
    if dst["config"] != src["config"]:
        raise ValueError("import requires identical index configs")
    dst_names = {s["name"] for s in dst["segments"]}
    imported = []
    for sm in src["segments"]:
        name = sm["name"]
        if name in dst_names:
            continue  # content-named: identical segment already present
        s_dir = os.path.join(other_index_dir, "segments", name)
        d_dir = os.path.join(index_dir, "segments", name)
        if not os.path.isdir(d_dir):
            tmp = d_dir + f".tmp.{os.getpid()}.{next(_STAGE_SEQ)}"
            shutil.copytree(s_dir, tmp)
            os.rename(tmp, d_dir)
        imported.append(sm)
    from iresearch_ray.pipelines.delete import _entries

    merged = {json.dumps(e, sort_keys=True) for e in _entries(dst)} | {
        json.dumps(e, sort_keys=True) for e in _entries(src)
    }
    tomb = sorted((json.loads(e) for e in merged), key=lambda e: (e["file"], str(e["segments"])))
    for e in _entries(src):
        sp = os.path.join(other_index_dir, "tombstones", e["file"])
        dp = os.path.join(index_dir, "tombstones", e["file"])
        if os.path.exists(sp) and not os.path.exists(dp):
            os.makedirs(os.path.dirname(dp), exist_ok=True)
            shutil.copyfile(sp, dp)
    return commit_manifest(
        index_dir,
        dst["segments"] + imported,
        dst["config"],
        lineage={
            **dst.get("lineage", {}),
            "imported_from": other_index_dir,
            "imported_segments": [m["name"] for m in imported],
        },
        metrics=dst.get("metrics", {}),
        tombstones=tomb,
    )


def _maybe_clear_tombstones(index_dir: str, manifest: dict) -> dict:
    """Prune tombstone entries whose entire SCOPE was merged away (a merged
    segment gets a new name, so scoped entries die with their sources) —
    keeps steady-state queries mask-free without scanning any parquet."""
    if not manifest.get("tombstones"):
        return manifest
    from iresearch_ray.pipelines.delete import _entries

    live_names = {s["name"] for s in manifest["segments"]}
    kept = [e for e in _entries(manifest) if set(e["segments"]) & live_names]
    if len(kept) == len(manifest["tombstones"]):
        return manifest
    return commit_manifest(
        index_dir,
        manifest["segments"],
        manifest["config"],
        lineage={**manifest.get("lineage", {}), "tombstones_pruned": True},
        metrics=manifest.get("metrics", {}),
        tombstones=kept,
    )


def _run_merges(
    index_dir: str,
    sets: list[list[str]],
    generation: int,
    sizes: dict[str, int] | None = None,
    crypto=None,
) -> list[dict]:
    """Fan candidate sets out as Ray tasks when a session exists (each merge
    is independent); WIDE sets — by member count OR total bytes — take the
    salted term-shuffle merge with its distributed segment write (SURVEY
    §4.1 hot-term skew), narrow sets the one-task k-way blob concat."""
    try:
        import ray

        have_ray = ray.is_initialized()
    except Exception:
        have_ray = False
    sizes = sizes or {}

    def is_wide(s: list[str]) -> bool:
        if crypto is not None:
            # the shuffle merge streams segment pages through
            # ray.data.read_parquet, which has no dataset-level decryption
            # in this pyarrow — encrypted indexes take the task merge
            # (SegmentReader decrypts); revisit when pyarrow exposes
            # ParquetFragmentScanOptions(decryption_properties=...)
            return False
        return (
            len(s) > WIDE_SET_THRESHOLD
            or sum(sizes.get(n, 0) for n in s) > WIDE_BYTES_THRESHOLD
        )

    wide = [s for s in sets if have_ray and is_wide(s)]
    narrow = [s for s in sets if s not in wide]
    out: list[dict] = []
    if narrow:
        if have_ray:
            # ALWAYS as tasks, even a single set: workers run with allocator
            # retention (runtime.py), so a merge's allocation burst reuses
            # pages earlier tasks faulted, and the driver stays free for
            # metadata.
            remote_merge = _remote(merge_segments)
            out += ray.get(
                [remote_merge.remote(index_dir, s, generation, crypto) for s in narrow]
            )
        else:
            out += [merge_segments(index_dir, s, generation, crypto) for s in narrow]
    for s in wide:  # shuffle merges drive the whole cluster — run serially
        from iresearch_ray.stages.shuffle_merge import merge_segments_shuffle

        out.append(merge_segments_shuffle(index_dir, s, generation))
    return out


def snapshot_index(index_dir: str, dest_dir: str, hardlink: bool = True) -> dict:
    """Consistent point-in-time copy of the CURRENT generation (the
    iresearch/ArangoSearch directory-snapshot analog): read the manifest
    once, then materialize exactly the files that generation references —
    live segment dirs, its tombstone parquets, its stats cache — plus the
    generation file and pointer, into ``dest_dir`` (a fully functional
    standalone index).

    Every referenced file is IMMUTABLE once published (segments and
    tombstones are content-named, manifests are publish-once), so the copy
    is consistent without locking against concurrent WRITERS; only
    concurrent ``gc_segments`` can race it (same grace discipline as
    readers — SURVEY §3.3).  With ``hardlink=True`` (same filesystem) the
    snapshot is metadata-only — O(#files) link calls, zero data copied —
    which is what makes per-epoch snapshots of a 100 TB index affordable;
    ``hardlink=False`` falls back to byte copies (cross-device)."""
    import shutil

    from iresearch_ray.pipelines.delete import _entries
    from iresearch_ray.state.manifest import _atomic_write_json

    man = load_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    if os.path.exists(os.path.join(dest_dir, "manifest.json")):
        raise FileExistsError(f"{dest_dir} already holds an index")
    os.makedirs(dest_dir, exist_ok=True)

    def _put(src: str, dst: str) -> None:
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        if hardlink:
            try:
                os.link(src, dst)
                return
            except OSError:  # cross-device / fs without hard links
                pass
        shutil.copyfile(src, dst)

    for sm in man["segments"]:
        s_dir = os.path.join(index_dir, "segments", sm["name"])
        for f in os.listdir(s_dir):
            _put(os.path.join(s_dir, f), os.path.join(dest_dir, "segments", sm["name"], f))
    for e in _entries(man):
        sp = os.path.join(index_dir, "tombstones", e["file"])
        if os.path.exists(sp):
            _put(sp, os.path.join(dest_dir, "tombstones", e["file"]))
    gen = man["generation"]
    stats = os.path.join(index_dir, f"stats-g{gen}.parquet")
    if os.path.exists(stats):
        _put(stats, os.path.join(dest_dir, f"stats-g{gen}.parquet"))
    statsd = os.path.join(index_dir, f"stats-g{gen}.statsd")  # sharded variant
    if os.path.isdir(statsd):
        for f in os.listdir(statsd):
            _put(os.path.join(statsd, f), os.path.join(dest_dir, f"stats-g{gen}.statsd", f))
    # publish LAST, after every referenced byte exists in the snapshot
    _atomic_write_json(os.path.join(dest_dir, f"manifest-g{gen}.json"), man, exclusive=True)
    _atomic_write_json(os.path.join(dest_dir, "manifest.json"), man)
    return man
