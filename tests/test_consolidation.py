"""Consolidation lifecycle — SURVEY §5.2 item 7: index in many segments,
consolidate to fewer, query results INVARIANT (scores exact), lineage
recorded, old dirs GC-able."""

import itertools
import os

import numpy as np
import pandas as pd
import pytest

from iresearch_ray.pipelines.build import build_index_local
from iresearch_ray.pipelines.consolidate import consolidate
from iresearch_ray.pipelines.search import Searcher
from iresearch_ray.query import filters as F
from iresearch_ray.query.oracle import BruteForceOracle
from iresearch_ray.sources.transcripts import gen_transcripts
from iresearch_ray.state.manifest import load_manifest

QUERIES = [
    F.Term("text", "the"),
    F.Term("text", "agent"),
    F.Or((F.Term("text", "error"), F.Term("text", "plan"), F.Term("text", "w0004"))),
    F.And((F.Term("text", "the"), F.Term("text", "a"))),
    F.Phrase("text", ("the", "a")),
    F.Prefix("text", "w00"),
    F.Term("role", "assistant"),
    F.Not(F.Term("text", "the"), F.Term("text", "agent")),
]


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    tbl = gen_transcripts(150)
    d = str(tmp_path_factory.mktemp("cons_idx"))
    build_index_local(tbl, d, num_partitions=8)
    before = [Searcher(d).search_local(q, k=20) for q in QUERIES]
    return d, tbl, before


def test_count_policy_merges_all(setup):
    d, tbl, before = setup
    m0 = load_manifest(d)
    assert len(m0["segments"]) == 8
    m1 = consolidate(d, policy="count", policy_kwargs={"threshold": 2})
    assert len(m1["segments"]) == 1
    assert m1["generation"] == m0["generation"] + 1
    lin = m1["lineage"]["consolidations"][-1]
    assert len(lin["merged_from"]) == 8 and lin["into"] == m1["segments"][0]["name"]
    # docs preserved
    assert m1["docs_count"] == m0["docs_count"]


def test_results_invariant_after_merge(setup):
    d, tbl, before = setup
    s = Searcher(d)  # fresh snapshot = post-consolidation generation
    assert len(s.manifest["segments"]) == 1
    oracle = BruteForceOracle(tbl)
    for q, b in zip(QUERIES, before):
        after = s.search_local(q, k=20)
        pd.testing.assert_frame_equal(after, b)
        want = oracle.search(q, k=20)
        assert list(zip(after["conv_id"], after["turn_idx"].astype(int))) == list(
            zip(want["conv_id"], want["turn_idx"].astype(int))
        )
        np.testing.assert_allclose(
            after["score"].to_numpy(dtype=float),
            want["score"].to_numpy(dtype=float),
            atol=1e-6,
            rtol=0,
        )


def test_tier_policy_shape():
    from iresearch_ray.state.policy import tier

    segs = [{"name": f"s{i}", "bytes": b} for i, b in enumerate([100, 120, 110, 90, 50_000_000])]
    sets = tier(segs, floor_segment_bytes=64)
    assert len(sets) == 1
    # the four similar-sized tiny segments merge; the big one is left alone
    assert sorted(sets[0]) == ["s0", "s1", "s2", "s3"]


_MERGE_IDS = itertools.count()


def _tier_fixpoint(live: dict[str, int]) -> int:
    """Apply tier() sets until it picks nothing, as consolidate(repeat=True)
    does; a merged segment's size is the sum of its inputs.  Mutates
    ``live`` (name -> bytes) and returns the bytes written."""
    from iresearch_ray.state.policy import tier

    written = 0
    while sets := tier([{"name": n, "bytes": b} for n, b in live.items()]):
        for s in sets:
            merged = sum(live.pop(n) for n in s)
            live[f"m{next(_MERGE_IDS)}"] = merged
            written += merged
    return written


def test_tier_replay_bounded_write_amplification():
    """1000 equal 1 MB appends into an empty index, each followed by a
    consolidation fixpoint: similar-size tiers rewrite each byte O(log N)
    times (whole-index merges after every append would be ~500x) and the
    live segment count stays within one tier."""
    from iresearch_ray.state.policy import MAX_SEGMENTS_PER_TIER

    mb = 1 << 20
    live: dict[str, int] = {}
    written = max_live = 0
    for i in range(1000):
        live[f"a{i}"] = mb
        written += _tier_fixpoint(live)
        max_live = max(max_live, len(live))
    assert written / (1000 * mb) <= 16
    assert max_live <= MAX_SEGMENTS_PER_TIER


@pytest.mark.parametrize("n", [64, 128])
def test_tier_replay_compacts_equal_segments(n):
    """Equal-size segments (bench.py's 64-partition headline, the
    128-partition epoch compaction in tools/scale_smoke.py) still compact
    to a single segment."""
    live = {f"s{i}": 3 << 20 for i in range(n)}
    _tier_fixpoint(live)
    assert list(live.values()) == [n * (3 << 20)]


def test_tier_append_cycles_leave_large_segment(ray_session, tmp_path):
    """8 base partitions, then 4 x append_index -> consolidate(tier, gc,
    repeat).  The first cycle merges the base and the first batch into one
    large segment; later cycles leave that segment alone (same name) and
    merge only the small batches; a consolidate with nothing to merge keeps
    the generation; doc counts and top-k stay exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.pipelines.build import append_index
    from iresearch_ray.sources.transcripts import gen_transcripts_range
    from iresearch_ray.state.policy import FLOOR_SEGMENT_BYTES, MAX_SIZE_RATIO

    base_convs, batch_convs = 6000, 40
    d = str(tmp_path / "idx")
    tables = [gen_transcripts_range(0, base_convs)]
    build_index_local(tables[0], d, num_partitions=8)
    big = None
    for i in range(4):
        lo = base_convs + i * batch_convs
        tables.append(gen_transcripts_range(lo, lo + batch_convs))
        src = tmp_path / f"batch{i}"
        src.mkdir()
        pq.write_table(tables[-1], str(src / "part-00000.parquet"))
        expected = sum(t.num_rows for t in tables)
        m = append_index(str(src), d, num_partitions=1)
        assert m["metrics"]["docs_count"] == expected
        m2 = consolidate(d, policy="tier", gc=True, repeat=True)
        assert m2["metrics"]["docs_count"] == expected
        assert sum(s["docs_count"] for s in m2["segments"]) == expected
        names = {s["name"] for s in m2["segments"]}
        if i == 0:
            assert len(names) == 1
            big = m2["segments"][0]
            # the premise of the cycles below: the merged base sits more than
            # one size class above an appended batch
            assert big["bytes"] > MAX_SIZE_RATIO * FLOOR_SEGMENT_BYTES
        elif i == 1:
            # big + one small batch: nothing of similar size to merge
            assert names == {s["name"] for s in m["segments"]}
            assert m2["generation"] == m["generation"]
        else:
            # the small batches merge with each other, never into big
            assert len(names) == 2 and m2["generation"] > m["generation"]
        assert big["name"] in names

    s = Searcher(d)
    oracle = BruteForceOracle(pa.concat_tables(tables))
    for q in QUERIES:
        want = oracle.search(q, k=20)
        got = s.search_local(q, k=20)
        assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
            zip(want["conv_id"], want["turn_idx"].astype(int))
        )
        np.testing.assert_allclose(
            got["score"].to_numpy(dtype=float),
            want["score"].to_numpy(dtype=float),
            atol=1e-6,
            rtol=0,
        )


def test_gc_removes_unreferenced(setup):
    d, _, _ = setup
    m = load_manifest(d)
    live = {s["name"] for s in m["segments"]}
    seg_root = os.path.join(d, "segments")
    on_disk = set(os.listdir(seg_root))
    assert live <= on_disk and len(on_disk) > len(live)
    from iresearch_ray.state.manifest import gc_segments

    removed = gc_segments(d, m)
    assert set(os.listdir(seg_root)) == live
    assert len(removed) == len(on_disk) - len(live)


def test_gc_removes_stale_ray_merged_stats(ray_session, tmp_path, monkeypatch):
    """Stats merged by Ray (a ``stats-g{N}.statsd`` directory per
    generation) go with their generations, like the driver-merged files."""
    from iresearch_ray.state import stats as stats_mod
    from iresearch_ray.state.manifest import gc_segments

    monkeypatch.setattr(stats_mod, "RAY_MERGE_THRESHOLD", 0)
    d = str(tmp_path / "idx")
    build_index_local(gen_transcripts(40), d, num_partitions=3)
    before = Searcher(d).search_local(QUERIES[1], k=10)
    m = consolidate(d, policy="count", policy_kwargs={"threshold": 2})
    after = Searcher(d).search_local(QUERIES[1], k=10)
    pd.testing.assert_frame_equal(before, after)
    assert {f for f in os.listdir(d) if f.startswith("stats-g")} == {
        "stats-g1.statsd", f"stats-g{m['generation']}.statsd"
    }
    gc_segments(d, m)
    assert [f for f in os.listdir(d) if f.startswith("stats-g")] == [
        f"stats-g{m['generation']}.statsd"
    ]


def test_live_doc_annotation_vectorized_at_scale(ray_session, tmp_path):
    """VERDICT r3 #1: live-doc counting with tombstones present must be a
    vectorized membership probe fanned out per segment — correct at ~100k
    tombstoned docs and far faster than any per-row driver loop."""
    import time

    import pyarrow as pa

    from iresearch_ray.pipelines.delete import delete_keys, segment_dead_count
    from iresearch_ray.sources.transcripts import gen_transcripts_range

    tbl = gen_transcripts_range(0, 14000)  # ~100k+ turns
    assert tbl.num_rows > 100_000
    d = str(tmp_path / "idx")
    build_index_local(tbl, d, num_partitions=4)

    # tombstone every even turn (~half the corpus)
    keys = tbl.select(["conv_id", "turn_idx"]).filter(
        pa.compute.equal(pa.compute.bit_wise_and(tbl["turn_idx"], 1), 0)
    )
    man = delete_keys(d, keys)
    n_dead_expect = keys.num_rows

    # the per-segment kernel sums to exactly the tombstoned count
    from iresearch_ray.pipelines.delete import _entries

    ent = _entries(man)
    t0 = time.perf_counter()
    total_dead = 0
    for sm in man["segments"]:
        files = sorted({e["file"] for e in ent if sm["name"] in e["segments"]})
        total_dead += segment_dead_count(d, sm["name"], files)
    kernel_secs = time.perf_counter() - t0
    assert total_dead == n_dead_expect
    # generous wall bound for a noisy VM — the old zip(to_pylist) loop over
    # 100k docs x 50k keys took multiple seconds; the is_in probe is ~ms
    assert kernel_secs < 5.0, f"dead-count kernel too slow: {kernel_secs:.2f}s"

    # consolidation sees the deletion pressure through the same path and
    # purges: the merged index serves exactly the live rows
    man2 = consolidate(d, policy="count", policy_kwargs={"threshold": 1})
    assert sum(s["docs_count"] for s in man2["segments"]) == tbl.num_rows - n_dead_expect


def test_exclusive_publish_race_and_gen_recovery(tmp_path):
    """Single-writer discipline: racing committers to one generation file
    must yield EXACTLY one winner (hard-link create is the arbiter), and a
    stray on-disk generation file (crash between g-file and pointer) must
    push the next commit PAST it, never re-claim it."""
    import json
    from concurrent.futures import ThreadPoolExecutor

    from iresearch_ray.state.manifest import _atomic_write_json, commit_manifest

    d = str(tmp_path / "idx")
    os.makedirs(d)
    seg = {"name": "s0", "docs_count": 1}
    m1 = commit_manifest(d, [seg], config={})
    assert m1["generation"] == 1

    # crash artifact: g2 exists on disk but the pointer still says 1
    with open(os.path.join(d, "manifest-g2.json"), "w") as f:
        json.dump({"generation": 2, "segments": []}, f)
    m3 = commit_manifest(d, [seg], config={})
    assert m3["generation"] == 3  # skipped the orphaned 2, no conflict

    # true race on one generation path: exactly one hard-link create wins
    target = os.path.join(d, "manifest-g9.json")
    def attempt(i):
        try:
            _atomic_write_json(target, {"writer": i}, exclusive=True)
            return "ok"
        except RuntimeError:
            return "conflict"
    with ThreadPoolExecutor(8) as ex:
        outcomes = list(ex.map(attempt, range(8)))
    assert outcomes.count("ok") == 1 and outcomes.count("conflict") == 7
    # no stray tmp files leaked by the losers
    assert [f for f in os.listdir(d) if ".tmp." in f] == []


def test_searcher_snapshot_survives_gc(tmp_path):
    """Point-in-time isolation (the directory_reader refcount analog): a
    constructed Searcher holds its generation's files via open memory maps,
    so consolidate+gc unlinking those segment dirs must not break it — for
    terms it already served (warm caches) NOR for terms or docs columns it
    never touched (cold file reads through retained maps).  A fresh
    Searcher sees the new generation."""
    d = str(tmp_path / "idx")
    build_index_local(gen_transcripts(80), d, num_partitions=5)
    g0 = load_manifest(d)["generation"]
    old = Searcher(d)
    warm = old.search_local(F.Term("text", "agent"), k=5)

    consolidate(d, policy="count", policy_kwargs={"threshold": 2}, gc=True)
    assert load_manifest(d)["generation"] > g0

    # warm path: identical frames
    again = old.search_local(F.Term("text", "agent"), k=5)
    assert warm.reset_index(drop=True).equals(again.reset_index(drop=True))
    # cold path: a term the old snapshot never served still resolves
    cold_old = old.search_local(F.Term("text", "error"), k=5)
    new = Searcher(d)
    cold_new = new.search_local(F.Term("text", "error"), k=5)
    assert cold_old.reset_index(drop=True).equals(cold_new.reset_index(drop=True))
    # docs columns the old snapshot never loaded (stored text, a stored
    # keyword) still read through the files it holds open
    for q in (F.Term("text", "agent"), F.And((F.Term("text", "error"), F.Exists("tool")))):
        old_hl = old.highlights(q, k=5, source="stored")
        assert len(old_hl)
        assert old_hl.reset_index(drop=True).equals(
            new.highlights(q, k=5, source="stored").reset_index(drop=True)
        )


def test_snapshot_index_isolated_copy(tmp_path):
    """snapshot_index materializes a standalone, point-in-time index: same
    results as the source at snapshot time, immune to later deletes /
    consolidations / gc of the source (content-named files are immutable,
    so hard links share bytes without sharing fate)."""
    from iresearch_ray.pipelines.consolidate import snapshot_index
    from iresearch_ray.pipelines.delete import delete_by_filter

    src = str(tmp_path / "src")
    snap = str(tmp_path / "snap")
    build_index_local(gen_transcripts(100), src, num_partitions=6)
    q = F.Or((F.Term("text", "agent"), F.Term("text", "error")))
    before = Searcher(src).search_local(q, k=30)

    man = snapshot_index(src, snap)
    assert load_manifest(snap)["generation"] == man["generation"]
    got = Searcher(snap).search_local(q, k=30)
    assert before.reset_index(drop=True).equals(got.reset_index(drop=True))

    # mutate the SOURCE: delete every 'error' doc, consolidate, gc
    delete_by_filter(src, F.Term("text", "error"))
    consolidate(src, policy="count", policy_kwargs={"threshold": 2}, gc=True)
    assert len(Searcher(src).search_local(F.Term("text", "error"), k=10)) == 0
    # the snapshot still serves the pre-delete view
    again = Searcher(snap).search_local(q, k=30)
    assert before.reset_index(drop=True).equals(again.reset_index(drop=True))

    # double-snapshot into the same dest refuses loudly
    with pytest.raises(FileExistsError):
        snapshot_index(src, snap)
    # copy mode (no hard links) is equivalent
    snap2 = str(tmp_path / "snap2")
    snapshot_index(src, snap2, hardlink=False)
    a = Searcher(src).search_local(q, k=30)
    b = Searcher(snap2).search_local(q, k=30)
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


def test_count_collector_matches_full_search(tmp_path):
    """Searcher.count == number of rows a full (k=∞) search returns, for
    compound filters, before and after tombstones."""
    from iresearch_ray.pipelines.delete import delete_by_filter

    d = str(tmp_path / "idx")
    build_index_local(gen_transcripts(60), d, num_partitions=4)
    s = Searcher(d)
    for q in (
        F.Term("text", "agent"),
        F.Or((F.Term("text", "error"), F.Term("text", "plan"))),
        F.And((F.Term("text", "the"), F.Term("text", "a"))),
        F.Not(F.Term("text", "the"), F.Term("text", "agent")),
        F.Prefix("text", "w00"),
    ):
        assert s.count(q) == len(s.search_local(q, k=10**9))
    n_err = s.count(F.Term("text", "error"))
    assert n_err > 0
    delete_by_filter(d, F.Term("text", "error"))
    s2 = Searcher(d)
    assert s2.count(F.Term("text", "error")) == 0
    # unaffected docs keep counting
    assert s2.count(F.Term("text", "agent")) == len(
        s2.search_local(F.Term("text", "agent"), k=10**9)
    )
