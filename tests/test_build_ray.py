"""Ray-path e2e: distributed build, per-turn text equality, resume, actor
search — SURVEY §5.2 items 6–7 + §3.1/§3.2 entry points."""

import glob
import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from iresearch_ray.pipelines.build import build_index
from iresearch_ray.pipelines.search import Searcher
from iresearch_ray.query import filters as F
from iresearch_ray.query.oracle import BruteForceOracle
from iresearch_ray.sources.transcripts import gen_transcripts
from iresearch_ray.state.manifest import load_manifest


@pytest.fixture(scope="module")
def ray_built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("rayidx")
    src = str(root / "src")
    os.makedirs(src)
    tbl = gen_transcripts(120)
    # two input files to exercise multi-file read
    half = tbl.num_rows // 2
    pq.write_table(tbl.slice(0, half), f"{src}/a.parquet")
    pq.write_table(tbl.slice(half), f"{src}/b.parquet")
    idx = str(root / "idx")
    manifest = build_index([f"{src}/a.parquet", f"{src}/b.parquet"], idx, num_partitions=5)
    return idx, tbl, manifest, src


def test_manifest_complete(ray_built):
    idx, tbl, manifest, _ = ray_built
    assert manifest["docs_count"] == tbl.num_rows
    assert manifest["generation"] == 1
    assert len(manifest["segments"]) <= 5
    # lineage + per-partition metrics recorded (B north_rule)
    assert manifest["lineage"]["built_partitions"]
    assert manifest["metrics"]["build_secs_per_partition"]


def test_per_turn_text_equality(ray_built):
    """B input_hint invariant: every (conv_id, turn_idx) text round-trips
    under stable ordering."""
    idx, tbl, manifest, _ = ray_built
    seg_tables = [
        pq.read_table(os.path.join(idx, "segments", s["name"], "docs.parquet"))
        for s in manifest["segments"]
    ]
    got = (
        pa.concat_tables([t.select(["conv_id", "turn_idx", "text"]) for t in seg_tables])
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    want = (
        tbl.select(["conv_id", "turn_idx", "text"])
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


def test_search_ray_matches_local_and_oracle(ray_built):
    idx, tbl, _, _ = ray_built
    s = Searcher(idx)
    oracle = BruteForceOracle(tbl)
    queries = {
        "q_term": F.Term("text", "agent"),
        "q_or": F.Or((F.Term("text", "error"), F.Term("text", "plan"))),
        "q_phrase": F.Phrase("text", ("the", "a")),
        "q_kw": F.Term("role", "assistant"),
    }
    res = s.search_ray(queries, k=10, concurrency=2)
    for qid, flt in queries.items():
        got = res[res["query_id"] == qid].reset_index(drop=True)
        want = oracle.search(flt, k=10)
        assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
            zip(want["conv_id"], want["turn_idx"].astype(int))
        ), qid
        local = s.search_local(flt, k=10)
        assert got["score"].tolist() == pytest.approx(local["score"].tolist(), abs=1e-12)


def test_resume_skips_completed(ray_session, tmp_path):
    """Kill-after-k-partitions simulation: pre-build a subset of partitions,
    re-run, assert completed partitions are skipped and the final manifest is
    identical to a from-scratch build (SURVEY §5.2 item 7)."""
    src = str(tmp_path / "src")
    os.makedirs(src)
    tbl = gen_transcripts(80)
    pq.write_table(tbl, f"{src}/t.parquet")

    idx_full = str(tmp_path / "full")
    m_full = build_index(f"{src}/t.parquet", idx_full, num_partitions=4)

    # simulated partial failure: only some segments written, no manifest
    idx_part = str(tmp_path / "part")
    os.makedirs(os.path.join(idx_part, "segments"))
    names = sorted(s["name"] for s in m_full["segments"])
    for name in names[:2]:
        shutil.copytree(
            os.path.join(idx_full, "segments", name),
            os.path.join(idx_part, "segments", name),
        )

    m_resume = build_index(f"{src}/t.parquet", idx_part, num_partitions=4)
    assert sorted(s["name"] for s in m_resume["segments"]) == names
    assert m_resume["docs_count"] == m_full["docs_count"]
    # the two pre-existing partitions were skipped, the rest built
    resumed = set(m_resume["lineage"]["resumed_partitions"])
    built = set(m_resume["lineage"]["built_partitions"])
    assert len(resumed) == 2 and not (resumed & built)
    # query results identical
    s_full, s_part = Searcher(idx_full), Searcher(idx_part)
    a = s_full.search_local(F.Term("text", "agent"), k=10)
    b = s_part.search_local(F.Term("text", "agent"), k=10)
    pd.testing.assert_frame_equal(a, b)


def test_rebuild_is_idempotent(ray_session, tmp_path):
    src = str(tmp_path / "src")
    os.makedirs(src)
    pq.write_table(gen_transcripts(30), f"{src}/t.parquet")
    idx = str(tmp_path / "idx")
    m1 = build_index(f"{src}/t.parquet", idx, num_partitions=2)
    m2 = build_index(f"{src}/t.parquet", idx, num_partitions=2)
    assert m2["generation"] == 2  # new commit, same content
    assert [s["name"] for s in m1["segments"]] == [s["name"] for s in m2["segments"]]
    assert set(m2["lineage"]["resumed_partitions"]) == set(
        m1["lineage"]["built_partitions"]
    )
    assert not m2["lineage"]["built_partitions"]


def test_query_pool_matches_local(ray_built):
    """Persistent QueryPool returns the same ranked results as search_local."""
    from iresearch_ray import QueryPool, Searcher
    from iresearch_ray.query import filters as F

    idx = ray_built[0] if isinstance(ray_built, tuple) else ray_built
    pool = QueryPool(idx, num_actors=2)
    try:
        s = Searcher(idx)
        qs = {
            "a": F.Term("text", "agent"),
            "b": F.Or((F.Term("text", "error"), F.Term("text", "plan"))),
            "c": F.Phrase("text", ("the", "a")),
        }
        out = pool.search(qs, k=12)
        for qid, f in qs.items():
            exp = s.search_local(f, k=12).reset_index(drop=True)
            got = (
                out[out["query_id"] == qid]
                .drop(columns=["query_id"])
                .reset_index(drop=True)
            )
            assert got.equals(exp), qid
        # second call reuses live actors (warm path)
        out2 = pool.search(qs, k=12)
        assert out2.equals(out)
    finally:
        pool.shutdown()


def test_search_pooled_matches_search_ray(ray_built):
    """Searcher.search_pooled (cached QueryPool) returns the same frame as
    the one-shot Ray Data path, and reuses its pool across calls."""
    from iresearch_ray import Searcher
    from iresearch_ray.query import filters as F

    idx = ray_built[0] if isinstance(ray_built, tuple) else ray_built
    s = Searcher(idx)
    qs = {
        "a": F.Term("text", "agent"),
        "b": F.Not(F.Term("text", "the"), F.Term("text", "error")),
        "c": F.Phrase("text", ("agent", "tool"), slop=1, ordered=False),
    }
    try:
        via_ds = s.search_ray(qs, k=15, concurrency=2).reset_index(drop=True)
        via_pool = s.search_pooled(qs, k=15).reset_index(drop=True)
        assert via_pool.equals(via_ds)
        pool_obj = s._pool
        assert pool_obj is not None
        assert s.search_pooled(qs, k=15).reset_index(drop=True).equals(via_ds)
        assert s._pool is pool_obj  # cached, not rebuilt
    finally:
        s.close()


def test_pool_leaves_dataset_headroom(ray_built):
    """A live QueryPool must never pin every cluster CPU: pools cap their
    actor count at cluster_cpus - 2 on small clusters, so a Dataset stage
    scheduled while the pool lives can still start (regression: an 8-CPU
    correctness session deadlocked when cached pools summed to 8 actors
    and the next query's map_batches tasks starved forever)."""
    import ray
    import ray.data as rd

    from iresearch_ray import QueryPool
    from iresearch_ray.query import filters as F

    idx = ray_built[0] if isinstance(ray_built, tuple) else ray_built
    pool = QueryPool(idx, num_actors=64)  # asks for far more than the cluster
    try:
        cpus = int(ray.cluster_resources().get("CPU", 0))
        assert len(pool.actors) <= max(1, cpus - 2)
        pool.search({"q": F.Term("text", "agent")}, k=5)  # pool is live
        # a Dataset job must complete while the pool holds its CPUs
        n = (
            rd.range(1000)
            .map_batches(lambda b: b, batch_format="pyarrow")
            .count()
        )
        assert n == 1000
    finally:
        pool.shutdown()


def test_pool_result_cache(ray_built):
    """Proxy/caching-filter analog: repeat identical queries hit the
    per-worker LRU and return identical results."""
    from iresearch_ray import QueryPool
    from iresearch_ray.query import filters as F

    idx = ray_built[0] if isinstance(ray_built, tuple) else ray_built
    pool = QueryPool(idx, num_actors=2)
    try:
        qs = {"w": F.Wildcard("text", "w00%"), "t": F.Term("text", "agent")}
        first = pool.search(qs, k=10)
        again = pool.search(qs, k=10)
        assert again.equals(first)
        # different k must NOT hit the k=10 cache entry
        bigger = pool.search(qs, k=20)
        assert len(bigger) >= len(first)
    finally:
        pool.shutdown()


def test_pooled_count_parity(ray_session, tmp_path):
    """count(pooled=True) fans across the QueryPool's shard actors and must
    equal the local count and the full-search row count."""
    from iresearch_ray.pipelines.build import build_index_local
    from iresearch_ray.pipelines.search import Searcher
    from iresearch_ray.query import filters as F
    from iresearch_ray.sources.transcripts import gen_transcripts

    d = str(tmp_path / "idx")
    build_index_local(gen_transcripts(80), d, num_partitions=6)
    s = Searcher(d)
    q = F.Or((F.Term("text", "agent"), F.Term("text", "error")))
    local = s.count(q)
    pooled = s.count(q, pooled=True, num_actors=3)
    full = len(s.search_local(q, k=10**9))
    assert local == pooled == full > 0
    s.close()
