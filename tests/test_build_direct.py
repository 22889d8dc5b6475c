"""The build's two-stage hash exchange — Parquet and Dataset sources build
identical segments; resume, append and verify semantics."""

import json
import os
import shutil

import pytest

from iresearch_ray import Searcher, build_index
from iresearch_ray.pipelines.build import build_index_direct
from iresearch_ray.query import filters as F
from iresearch_ray.sources.transcripts import write_transcripts


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    d = str(tmp_path_factory.mktemp("direct_src"))
    write_transcripts(d, n_convs=400, rows_per_file=900)
    return d


def test_parquet_source_equals_dataset_source(corpus, tmp_path):
    import ray.data as rd

    files = [os.path.join(corpus, f) for f in sorted(os.listdir(corpus)) if f.endswith(".parquet")]
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    ma = build_index(files, a_dir, num_partitions=5, resume=False)
    mb = build_index(rd.read_parquet(files), b_dir, num_partitions=5, resume=False)
    assert ma["metrics"]["docs_count"] == mb["metrics"]["docs_count"]
    assert sorted(s["name"] for s in ma["segments"]) == sorted(
        s["name"] for s in mb["segments"]
    )  # content-hash segment names ⇒ identical partition contents
    a, b = Searcher(a_dir), Searcher(b_dir)
    for f in [
        F.Term("text", "agent"),
        F.Or((F.Term("text", "error"), F.Term("text", "plan")), min_match=1),
        F.Phrase("text", ("the", "a")),
        F.Prefix("text", "w00"),
    ]:
        ra = a.search_local(f, k=25).reset_index(drop=True)
        rb = b.search_local(f, k=25).reset_index(drop=True)
        assert ra.equals(rb), f


@pytest.mark.parametrize("kind", ["parquet", "dataset"])
def test_more_partitions_than_groups(kind, tmp_path, ray_session):
    """P far above the number of non-empty partitions: the commit succeeds,
    docs_count is exact, and no empty segment is written."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    tbl = pa.Table.from_pylist(
        [{"conv_id": f"c{i}", "turn_idx": t, "text": f"alpha w{i:03d}", "role": "user", "tool": None}
         for i in range(3) for t in range(4)]
    )
    pq.write_table(tbl, str(tmp_path / "t.parquet"))
    src = str(tmp_path / "t.parquet") if kind == "parquet" else rd.from_arrow(tbl)
    d = str(tmp_path / "idx")
    m = build_index(src, d, num_partitions=64, resume=False)
    assert m["docs_count"] == m["metrics"]["docs_count"] == tbl.num_rows
    assert 1 <= len(m["segments"]) <= 3
    assert all(s["docs_count"] > 0 for s in m["segments"])
    assert sorted(os.listdir(os.path.join(d, "segments"))) == sorted(
        s["name"] for s in m["segments"]
    )
    assert len(Searcher(d).search_local(F.Term("text", "alpha"), k=50)) == tbl.num_rows


def test_direct_resume_skips_done(corpus, tmp_path):
    idx = str(tmp_path / "idx")
    m1 = build_index_direct(corpus, idx, num_partitions=4, resume=True)
    built1 = m1["lineage"]["built_partitions"]
    assert sorted(built1) == [0, 1, 2, 3]
    # simulate partial failure: drop the manifest and one segment
    os.remove(os.path.join(idx, "manifest.json"))
    victim = m1["segments"][0]["name"]
    shutil.rmtree(os.path.join(idx, "segments", victim))
    m2 = build_index_direct(corpus, idx, num_partitions=4, resume=True)
    assert m2["metrics"]["docs_count"] == m1["metrics"]["docs_count"]
    assert len(m2["lineage"]["built_partitions"]) == 1  # only the victim rebuilt
    assert len(m2["lineage"]["resumed_partitions"]) == 3
    assert sorted(s["name"] for s in m2["segments"]) == sorted(
        s["name"] for s in m1["segments"]
    )


def test_append_index_incremental(corpus, tmp_path, ray_session):
    """Incremental ingest: new batch → new segments appended in one
    generation; results equal a from-scratch build over the union."""
    import pyarrow.parquet as pq

    from iresearch_ray import Searcher
    from iresearch_ray.pipelines.build import append_index
    from iresearch_ray.pipelines.consolidate import consolidate
    from iresearch_ray.query import filters as F
    from iresearch_ray.sources.transcripts import gen_transcripts_range

    idx = str(tmp_path / "inc")
    build_index(corpus, idx, num_partitions=3)
    base_docs = Searcher(idx).manifest["docs_count"]

    batch_dir = str(tmp_path / "batch")
    os.makedirs(batch_dir)
    new_tbl = gen_transcripts_range(400, 460)  # conv ids disjoint from corpus (0..399)
    pq.write_table(new_tbl, f"{batch_dir}/new.parquet")

    m = append_index(batch_dir, idx, num_partitions=2)
    assert m["docs_count"] == base_docs + new_tbl.num_rows
    g1 = m["generation"]

    # idempotent re-append of the same batch: resume skips everything
    m2 = append_index(batch_dir, idx, num_partitions=2)
    assert m2["docs_count"] == m["docs_count"]
    assert {s["name"] for s in m2["segments"]} == {s["name"] for s in m["segments"]}

    # appended docs queryable; old docs unaffected
    s = Searcher(idx)
    out = s.search_local(F.Term("text", "the"), k=10_000_000)
    keys = set(zip(out["conv_id"], out["turn_idx"]))
    new_keys = {
        (c, t)
        for c, t, txt in zip(
            new_tbl["conv_id"].to_pylist(),
            new_tbl["turn_idx"].to_pylist(),
            new_tbl["text"].to_pylist(),
        )
        if "the" in txt.split(" ")
    }
    assert new_keys <= keys

    # consolidation folds batch segments; results invariant
    pre = s.search_local(F.Or((F.Term("text", "agent"), F.Term("text", "error"))), k=30)
    consolidate(idx, policy="count", policy_kwargs={"threshold": 1}, gc=True, repeat=True)
    post = Searcher(idx).search_local(
        F.Or((F.Term("text", "agent"), F.Term("text", "error"))), k=30
    )
    assert pre.reset_index(drop=True).equals(post.reset_index(drop=True))


def test_resume_never_reuses_stale_content(tmp_path, ray_session):
    """Regression (round-2 review): the segment content key covers text and
    config, so editing a turn's text (same keys) or changing the analyzer
    must rebuild — never silently reuse the old segment."""
    import pyarrow as pa

    from iresearch_ray import Searcher, build_index
    from iresearch_ray.query import filters as F
    import ray.data as rd

    rows = [
        {"conv_id": f"c{i}", "turn_idx": 0, "text": "alpha beta", "role": "user", "tool": None}
        for i in range(20)
    ]
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(pa.Table.from_pylist(rows)), d, num_partitions=2)
    assert len(Searcher(d).search_local(F.Term("text", "alpha"), k=50)) == 20

    # same keys, new text — rebuild into the SAME dir with resume on
    rows2 = [dict(r, text="gamma delta") for r in rows]
    build_index(rd.from_arrow(pa.Table.from_pylist(rows2)), d, num_partitions=2, resume=True)
    s = Searcher(d)
    assert len(s.search_local(F.Term("text", "gamma"), k=50)) == 20
    assert len(s.search_local(F.Term("text", "alpha"), k=50)) == 0


def test_orphan_segments_not_adopted(tmp_path, ray_session):
    """Regression (round-2 review): segments from a crashed run over
    DIFFERENT data (no manifest) must not be adopted by a later build."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from iresearch_ray import Searcher, build_index
    from iresearch_ray.pipelines.build import verify_text_equality
    from iresearch_ray.query import filters as F

    mk = lambda word: pa.Table.from_pylist(
        [{"conv_id": f"c{i}", "turn_idx": 0, "text": f"{word} w{i:03d}", "role": "user", "tool": None}
         for i in range(30)]
    )
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(mk("first")), d, num_partitions=3)
    os.remove(os.path.join(d, "manifest.json"))  # simulate crash-before-commit

    tbl_b = mk("second")
    build_index(rd.from_arrow(tbl_b), d, num_partitions=3)
    s = Searcher(d)
    assert len(s.search_local(F.Term("text", "second"), k=100)) == 30
    assert len(s.search_local(F.Term("text", "first"), k=100)) == 0
    verify_text_equality(d, tbl_b)  # full-coverage invariant holds


def test_verify_text_equality_detects_missing_docs(tmp_path, ray_session):
    """Regression (round-2 review): the invariant checker must fail when
    indexed rows != source rows (missing partition), not just on text
    mismatch of rows that exist."""
    import json
    import os

    import pyarrow as pa
    import pytest
    import ray.data as rd

    from iresearch_ray import build_index
    from iresearch_ray.pipelines.build import verify_text_equality

    tbl = pa.Table.from_pylist(
        [{"conv_id": f"c{i}", "turn_idx": 0, "text": f"t w{i:03d}", "role": "user", "tool": None}
         for i in range(30)]
    )
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(tbl), d, num_partitions=3)
    with open(os.path.join(d, "manifest.json")) as f:
        man = json.load(f)
    man["segments"] = man["segments"][:-1]  # drop one segment
    with open(os.path.join(d, "manifest.json"), "w") as f:
        json.dump(man, f)
    with pytest.raises(AssertionError, match="indexed row count"):
        verify_text_equality(d, tbl)


def test_hash_partition_arrow_equals_pylist():
    """The dictionary-encoded Arrow fast path must be bit-identical to the
    per-row Python path — resume fingerprints / partition assignment depend
    on it (round-3 fix: crc32 over uniques only)."""
    import numpy as np
    import pyarrow as pa

    from iresearch_ray.pipelines.build import hash_partition

    ids = [f"conv-{i % 37:04d}" for i in range(1000)] + ["", "é-unicode", "x" * 300]
    for P in (1, 7, 64):
        ref = hash_partition(ids, P)
        arr = hash_partition(pa.array(ids), P)
        chunked = hash_partition(pa.chunked_array([ids[:500], ids[500:]]), P)
        assert np.array_equal(ref, arr)
        assert np.array_equal(ref, chunked)


def test_verify_text_equality_distributed(corpus, tmp_path, ray_session):
    """The Dataset-native co-located verify must pass on a clean index,
    and raise the same errors as the driver path on corruption."""
    import json
    import os

    import pyarrow.parquet as pq
    import pytest

    from iresearch_ray import build_index
    from iresearch_ray.pipelines.build import verify_text_equality

    files = [os.path.join(corpus, f) for f in sorted(os.listdir(corpus)) if f.endswith(".parquet")]
    d = str(tmp_path / "idx")
    build_index(files, d, num_partitions=4, resume=False)

    r_dist = verify_text_equality(d, files, distributed=True)
    r_drv = verify_text_equality(d, files, distributed=False)
    assert r_dist == r_drv and r_dist["equal"]

    # corrupt: drop a segment from the manifest -> missing rows
    with open(os.path.join(d, "manifest.json")) as f:
        man = json.load(f)
    man["segments"] = man["segments"][:-1]
    with open(os.path.join(d, "manifest.json"), "w") as f:
        json.dump(man, f)
    with pytest.raises(AssertionError, match="indexed row count"):
        verify_text_equality(d, files, distributed=True)

    # mismatch: verify against a source whose text differs
    import pyarrow as pa

    tbl = pq.read_table(files[0])
    texts = tbl["text"].to_pylist()
    texts[0] = (texts[0] or "") + " CORRUPTED"
    tbl = tbl.set_column(tbl.schema.get_field_index("text"), "text", pa.array(texts))
    mut = str(tmp_path / "mut.parquet")
    pq.write_table(tbl, mut)
    d2 = str(tmp_path / "idx2")
    build_index(files, d2, num_partitions=2, resume=False)
    with pytest.raises(AssertionError, match="text mismatch"):
        verify_text_equality(d2, [mut] + files[1:], distributed=True)


def test_verify_text_equality_encrypted_under_ray(corpus, tmp_path, ray_session):
    """With a live Ray session and a file source, an encrypted index is
    checked on the driver (Ray Data cannot decrypt its docs files)."""
    import os

    from iresearch_ray import IndexEncryption, build_index
    from iresearch_ray.pipelines.build import verify_text_equality

    key = IndexEncryption(b"0123456789abcdef" * 2)
    files = [os.path.join(corpus, f) for f in sorted(os.listdir(corpus)) if f.endswith(".parquet")]
    d = str(tmp_path / "idx_enc")
    build_index(files, d, num_partitions=2, resume=False, crypto=key)
    r = verify_text_equality(d, files, crypto=key)
    assert r["equal"] and r["checked"] == r["source_rows"] > 0
