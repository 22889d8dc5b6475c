"""Shuffle-based wide merge with salted hot terms — equivalence with the
single-task k-way merge (same queries, same results)."""

import pyarrow as pa
import pytest

from iresearch_ray import Searcher, build_index
from iresearch_ray.query import filters as F
from iresearch_ray.sources.transcripts import gen_transcripts
from iresearch_ray.stages.shuffle_merge import merge_segments_shuffle
from iresearch_ray.state.manifest import commit_manifest, load_manifest


@pytest.fixture(scope="module")
def wide_idx(tmp_path_factory, ray_session):
    import ray.data as rd

    tbl = gen_transcripts(300)
    d = str(tmp_path_factory.mktemp("wide") / "idx")
    build_index(rd.from_arrow(tbl), d, num_partitions=12)
    return d


QUERIES = [
    F.Term("text", "the"),          # Zipf-hottest term — exercises the salt path
    F.Term("text", "agent"),
    F.Or((F.Term("text", "error"), F.Term("text", "plan")), min_match=1),
    F.Phrase("text", ("the", "a")),
    F.Prefix("text", "w00"),
]


def test_shuffle_merge_equals_unmerged(wide_idx):
    d = wide_idx
    before = [Searcher(d).search_local(q, k=25) for q in QUERIES]

    man = load_manifest(d)
    names = [s["name"] for s in man["segments"]]
    assert len(names) == 12
    # salt threshold low enough that hot-head terms (df ≈ docs/2) get salted
    meta = merge_segments_shuffle(d, names, man["generation"], hot_df_threshold=50, num_salts=4)
    assert meta["lineage"]["engine"] == "shuffle"
    commit_manifest(d, [meta], man["config"], lineage={"shuffle_merge": True})

    s = Searcher(d)
    assert len(s.seg_dirs) == 1
    for q, exp in zip(QUERIES, before):
        got = s.search_local(q, k=25).reset_index(drop=True)
        assert got.equals(exp.reset_index(drop=True)), q


def test_shuffle_merge_mixed_hotness(tmp_path, ray_session):
    """Regression: a term whose per-segment df straddles hot_df_threshold
    must NOT split into interleaved salted + cold groups (the per-row
    hotness bug).  The global pre-pass makes the decision per (field, term),
    keeping merged postings doc-id-sorted — verified via Not queries (which
    silently return wrong rows on unsorted postings) and a direct
    sortedness assertion on the merged posting arrays."""
    import os

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from iresearch_ray.functions.codec import decode_postings
    from iresearch_ray.stages.segment import SegmentReader
    from iresearch_ray.state.manifest import segment_dirs

    tbl = gen_transcripts(160)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(tbl), d, num_partitions=8)
    man = load_manifest(d)
    names = [s["name"] for s in man["segments"]]

    # pick a threshold that splits the per-segment dfs of a mid-frequency term
    target = "agent"
    dfs = []
    for n in names:
        t = pq.read_table(
            os.path.join(d, "segments", n, "terms.parquet"), columns=["field", "term", "df"]
        )
        sel = t.filter(
            (pa.compute.field("field") == "text") & (pa.compute.field("term") == target)
        )
        dfs.append(int(sel["df"][0].as_py()) if sel.num_rows else 0)
    thr = int(np.median(dfs)) + 1
    assert min(dfs) < thr <= max(dfs), f"corpus no longer mixed for {target}: {dfs}"

    queries = [
        F.Not(F.Term("text", "the"), F.Term("text", target)),
        F.Not(F.Term("text", target), F.Term("text", "error")),
        F.Or((F.Term("text", target), F.Term("text", "the"))),
        F.Phrase("text", ("the", target)),
    ]
    before = [Searcher(d).search_local(q, k=50) for q in queries]

    meta = merge_segments_shuffle(d, names, man["generation"], hot_df_threshold=thr, num_salts=4)
    commit_manifest(d, [meta], man["config"], lineage={"mixed_hotness": True})

    s = Searcher(d)
    assert len(s.seg_dirs) == 1
    r = SegmentReader(segment_dirs(d, s.manifest)[0])
    row = r.term_row("text", target)
    docs, _tfs = decode_postings(
        r.terms["doc_blob"][row].as_py(),
        np.asarray(r.terms["block_doc_count"][row].as_py(), dtype=np.int64),
    )
    assert np.all(np.diff(docs) > 0), "merged postings must be strictly increasing"
    bl = np.asarray(r.terms["block_last_doc"][row].as_py(), dtype=np.int64)
    assert np.all(np.diff(bl) > 0), "block_last_doc must be sorted for skip targeting"

    for q, exp in zip(queries, before):
        got = s.search_local(q, k=50).reset_index(drop=True)
        assert got.equals(exp.reset_index(drop=True)), q


def test_shuffle_merge_byte_identical_to_task_merge(tmp_path, ray_session):
    """The distributed-write shuffle merge must produce EXACTLY the task
    merge's tables (same term rows, same blobs, same docs) — and it must
    do so via the multi-part layout (terms/ + docs/ directories), i.e.
    without a driver-side whole-table write."""
    import os

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from iresearch_ray.stages.merge import merge_segments
    from iresearch_ray.stages.segment import (
        TERMS_SCHEMA,
        SegmentReader,
        docs_paths,
        terms_paths,
    )

    tbl = gen_transcripts(200)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(tbl), d, num_partitions=9)
    man = load_manifest(d)
    names = [s["name"] for s in man["segments"]]

    m_task = merge_segments(d, names, man["generation"])
    m_shuf = merge_segments_shuffle(
        d, names, man["generation"] + 1, hot_df_threshold=40, num_salts=3,
        num_output_parts=5,
    )
    seg_root = os.path.join(d, "segments")
    r_task = SegmentReader(os.path.join(seg_root, m_task["name"]))
    r_shuf = SegmentReader(os.path.join(seg_root, m_shuf["name"]))

    # distributed layout actually used (no single-file driver write)
    shuf_dir = os.path.join(seg_root, m_shuf["name"])
    assert not os.path.exists(os.path.join(shuf_dir, "terms.parquet"))
    assert len(terms_paths(shuf_dir)) > 1
    assert len(docs_paths(shuf_dir)) == 9

    # fresh, task-merged and shuffle-merged term files carry exactly the
    # schema's columns — no score-bound columns survive a merge
    assert not {"max_tf", "min_dl", "block_max_tf", "block_min_dl"} & set(
        TERMS_SCHEMA.names
    )
    for seg in (names[0], m_task["name"], m_shuf["name"]):
        for path in terms_paths(os.path.join(seg_root, seg)):
            assert pq.read_schema(path).names == TERMS_SCHEMA.names, path

    t1 = r_task.terms.combine_chunks()
    t2 = r_shuf.terms.combine_chunks()
    assert t1.schema.equals(t2.schema)
    assert t1.num_rows == t2.num_rows
    assert t1.equals(t2), "terms tables differ between task and shuffle merge"
    d1 = r_task.docs.combine_chunks()
    d2 = r_shuf.docs.combine_chunks()
    # task merge may order columns differently after promote; compare by name
    assert sorted(d1.column_names) == sorted(d2.column_names)
    assert d1.select(sorted(d1.column_names)).equals(
        d2.select(sorted(d2.column_names))
    ), "docs tables differ"
    assert m_task["docs_count"] == m_shuf["docs_count"]
    assert m_task["field_stats"] == m_shuf["field_stats"]
    assert m_task["terms_count"] == m_shuf["terms_count"]
    assert np.array_equal(
        d1["doc_id"].to_numpy(), np.arange(1, d1.num_rows + 1)
    )
