"""Process-level SegmentReader cache and on-demand docs columns: a new
Searcher reuses the readers of unchanged segments, yet every generation
answers exactly as a brute-force oracle over its own rows."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray import Searcher, build_index
from iresearch_ray.pipelines.build import append_index, build_index_local
from iresearch_ray.pipelines.consolidate import consolidate
from iresearch_ray.pipelines.delete import delete_keys
from iresearch_ray.query import filters as F
from iresearch_ray.query.oracle import BruteForceOracle
from iresearch_ray.sources.transcripts import gen_transcripts, gen_transcripts_range
from iresearch_ray.stages import segment as S

FILTERS = (
    F.Term("text", "agent"),
    F.Or((F.Term("text", "error"), F.Term("text", "plan"))),
)


def _assert_matches_oracle(searcher, rows: pa.Table, deleted=frozenset(), k=25):
    """Top-k of ``searcher`` equals the oracle over ``rows`` with the
    ``deleted`` keys dropped after scoring (masked docs still count in the
    stats until a merge purges them)."""
    oracle = BruteForceOracle(rows)
    for flt in FILTERS:
        got = searcher.search_local(flt, k=k)
        want = oracle.search(flt, k=100_000)
        want = want[
            [(c, int(t)) not in deleted for c, t in zip(want["conv_id"], want["turn_idx"])]
        ].head(k)
        assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
            zip(want["conv_id"], want["turn_idx"].astype(int))
        )
        np.testing.assert_allclose(
            got["score"].to_numpy(dtype=float), want["score"].to_numpy(dtype=float),
            atol=1e-6, rtol=0,
        )


def _cached() -> list:
    return list(S._READERS.values())


def _readers_by_dir(searcher) -> dict:
    return {r.seg_dir: r for r in searcher._shard().readers}


def test_generations_reuse_readers_and_match_oracle(tmp_path, ray_session):
    idx = str(tmp_path / "idx")
    base = gen_transcripts_range(0, 120)
    os.makedirs(tmp_path / "base")
    pq.write_table(base, str(tmp_path / "base" / "part.parquet"))
    build_index(str(tmp_path / "base"), idx, num_partitions=3)
    s0 = Searcher(idx)
    _assert_matches_oracle(s0, base)
    r0 = _readers_by_dir(s0)

    # append: the base segments' readers are reused, the batch's are new
    batch = gen_transcripts_range(120, 160)
    os.makedirs(tmp_path / "batch")
    pq.write_table(batch, str(tmp_path / "batch" / "part.parquet"))
    append_index(str(tmp_path / "batch"), idx, num_partitions=2)
    rows = pa.concat_tables([base, batch])
    s1 = Searcher(idx)
    _assert_matches_oracle(s1, rows)
    r1 = _readers_by_dir(s1)
    assert len(r1) == len(r0) + 2
    assert all(r1[d] is r for d, r in r0.items())
    # the older Searcher still answers from its own generation
    _assert_matches_oracle(s0, base)

    # delete: every reader is reused, yet the deleted docs are masked
    hits = s1.search_local(FILTERS[0], k=6)
    victims = {(c, int(t)) for c, t in zip(hits["conv_id"], hits["turn_idx"])}
    delete_keys(idx, sorted(victims))
    s2 = Searcher(idx)
    _assert_matches_oracle(s2, rows, victims)
    assert all(r1[d] is r for d, r in _readers_by_dir(s2).items())
    _assert_matches_oracle(s1, rows)  # s1 pins the generation before the delete

    # consolidate + gc: no reader of a dropped dir stays cached
    consolidate(idx, policy="count", policy_kwargs={"threshold": 2}, gc=True)
    s3 = Searcher(idx)
    live = rows.filter(pa.array(
        [(c, t) not in victims
         for c, t in zip(rows["conv_id"].to_pylist(), rows["turn_idx"].to_pylist())]
    ))
    _assert_matches_oracle(s3, live)
    dropped = set(r1) - set(_readers_by_dir(s3))
    assert dropped
    assert not dropped & {r.seg_dir for r in _cached()}

    # rmtree + rebuild into the same dir with other rows: fresh readers
    before = {id(r) for r in _cached()}
    shutil.rmtree(idx)
    other = gen_transcripts_range(300, 380)
    os.makedirs(tmp_path / "other")
    pq.write_table(other, str(tmp_path / "other" / "part.parquet"))
    build_index(str(tmp_path / "other"), idx, num_partitions=3)
    s4 = Searcher(idx)
    _assert_matches_oracle(s4, other)
    assert not {id(r) for r in s4._shard().readers} & before


def _write_seg(index_dir: str, rows: pa.Table) -> str:
    cfg = S.IndexConfig()
    terms, docs, stats = S.build_segment_tables(rows, cfg)
    S.write_segment(index_dir, "seg-same", terms, docs, stats, cfg)
    return os.path.join(index_dir, "segments", "seg-same")


def test_rebuilt_segment_under_same_name_gets_fresh_reader(tmp_path):
    d = _write_seg(str(tmp_path), gen_transcripts_range(0, 10))
    (r,) = S.open_readers([d])
    assert S.open_readers([d])[0] is r
    keys = r.doc_keys
    shutil.rmtree(d)
    _write_seg(str(tmp_path), gen_transcripts_range(50, 70))
    (r2,) = S.open_readers([d])
    assert r2 is not r
    assert set(r2.doc_keys[0]) != set(keys[0])
    assert r not in _cached()  # replaced files: the old entry is dropped


def test_cache_weight_stays_under_bound(tmp_path, monkeypatch):
    bound = 400_000
    monkeypatch.setattr(S, "READER_CACHE_BYTES", bound)
    opened = 0
    for i in range(12):
        d = str(tmp_path / f"tiny{i}")
        build_index_local(gen_transcripts_range(i * 10, i * 10 + 10), d)
        s = Searcher(d)
        s._shard().readers
        opened += 1
        assert sum(r.loaded_bytes() for r in _cached()) <= bound
        s.search_local(FILTERS[1], k=5)
        assert s._shard().readers[0].loaded_bytes() > 0
    assert len(_cached()) < opened


def test_queries_read_only_key_columns(tmp_path):
    """search_local, count and a tombstone-masked query read only the key
    and length docs columns, never the stored text; stored highlights add
    the text column alone and return the spans of the source text."""
    from iresearch_ray.functions.highlight import highlight_text, plan_terms

    tbl = gen_transcripts(80)
    d = str(tmp_path / "idx")
    build_index_local(tbl, d, num_partitions=2)
    s = Searcher(d)
    s.search_local(FILTERS[1], k=10)
    s.count(FILTERS[0])
    victim = s.search_local(FILTERS[0], k=1)
    delete_keys(d, [(victim["conv_id"][0], int(victim["turn_idx"][0]))])
    s2 = Searcher(d)
    masked = s2.search_local(FILTERS[0], k=1000)
    assert (victim["conv_id"][0], victim["turn_idx"][0]) not in set(
        zip(masked["conv_id"], masked["turn_idx"])
    )
    readers = s2._shard().readers
    assert readers == s._shard().readers
    for r in readers:
        assert "text" not in r._doc_cols
        assert set(r._doc_cols) <= {"conv_id", "turn_idx", "dl"}

    hl = s2.highlights(FILTERS[1], k=8, source="stored")
    assert len(hl) == 8
    text = dict(zip(zip(tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist()),
                    tbl["text"].to_pylist()))
    terms = set(plan_terms(s2.prepare(FILTERS[1]).plan["root"], "text"))
    for c, t, txt, spans in zip(hl["conv_id"], hl["turn_idx"], hl["text"], hl["spans"]):
        assert txt == text[(c, int(t))]
        assert spans == highlight_text(txt, terms)
    assert all(set(r._doc_cols) <= {"conv_id", "turn_idx", "dl", "text"} for r in readers)
