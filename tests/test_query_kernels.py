"""The array kernels of the query path: the driver merge (``merge_topk`` /
``_merge_rows``) against the pandas sort + groupby reference it replaced,
both branches of the union aggregation ``_sum_by_doc`` against the
brute-force oracle, the keys of the per-segment impact cache, the
``search_local`` frame contract, the fuzzy expansion memo, the positional
operators over token offsets, the bulk posting decode, the segment top-k
selection ``_select`` against the whole-array partition it replaced, the
union-root cut from its accumulator and the shard highlight merge."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from iresearch_ray.pipelines.build import build_index_local
from iresearch_ray.pipelines.search import Searcher, _merge_rows, merge_topk
from iresearch_ray.query import exec as ex
from iresearch_ray.query import filters as F
from iresearch_ray.query.oracle import BruteForceOracle
from iresearch_ray.sources.transcripts import gen_transcripts
from iresearch_ray.stages.searcher import RESULT_SCHEMA


def _pandas_merge(frames: pd.DataFrame, k: int) -> pd.DataFrame:
    """The merge as a stable pandas sort + per-query head."""
    out = frames.sort_values(
        ["query_id", "score", "conv_id", "turn_idx"],
        ascending=[True, False, True, True],
        kind="mergesort",
    )
    return out.groupby("query_id", sort=True).head(k).reset_index(drop=True)


def _random_rows(rng, n: int) -> pd.DataFrame:
    """Rows with heavy score ties (4 distinct scores), repeated conv ids,
    several query ids in shuffled order."""
    return pd.DataFrame(
        {
            "query_id": rng.choice(["q0", "q1", "q10", "q2", "b"], n),
            "conv_id": [f"conv-{i:03d}" for i in rng.integers(0, 12, n)],
            "turn_idx": rng.integers(0, 5, n).astype(np.int32),
            "score": rng.choice([0.0, 0.5, 1.25, 3.0], n),
        }
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [0, 1, 3, 10, 500])
def test_merge_topk_matches_pandas_reference(seed, k):
    rng = np.random.default_rng(seed)
    frames = _random_rows(rng, int(rng.integers(1, 200)))
    frames["text"] = [f"t{i}" for i in range(len(frames))]
    frames["spans"] = [[(i, i + 1)] for i in range(len(frames))]
    got = merge_topk(frames, k)
    assert got.equals(_pandas_merge(frames, k))
    assert list(got.columns) == list(frames.columns)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [0, 2, 10, 500])
def test_merge_rows_matches_pandas_reference(seed, k):
    """The driver merge of RESULT_SCHEMA tables (several shards) equals the
    reference over the same rows converted to pandas up front."""
    rng = np.random.default_rng(100 + seed)
    frames = _random_rows(rng, int(rng.integers(1, 200)))
    t = pa.Table.from_pandas(frames, schema=RESULT_SCHEMA, preserve_index=False)
    cut = int(rng.integers(0, t.num_rows + 1))
    got = _merge_rows([t.slice(0, cut), t.slice(cut)], k)
    assert got.equals(_pandas_merge(t.to_pandas(), k))


def test_merge_of_no_rows_keeps_the_result_columns():
    empty = RESULT_SCHEMA.empty_table().to_pandas()
    assert _merge_rows([], 5).equals(empty)
    assert _merge_rows([RESULT_SCHEMA.empty_table()], 5).equals(empty)
    assert merge_topk(empty, 5).equals(empty)


@pytest.mark.parametrize("min_match", [1, 2, 3])
def test_sum_by_doc_branches_agree(monkeypatch, min_match):
    """Dense bincount and np.unique give bit-identical sums."""
    rng = np.random.default_rng(min_match)
    docs = rng.integers(1, 300, 400)
    scores = rng.random(400) * 7
    dense = ex._sum_by_doc(docs, scores, min_match, 300)
    monkeypatch.setattr(ex, "DENSE_UNION_IDS", 0)
    sparse = ex._sum_by_doc(docs, scores, min_match, 100_000)
    assert np.array_equal(dense[0], sparse[0])
    assert np.array_equal(dense[1], sparse[1])
    uniq, counts = np.unique(docs, return_counts=True)
    assert np.array_equal(dense[0], uniq[counts >= min_match])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tbl = gen_transcripts(120)
    d = str(tmp_path_factory.mktemp("kernel_idx"))
    build_index_local(tbl, d, num_partitions=4)
    return Searcher(d), BruteForceOracle(tbl)


def _assert_oracle(searcher, oracle, flt, k=10):
    got = searcher.search_local(flt, k=k)
    want = oracle.search(flt, k=k)
    assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
        zip(want["conv_id"], want["turn_idx"].astype(int))
    ), flt
    np.testing.assert_allclose(
        got["score"].to_numpy(dtype=float), want["score"].to_numpy(dtype=float),
        atol=1e-6, rtol=0,
    )
    return got


def _T(word):
    return F.Term("text", word)


# rare terms of gen_transcripts(120): every union below stays under a
# quarter of its segment's docs, so a dense bound of 0 sends it to np.unique
UNION_QUERIES = {
    "or": F.Or((_T("w0300"), _T("w0302"), _T("w0307"))),
    "minmatch": F.Or(tuple(map(_T, ("w0098", "w0118", "w0127", "w0171", "w0194"))),
                     min_match=2),
    "prefix": F.Prefix("text", "w030"),  # 10 expansions: the bulk union
    "and_of_or": F.And((F.Or((_T("w0164"), _T("w0141"))),
                        F.Or((_T("w0166"), _T("w0160"))))),
}


@pytest.mark.parametrize("name", sorted(UNION_QUERIES))
def test_unique_branch_matches_oracle(monkeypatch, corpus, name):
    """With the dense bound at 0 every union whose id space exceeds 4x its
    hits aggregates through np.unique; the ranks still match the oracle."""
    searcher, oracle = corpus
    branches = []
    kernel = ex._sum_by_doc

    def spy(docs, scores, min_match, n_docs):
        branches.append(n_docs > max(ex.DENSE_UNION_IDS, 4 * docs.size))
        return kernel(docs, scores, min_match, n_docs)

    monkeypatch.setattr(ex, "_sum_by_doc", spy)
    monkeypatch.setattr(ex, "DENSE_UNION_IDS", 0)
    got = _assert_oracle(searcher, oracle, UNION_QUERIES[name])
    assert len(got) and any(branches), "np.unique branch did not run"


def _keyed_table(texts: list[str]) -> pa.Table:
    return pa.Table.from_pylist(
        [{"conv_id": f"c{i:02d}", "turn_idx": 0, "text": t, "role": "user", "tool": None}
         for i, t in enumerate(texts)]
    )


def test_and_matches_oracle(monkeypatch, corpus):
    """And probes its smallest leg into the larger ones by searchsorted."""
    searcher, oracle = corpus
    monkeypatch.setattr(ex, "DENSE_UNION_IDS", 0)
    got = _assert_oracle(searcher, oracle, F.And((_T("w0118"), _T("w0194"))))
    assert len(got)
    _assert_oracle(searcher, oracle, F.And((_T("the"), _T("agent"), _T("w0194"))))


def test_and_with_empty_and_disjoint_legs(tmp_path):
    tbl = _keyed_table(
        ["alpha beta", "alpha gamma", "beta gamma", "delta", "alpha beta gamma"] * 4
    )
    d = str(tmp_path / "idx")
    build_index_local(tbl, d, num_partitions=2)
    s, oracle = Searcher(d), BruteForceOracle(tbl)
    assert s.search_local(F.And((_T("alpha"), _T("nosuchword"))), k=10).empty
    assert s.search_local(F.And((_T("alpha"), _T("delta"))), k=10).empty
    assert s.search_local(F.And((_T("beta"), _T("gamma"), _T("delta"))), k=10).empty
    got = _assert_oracle(s, oracle, F.And((_T("alpha"), _T("beta"), _T("gamma"))), k=20)
    assert len(got) == 4
    _assert_oracle(s, oracle, F.And((_T("gamma"), _T("alpha"))), k=20)


# -- impact cache ------------------------------------------------------------

IMPACT_QUERIES = {
    "term": _T("the"),
    "and": F.And((_T("the"), _T("agent"))),
    "prefix": F.Prefix("text", "w030"),  # the bulk union
    "fuzzy": F.Fuzzy("text", "agent", 1),
}


def _fresh_searcher(monkeypatch, d):
    """A Searcher whose readers are opened anew, not taken from the
    process-level reader cache."""
    import collections

    from iresearch_ray.stages import segment

    monkeypatch.setattr(segment, "_READERS", collections.OrderedDict())
    return Searcher(d)


def test_impact_cache_follows_avg_dl_across_generations(tmp_path, monkeypatch, ray_session):
    """Impacts cached under one generation's avg_dl are not served to the
    next generation, whose Searcher reuses the same segment readers."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from iresearch_ray.pipelines.build import append_index
    from iresearch_ray.sources.transcripts import gen_transcripts_range

    base = gen_transcripts(120)
    d = str(tmp_path / "idx")
    build_index_local(base, d, num_partitions=3)
    s1 = Searcher(d)
    before = {n: s1.search_local(q, k=10) for n, q in IMPACT_QUERIES.items()}

    # doubled texts: the appended docs move the field's avg_dl
    batch = gen_transcripts_range(1000, 1030)
    text = batch["text"]
    batch = batch.set_column(batch.schema.get_field_index("text"), "text",
                             pc.binary_join_element_wise(text, text, " "))
    os.makedirs(tmp_path / "batch")
    pq.write_table(batch, str(tmp_path / "batch" / "part.parquet"))
    append_index(str(tmp_path / "batch"), d, num_partitions=1)

    s2 = Searcher(d)
    assert s2.stats.field("text")[1] != s1.stats.field("text")[1]
    shared = {id(r) for r in s1._shard().readers} & {id(r) for r in s2._shard().readers}
    assert len(shared) == 3, "the new generation did not reuse the old readers"
    fresh = _fresh_searcher(monkeypatch, d)
    oracle = BruteForceOracle(pa.concat_tables([base, batch]))
    changed = 0
    for name, q in IMPACT_QUERIES.items():
        got = s2.search_local(q, k=10)
        assert got.equals(fresh.search_local(q, k=10)), name
        _assert_oracle(s2, oracle, q)
        changed += not got.equals(before[name])
    assert changed


def test_impact_cache_keeps_scorers_apart(monkeypatch, corpus):
    """bm25 and tfidf plans on the same readers each score as on a fresh
    reader and as the oracle does, in either order."""
    searcher, _ = corpus
    tbl = gen_transcripts(120)
    tfidf = F.ScorerCfg("tfidf")
    scorers = [(None, BruteForceOracle(tbl)), (tfidf, BruteForceOracle(tbl, scorer=tfidf))]
    fresh = _fresh_searcher(monkeypatch, searcher.index_dir)
    for q in IMPACT_QUERIES.values():
        for scorer, oracle in scorers * 2:
            got = searcher.search_local(q, k=10, scorer=scorer)
            assert got.equals(fresh.search_local(q, k=10, scorer=scorer)), (q, scorer)
            want = oracle.search(q, k=10)
            assert list(got["conv_id"]) == list(want["conv_id"]), (q, scorer)
            np.testing.assert_allclose(got["score"].to_numpy(), want["score"].to_numpy(dtype=float),
                                       atol=1e-6, rtol=0)


def test_reregistered_custom_scorer_takes_effect(corpus):
    """A custom scorer re-registered under the same name is used by the
    next query, in the term and the bulk-union paths."""
    from iresearch_ray.functions.score import SCORERS, register_scorer

    searcher, _ = corpus
    cfg = F.ScorerCfg("kernel_const")
    queries = (_T("the"), F.Prefix("text", "w030"))
    base = {}
    try:
        for factor in (1.0, 3.0, 0.5):
            register_scorer(
                "kernel_const", idf=lambda n, N: 2.0,
                tf_factor=lambda tf, dl, avg_dl, k1, b, f=factor: np.full(np.shape(tf), f),
            )
            for q in queries:
                # a prefix union sums one 2·factor per matched expansion
                got = searcher.search_local(q, k=5, scorer=cfg)
                want = base.setdefault(str(q), got)
                assert len(got) and list(got["conv_id"]) == list(want["conv_id"])
                assert (got["score"] == factor * want["score"]).all(), (q, factor)
        assert (base[str(queries[0])]["score"] == 2.0).all()
    finally:
        SCORERS.pop("kernel_const", None)


# -- search_local frame contract --------------------------------------------

@pytest.mark.parametrize("flt,k,hits", [
    (_T("agent"), 10, True),
    (F.Or((_T("the"), _T("w0300"))), 7, True),
    (_T("nosuchword"), 10, False),  # no hits in any segment
    (_T("the"), 0, False),
])
def test_search_local_frame_contract(corpus, flt, k, hits):
    """search_local merges the shard's arrays directly; the frame equals the
    merge of the same shard's RESULT_SCHEMA rows."""
    searcher, _ = corpus
    got = searcher.search_local(flt, k=k)
    assert list(got.columns) == ["conv_id", "turn_idx", "score"]
    assert [str(t) for t in got.dtypes] == ["object", "int32", "float64"]
    rows = searcher._shard().topk({"q": searcher.prepare(flt).plan}, k)
    want = merge_topk(rows.to_pandas(), k).drop(columns=["query_id"])
    assert got.equals(want)
    assert len(got) == (k if hits else 0)


# -- fuzzy expansion memo ---------------------------------------------------

def test_fuzzy_expansions_memoized_per_generation(tmp_path):
    from iresearch_ray.pipelines.delete import delete_keys
    from iresearch_ray.pipelines.views import ViewStats

    tbl = gen_transcripts(40)
    d = str(tmp_path / "idx")
    build_index_local(tbl, d, num_partitions=2)
    stats = Searcher(d).stats
    first = stats.fuzzy_terms("text", "agent", 1)
    again = stats.fuzzy_terms("text", "agent", 1)
    assert len(first[0]) and all(a is b for a, b in zip(first, again))
    assert stats.fuzzy_terms("text", "agent", 2)[0].size >= first[0].size
    view = ViewStats([stats, stats])
    v1 = view.fuzzy_terms("text", "agent", 1)
    assert all(a is b for a, b in zip(v1, view.fuzzy_terms("text", "agent", 1)))
    assert np.array_equal(v1[1], 2 * first[1])

    delete_keys(d, [(tbl["conv_id"][0].as_py(), 0)])
    new = Searcher(d).stats
    assert new is not stats and len(new._fuzzy_lru) == 0
    assert all(np.array_equal(a, b) for a, b in zip(new.fuzzy_terms("text", "agent", 1), first))


# -- positional kernels over token offsets -----------------------------------

def test_exact_phrase_stops_at_doc_boundary(tmp_path):
    """c00 ends in "the" and c01 starts with "a": adjacent doc ids, but the
    separator slot between them keeps ("the", "a") from matching across."""
    tbl = _keyed_table([
        "a start that ends with the",
        "a reply that ends on the",
        "then the a pair inside and the a again",
        "nothing here",
    ])
    d = str(tmp_path / "idx")
    build_index_local(tbl, d, num_partitions=1)
    s, oracle = Searcher(d), BruteForceOracle(tbl)
    conv, _turn = s._shard().readers[0].doc_keys
    assert list(conv) == ["c00", "c01", "c02", "c03"]  # consecutive doc ids
    for flt in (F.Phrase("text", ("the", "a")), F.Phrase("text", ("with", "the", "a"))):
        got = _assert_oracle(s, oracle, flt)
        assert not {"c00", "c01"} & set(got["conv_id"]), flt
    got = _assert_oracle(s, oracle, F.Phrase("text", ("the", "a")))
    assert list(got["conv_id"]) == ["c02"]
    # slop and unordered windows stop at the boundary too
    for flt in (F.Phrase("text", ("the", "a"), slop=2),
                F.Phrase("text", ("a", "the"), slop=1, ordered=False)):
        assert "c00" not in set(_assert_oracle(s, oracle, flt)["conv_id"]), flt


def test_position_past_doc_length_raises(tmp_path):
    tbl = _keyed_table(["the a b", "a the a"])
    d = str(tmp_path / "idx")
    build_index_local(tbl, d, num_partitions=1)
    from iresearch_ray.stages.segment import SegmentReader
    from iresearch_ray.state.manifest import load_manifest, segment_dirs

    r = SegmentReader(segment_dirs(d, load_manifest(d))[0])
    r.memo("dls", lambda: np.ones(2, np.int64))  # lengths below the positions
    with pytest.raises(ValueError, match="length"):
        ex._TermCursor(r, {"field": "text", "term": "a"}).offsets()


PHRASE_QUERIES = [
    F.Phrase("text", ("the", "a")),
    F.Phrase("text", ("the", "the")),
    F.Phrase("text", ("a", "the", "agent")),
    F.Phrase("text", ("the", "w0118")),  # rare slot: the probe branch
    F.Phrase("text", ("a", "the"), slop=1),
    F.Phrase("text", ("the", "a", "the"), slop=2),
    F.Phrase("text", ("the", F.Prefix("text", "ag"))),
    F.Phrase("text", (F.Wildcard("text", "w01*"), "the"), slop=1),
    F.Phrase("text", ("a", "agent"), slop=0, ordered=False),
    F.Phrase("text", ("the", "error"), slop=2, ordered=False),
    F.SamePosition("text", ("the", "the")),
    F.SamePosition("text", ("the", "a")),
    F.NgramSimilarity("text", ("the", "agent", "a"), threshold=0.6),
]


def _commit_merge(d, meta):
    from iresearch_ray.state.manifest import commit_manifest, load_manifest

    commit_manifest(d, [meta], load_manifest(d)["config"], lineage={"test_merge": True})


@pytest.fixture(scope="module", params=["fresh", "concat", "shuffle"])
def layout(request, tmp_path_factory, ray_session):
    """A 3-segment index as built, concat-merged into one segment, or
    shuffle-merged into one multi-part segment (hot terms salted), with
    a few phrase hits deleted afterwards."""
    from iresearch_ray.pipelines.delete import delete_keys
    from iresearch_ray.stages.merge import merge_segments
    from iresearch_ray.stages.shuffle_merge import merge_segments_shuffle
    from iresearch_ray.state.manifest import load_manifest

    tbl = gen_transcripts(90)
    d = str(tmp_path_factory.mktemp(f"pos_{request.param}") / "idx")
    build_index_local(tbl, d, num_partitions=3)
    man = load_manifest(d)
    names = [s["name"] for s in man["segments"]]
    if request.param == "concat":
        _commit_merge(d, merge_segments(d, names, man["generation"]))
    elif request.param == "shuffle":
        _commit_merge(d, merge_segments_shuffle(
            d, names, man["generation"], hot_df_threshold=20, num_salts=3,
            num_output_parts=3,
        ))
    hits = Searcher(d).search_local(F.Phrase("text", ("the", "a")), k=40)
    victims = list(zip(hits["conv_id"][::7], hits["turn_idx"][::7].astype(int)))
    delete_keys(d, victims)
    return Searcher(d), BruteForceOracle(tbl), set(victims)


@pytest.mark.parametrize("probe", ["rule", "dense", "probe"])
def test_positional_ops_match_oracle(monkeypatch, layout, probe):
    """Every positional operator equals the brute-force oracle, with the
    deleted docs dropped after scoring, under the dense/probe rule and
    with either branch forced."""
    s, oracle, victims = layout
    if probe != "rule":
        monkeypatch.setattr(ex, "_dense_probe", lambda *a: probe == "dense")
    for flt in PHRASE_QUERIES:
        got = s.search_local(flt, k=30)
        want = oracle.search(flt, k=100_000)
        live = [(c, t) not in victims for c, t in zip(want["conv_id"], want["turn_idx"])]
        want = want[np.array(live, dtype=bool)].head(30)
        assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
            zip(want["conv_id"], want["turn_idx"].astype(int))
        ), flt
        np.testing.assert_allclose(
            got["score"].to_numpy(dtype=float), want["score"].to_numpy(dtype=float),
            atol=1e-6, rtol=0,
        )
    assert len(s.search_local(PHRASE_QUERIES[0], k=30))


# -- bulk posting decode -----------------------------------------------------

def _decode_reference(blob: bytes, counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """One row decoded block by block: deltas then tfs per block."""
    from iresearch_ray.functions.codec import varint_decode

    vals = varint_decode(blob).astype(np.int64)
    docs, tfs, i = [], [], 0
    for c in counts:
        docs.append(vals[i:i + c])
        tfs.append(vals[i + c:i + 2 * c])
        i += 2 * c
    if not docs:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.cumsum(np.concatenate(docs)), np.concatenate(tfs)


def _segment_readers(kind, tmp_path):
    from iresearch_ray.state.crypto import IndexEncryption
    from iresearch_ray.stages.merge import merge_segments
    from iresearch_ray.stages.segment import SegmentReader, terms_paths
    from iresearch_ray.stages.shuffle_merge import merge_segments_shuffle
    from iresearch_ray.state.manifest import load_manifest, segment_dirs

    crypto = IndexEncryption(b"k" * 32) if kind == "encrypted" else None
    d = str(tmp_path / "idx")
    build_index_local(gen_transcripts(150), d, num_partitions=3, crypto=crypto)
    man = load_manifest(d)
    names = [s["name"] for s in man["segments"]]
    if kind == "concat":
        meta = merge_segments(d, names, man["generation"])
    elif kind == "multipart":
        meta = merge_segments_shuffle(d, names, man["generation"], hot_df_threshold=30,
                                      num_salts=3, num_output_parts=4)
    else:
        return [SegmentReader(p, crypto=crypto) for p in segment_dirs(d, man)]
    seg = os.path.join(d, "segments", meta["name"])
    if kind == "multipart":
        assert len(terms_paths(seg)) > 1
    return [SegmentReader(seg)]


@pytest.mark.parametrize("kind", ["fresh", "concat", "multipart", "encrypted"])
def test_decode_postings_bulk_matches_per_row_reference(tmp_path, ray_session, kind):
    from iresearch_ray.functions.codec import (
        BLOCK_SIZE,
        PostingColumns,
        decode_postings,
        decode_postings_bulk,
    )

    uneven = False
    for r in _segment_readers(kind, tmp_path):
        terms = r.terms
        blobs = terms["doc_blob"].to_pylist()
        counts = terms["block_doc_count"].to_pylist()
        want = [_decode_reference(b, c) for b, c in zip(blobs, counts)]
        uneven |= any(c != BLOCK_SIZE for cs in counts for c in cs[:-1])
        cols = PostingColumns.of(terms["doc_blob"], terms["block_doc_count"])
        got = decode_postings_bulk(cols, list(range(terms.num_rows)))
        assert len(got) == len(want)
        for (gd, gt), (wd, wt) in zip(got, want):
            assert gd.dtype == gt.dtype == np.int64
            assert np.array_equal(gd, wd) and np.array_equal(gt, wt)
        # columns of a sliced table (non-zero Arrow offsets), rows reversed
        lo = terms.num_rows // 3
        part = terms.slice(lo, 17).combine_chunks()
        part_cols = PostingColumns.of(part["doc_blob"], part["block_doc_count"])
        for i, (gd, gt) in zip(range(16, -1, -1), decode_postings_bulk(part_cols, range(16, -1, -1))):
            assert np.array_equal(gd, want[lo + i][0]) and np.array_equal(gt, want[lo + i][1])
        for i in (0, lo, terms.num_rows - 1):
            gd, gt = decode_postings(blobs[i], np.asarray(counts[i]))
            assert np.array_equal(gd, want[i][0]) and np.array_equal(gt, want[i][1])
        # the reader's bulk path: rows in shuffled order, duplicates included
        rows = list(np.random.default_rng(0).permutation(terms.num_rows)[:60]) + [0, 0]
        out = r.bulk_postings([int(x) for x in rows])
        for x in rows:
            assert np.array_equal(out[int(x)][0], want[int(x)][0])
            assert np.array_equal(out[int(x)][1], want[int(x)][1])
    if kind == "concat":
        assert uneven, "the concat merge left every block full"


# -- segment top-k selection -------------------------------------------------

def _select_reference(scores: np.ndarray, k: int) -> np.ndarray:
    """The whole-array cut ``_select`` replaced: every position whose score
    reaches the k-th largest, found by np.partition."""
    if scores.size <= k:
        return np.arange(scores.size)
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    return np.flatnonzero(scores >= kth)


def _select_inputs(rng, k: int) -> list[np.ndarray]:
    """Heavy ties, all-equal, -inf padding (dense and clustered), NaN and
    lengths on both sides of the chunk threshold and at n <= k."""
    edge = ex.SELECT_MIN_CHUNK * ex.SELECT_CHUNKS_PER_K * k
    out = []
    for n in sorted({1, k - 1, k, k + 1, edge - 1, edge, edge + 1, 3 * edge + 7, 20_000}):
        if n < 1:
            continue
        out.append(rng.choice([0.0, 0.5, 1.25, 3.0], n))  # 4 distinct scores
        out.append(rng.random(n) * 9)
        out.append(np.full(n, 2.5))
        padded = rng.random(n)
        padded[rng.random(n) < 0.9] = -np.inf  # a sparse accumulator
        out.append(padded)
        clustered = np.full(n, -np.inf)
        clustered[n // 2: n // 2 + k + 2] = rng.choice([1.0, 2.0], min(k + 2, n - n // 2))
        out.append(clustered)  # matches in fewer than k chunks
        nan = rng.random(n)
        nan[rng.integers(0, n, 3)] = np.nan
        out.append(nan)
    return out


@pytest.mark.parametrize("k", [1, 3, 10, 100])
def test_select_matches_partition_reference(k):
    rng = np.random.default_rng(k)
    for scores in _select_inputs(rng, k):
        got = ex._select(scores, k)
        want = _select_reference(scores, k)
        assert np.array_equal(got, want), (scores.size, k)


# a corpus whose rare words qa0..qa4 co-occur: every union of them stays
# under a quarter of its segment's docs (so a dense bound of 0 sends it
# to np.unique) while min_match=3 still has hits in both segments
_FILL = [f"f{i:03d}" for i in range(300)]
_FILL_P = 1.0 / np.arange(1, 301)
_FILL_P /= _FILL_P.sum()
_RARE = ["qa0", "qa1", "qa2", "qa3", "qa4"]


def _rare_table(seed: int = 7, n_convs: int = 400) -> pa.Table:
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(n_convs):
        for t in range(5):
            words = list(rng.choice(_FILL, int(rng.integers(4, 16)), p=_FILL_P))
            if rng.random() < 0.04:
                words += list(rng.choice(_RARE, int(rng.integers(3, 5)), replace=False))
            elif rng.random() < 0.1:
                words.append(str(rng.choice(_RARE)))
            rng.shuffle(words)
            rows.append({"conv_id": f"c{c:04d}", "turn_idx": t, "text": " ".join(words),
                         "role": "user", "tool": None})
    return pa.Table.from_pylist(rows)


@pytest.fixture(scope="module")
def rare_corpus(tmp_path_factory):
    """Two ~1000-doc segments, with every 9th turn deleted."""
    from iresearch_ray.pipelines.delete import delete_keys

    tbl = _rare_table()
    d = str(tmp_path_factory.mktemp("rare") / "idx")
    build_index_local(tbl, d, num_partitions=2)
    victims = set(zip(tbl["conv_id"].to_pylist()[::9], tbl["turn_idx"].to_pylist()[::9]))
    delete_keys(d, list(victims))
    return d, tbl, victims


def _R(i):
    return F.Term("text", _RARE[i])


UNION_ROOTS = {
    "or": F.Or((_R(0), _R(2), _R(4))),
    "minmatch2": F.Or(tuple(map(_R, range(5))), min_match=2),
    "minmatch3": F.Or(tuple(map(_R, range(5))), min_match=3),
    "prefix": F.Prefix("text", "qa"),
    "fuzzy": F.Fuzzy("text", "qa1", 1),
    # zero-score unscored_terms legs: heavy ties at score 0
    "unscored": F.Prefix("text", "qa", scored_terms_limit=2),
    "unscored_mm": F.Or((F.Fuzzy("text", "qa3", 1, scored_terms_limit=1), _R(0)), min_match=2),
}


@pytest.mark.parametrize("scorer", ["bm25", "tfidf"])
@pytest.mark.parametrize("branch", ["dense", "sparse"])
@pytest.mark.parametrize("name", sorted(UNION_ROOTS))
def test_union_root_topk_matches_oracle(monkeypatch, rare_corpus, name, branch, scorer):
    """A union root cut straight from its accumulator (or, with the dense
    bound at 0, through np.unique) equals the brute-force oracle with the
    deleted docs dropped, at k = 0, 1, 3, 10 and 100."""
    from iresearch_ray.query.filters import ScorerCfg

    d, tbl, victims = rare_corpus
    cfg = ScorerCfg(name=scorer)
    s, oracle = Searcher(d), BruteForceOracle(tbl, scorer=cfg)
    dense, sparse = [], []
    accumulate, sum_by_doc = ex._accumulate, ex._sum_by_doc

    def acc_spy(docs, scores, min_match, n_docs):
        out = accumulate(docs, scores, min_match, n_docs)
        dense.append(out is not None)
        return out

    def sum_spy(docs, scores, min_match, n_docs):
        sparse.append(n_docs > max(ex.DENSE_UNION_IDS, 4 * docs.size))
        return sum_by_doc(docs, scores, min_match, n_docs)

    monkeypatch.setattr(ex, "_accumulate", acc_spy)
    monkeypatch.setattr(ex, "_sum_by_doc", sum_spy)
    if branch == "sparse":
        monkeypatch.setattr(ex, "DENSE_UNION_IDS", 0)
    flt = UNION_ROOTS[name]
    want = oracle.search(flt, k=100_000)
    live = [(c, t) not in victims for c, t in zip(want["conv_id"], want["turn_idx"])]
    want = want[np.array(live, dtype=bool)]
    assert len(want) > 10, "the case must have more live hits than the cut"
    for k in (0, 1, 3, 10, 100):
        got = s.search_local(flt, k=k, scorer=cfg)
        exp = want.head(k)
        assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
            zip(exp["conv_id"], exp["turn_idx"].astype(int))
        ), (flt, k)
        np.testing.assert_allclose(
            got["score"].to_numpy(dtype=float), exp["score"].to_numpy(dtype=float),
            atol=1e-6, rtol=0,
        )
    if branch == "dense":
        assert any(dense) and not any(sparse), "the accumulator cut did not run"
    else:
        assert any(sparse), "np.unique branch did not run"


SLOP_QUERIES = [
    F.Phrase("text", ("the", "the"), slop=1),
    F.Phrase("text", ("the", "the"), slop=2),
    F.Phrase("text", ("a", "the", "agent"), slop=1),
    F.Phrase("text", ("a", "the", "agent"), slop=2),
    F.Phrase("text", ("the", "a", "the"), slop=1),
    F.Phrase("text", ("agent", "the", "the"), slop=2),
]


def test_slop_chain_matches_oracle(layout):
    """The ordered slop > 0 chain (adjacent-repeat dedupe of each step's
    next offsets) equals the brute-force oracle on repeated-term and
    3-term phrases, with the deleted docs dropped."""
    s, oracle, victims = layout
    for flt in SLOP_QUERIES:
        got = s.search_local(flt, k=30)
        want = oracle.search(flt, k=100_000)
        live = [(c, t) not in victims for c, t in zip(want["conv_id"], want["turn_idx"])]
        want = want[np.array(live, dtype=bool)].head(30)
        assert len(got)
        assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
            zip(want["conv_id"], want["turn_idx"].astype(int))
        ), flt
        np.testing.assert_allclose(
            got["score"].to_numpy(dtype=float), want["score"].to_numpy(dtype=float),
            atol=1e-6, rtol=0,
        )


# -- shard highlights --------------------------------------------------------

@pytest.mark.parametrize("source", ["stored", "index"])
def test_shard_highlights_spans_for_survivors_only(monkeypatch, tmp_path, source):
    """A shard computes spans for at most k hits per query, and its frame
    after the driver merge equals every segment's top-k with spans merged
    at the driver."""
    from iresearch_ray.functions import highlight as H
    from iresearch_ray.pipelines.delete import delete_keys
    from iresearch_ray.stages.segment import IndexConfig

    tbl = gen_transcripts(80)
    d = str(tmp_path / "idx")
    build_index_local(tbl, d, cfg=IndexConfig(offsets=True), num_partitions=4)
    delete_keys(d, list(zip(tbl["conv_id"].to_pylist()[::13], tbl["turn_idx"].to_pylist()[::13])))
    s = Searcher(d)
    shard = s._shard()
    queries = {"a": F.Or((_T("agent"), _T("error"))), "b": F.Term("text", "the"),
               "c": F.Phrase("text", ("the", "a")), "d": F.Term("text", "nosuchword")}
    plans = s._plans(queries, None)
    seen = {}
    kernel = H.spans_for_hits

    def spy(reader, docs, terms, field, src):
        key = tuple(terms)
        seen[key] = seen.get(key, 0) + len(docs)
        return kernel(reader, docs, terms, field, src)

    monkeypatch.setattr(H, "spans_for_hits", spy)
    for k in (1, 5, 12):
        seen.clear()
        got = merge_topk(shard.highlight(plans, k, "text", source), k)
        assert seen and max(seen.values()) <= k
        # reference: spans for every segment's top-k, merged at the driver
        rows = []
        for qid, plan in plans.items():
            terms = sorted(H.plan_terms(plan["root"], "text"))
            for r, dm in zip(shard.readers, shard.deleted):
                docs, score = ex.segment_topk_docs(r, plan, k, dm)
                texts, spans = kernel(r, docs, terms, "text", source)
                conv, turn = ex.doc_keys_of(r, docs)
                rows += [
                    {"query_id": qid, "conv_id": c, "turn_idx": int(t), "score": float(v),
                     "text": x, "spans": sp}
                    for c, t, v, x, sp in zip(conv, turn, score, texts, spans)
                ]
        want = merge_topk(pd.DataFrame(rows), k)
        assert len(got) == len(want) > 0
        for col in ("query_id", "conv_id", "turn_idx", "score", "text", "spans"):
            assert list(got[col]) == list(want[col]), (k, col)
