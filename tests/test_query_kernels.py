"""The array kernels of the query path: the driver merge (``merge_topk`` /
``_merge_rows``) against the pandas sort + groupby reference it replaced,
both branches of the union aggregation ``_sum_by_doc`` against the
brute-force oracle, the keys of the per-segment impact cache, the
``search_local`` frame contract and the fuzzy expansion memo."""

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
