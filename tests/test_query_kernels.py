"""The array kernels of the query path: the driver merge (``merge_topk`` /
``_merge_rows``) against the pandas sort + groupby reference it replaced,
and both branches of the union aggregation ``_sum_by_doc`` against the
brute-force oracle."""

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
