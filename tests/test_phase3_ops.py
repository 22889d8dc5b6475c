"""Phase-3 operators: same-position filter, ngram-similarity filter,
index import, minhash analyzer indexing (SURVEY §2.1/§2.3/§2.4)."""

import numpy as np
import pytest

from iresearch_ray import Searcher, build_index
from iresearch_ray.pipelines.consolidate import import_index
from iresearch_ray.query import filters as F
from iresearch_ray.sources.transcripts import gen_transcripts
from iresearch_ray.stages.segment import IndexConfig


@pytest.fixture(scope="module")
def idx(tmp_path_factory, ray_session):
    import ray.data as rd

    tbl = gen_transcripts(150)
    d = str(tmp_path_factory.mktemp("p3") / "idx")
    build_index(rd.from_arrow(tbl), d, num_partitions=3)
    return d, tbl


def _brute_rows(tbl):
    return {
        (c, t): txt.split(" ")
        for c, t, txt in zip(
            tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist(), tbl["text"].to_pylist()
        )
    }


def test_same_position_vs_brute(idx):
    d, tbl = idx
    s = Searcher(d)
    # same token at same position in different "fields" is trivial; test the
    # degenerate-but-well-defined single-term case + the 2-term case
    out = s.search_local(F.SamePosition("text", ("the", "a")), k=100_000)
    rows = _brute_rows(tbl)
    exp = set()
    for key, toks in rows.items():
        if any(t == "the" for t in toks) and any(x == "a" for x in toks):
            # same position of two DIFFERENT terms is impossible — must be empty
            pass
    assert len(out) == 0  # distinct terms can't share a position

    out1 = s.search_local(F.SamePosition("text", ("agent",)), k=100_000)
    exp1 = {k for k, toks in rows.items() if "agent" in toks}
    assert set(zip(out1["conv_id"], out1["turn_idx"])) == exp1


def test_ngram_similarity_vs_brute(idx):
    d, tbl = idx
    s = Searcher(d)
    q = ("agent", "error", "plan")
    thr = 0.66
    out = s.search_local(F.NgramSimilarity("text", q, threshold=thr), k=100_000)
    rows = _brute_rows(tbl)

    def lcs_ratio(toks):
        events = [(i, q.index(t)) for i, t in enumerate(toks) if t in q]
        seq = [j for _, j in sorted(events)]
        n = len(q)
        prev = [0] * (n + 1)
        for x in seq:
            cur = prev[:]
            for k in range(1, n + 1):
                if x == k - 1:
                    cur[k] = max(cur[k], prev[k - 1] + 1)
                cur[k] = max(cur[k], cur[k - 1], prev[k])
            prev = cur
        return prev[n] / n

    exp = {k: lcs_ratio(t) for k, t in rows.items() if lcs_ratio(t) >= thr}
    got = dict(zip(zip(out["conv_id"], out["turn_idx"]), out["score"]))
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-9  # boost=1 ⇒ score == ratio


def test_import_index(idx, tmp_path, ray_session):
    import shutil

    import ray.data as rd

    d0, tbl = idx
    d = str(tmp_path / "copy")
    shutil.copytree(d0, d)  # don't mutate the shared module fixture
    other_tbl = gen_transcripts(40, seed=777)
    other = str(tmp_path / "other")
    build_index(rd.from_arrow(other_tbl), other, num_partitions=2)
    # configs match (defaults) → import attaches segments
    m = import_index(d, other)
    assert m["docs_count"] == tbl.num_rows + other_tbl.num_rows
    s = Searcher(d)
    out = s.search_local(F.Term("text", "the"), k=1_000_000)
    assert len(out) > 0
    # imported docs are queryable
    rows = _brute_rows(other_tbl)
    exp_any = {k for k, toks in rows.items() if "the" in toks}
    got = set(zip(out["conv_id"], out["turn_idx"]))
    assert exp_any <= got


def test_minhash_field_near_dup_retrieval(tmp_path, ray_session):
    import pyarrow as pa
    import ray.data as rd

    from iresearch_ray.functions.analysis import get_analyzer

    base = gen_transcripts(60)
    # plant a near-duplicate of turn (conv-0000000, 0) as a new conv
    rows = base.to_pylist()
    src = rows[0]
    dup = dict(src)
    dup["conv_id"] = "conv-dup0000"
    dup["text"] = src["text"] + " extra token"
    tbl = pa.Table.from_pylist(rows + [dup], schema=base.schema)

    d = str(tmp_path / "mh")
    cfg = IndexConfig(analyzer="minhash", analyzer_opts={"num_hashes": 32}, positions=False)
    build_index(rd.from_arrow(tbl), d, cfg=cfg, num_partitions=2)
    s = Searcher(d)
    mh = get_analyzer("minhash", num_hashes=32)
    sketch = mh([src["text"]])[0]
    out = s.search_local(
        F.Terms("text", tuple(sketch), min_match=16), k=10
    )
    keys = set(zip(out["conv_id"], out["turn_idx"]))
    assert (src["conv_id"], src["turn_idx"]) in keys
    assert ("conv-dup0000", dup["turn_idx"]) in keys


def test_sloppy_phrase_vs_brute(idx):
    """Pinned slop semantics: each next term within 1+slop after the previous
    match, greedy earliest-advance (optimal by exchange argument)."""
    d, tbl = idx
    s = Searcher(d)
    rows = _brute_rows(tbl)

    def brute(terms, slop):
        out = set()
        for k, toks in rows.items():
            for p in (i for i, t in enumerate(toks) if t == terms[0]):
                cur, ok = p, True
                for term in terms[1:]:
                    nxts = [i for i, t in enumerate(toks) if t == term and cur < i <= cur + 1 + slop]
                    if not nxts:
                        ok = False
                        break
                    cur = min(nxts)
                if ok:
                    out.add(k)
                    break
        return out

    for terms, slop in [(("the", "a"), 2), (("agent", "error"), 4), (("the", "a", "the"), 1)]:
        got = s.search_local(F.Phrase("text", terms, slop=slop), k=100_000)
        assert set(zip(got["conv_id"], got["turn_idx"])) == brute(terms, slop), (terms, slop)
