"""Deletes / tombstones — SURVEY §2.3 remove-by-filter + document masks:
query-time masking, purge-on-consolidation, docs_fill policy, tombstone
clearing."""

import numpy as np
import pytest

from iresearch_ray import Searcher, build_index
from iresearch_ray.pipelines.consolidate import consolidate
from iresearch_ray.pipelines.delete import delete_by_filter, delete_keys
from iresearch_ray.query import filters as F
from iresearch_ray.sources.transcripts import gen_transcripts


@pytest.fixture()
def idx(tmp_path, ray_session):
    import ray.data as rd

    tbl = gen_transcripts(150)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(tbl), d, num_partitions=4)
    return d, tbl


def _keys(df):
    return set(zip(df["conv_id"], df["turn_idx"]))


def test_delete_keys_masks_results(idx):
    d, tbl = idx
    s = Searcher(d)
    before = s.search_local(F.Term("text", "agent"), k=100_000)
    victims = list(_keys(before))[:5]
    m = delete_keys(d, victims)
    assert len(m["tombstones"]) == 1

    s2 = Searcher(d)
    after = s2.search_local(F.Term("text", "agent"), k=100_000)
    assert _keys(after) == _keys(before) - set(victims)
    # scores of surviving docs unchanged (stats still count masked docs
    # until a merge — reference semantics)
    merged = before.merge(after, on=["conv_id", "turn_idx"], suffixes=("_b", "_a"))
    assert np.allclose(merged["score_b"], merged["score_a"])
    # distributed path agrees
    ray_out = s2.search_ray({"q": F.Term("text", "agent")}, k=100_000, concurrency=2)
    assert _keys(ray_out) == _keys(after)


def test_delete_by_filter_and_purge(idx):
    d, tbl = idx
    m = delete_by_filter(d, F.Term("role", "tool"))
    s = Searcher(d)
    hits = s.search_local(F.Term("role", "tool"), k=100_000)
    assert len(hits) == 0  # all tool turns masked

    # other queries still see non-tool docs
    res = s.search_local(F.Term("text", "the"), k=100_000)
    roles = dict(zip(zip(tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist()), tbl["role"].to_pylist()))
    assert all(roles[(c, t)] != "tool" for c, t in _keys(res))

    # purge via docs_fill (threshold 1.0: any deletion triggers rewrite)
    m2 = consolidate(d, policy="docs_fill", policy_kwargs={"threshold": 1.01}, gc=True)
    assert m2.get("tombstones") == []  # cleared after purge
    s3 = Searcher(d)
    assert len(s3.search_local(F.Term("role", "tool"), k=100_000)) == 0
    # doc count shrank to live docs
    n_tool = sum(r == "tool" for r in tbl["role"].to_pylist())
    assert m2["docs_count"] == tbl.num_rows - n_tool
    # post-purge results identical to pre-purge masked results
    res2 = s3.search_local(F.Term("text", "the"), k=100_000)
    assert _keys(res2) == _keys(res)


def test_masked_or_matches_oracle(idx):
    """A masked Or ranks exactly as the brute-force oracle with the deleted
    keys dropped: masked docs still count in the stats until a merge, and
    the top-k cut happens after the mask."""
    from iresearch_ray.query.oracle import BruteForceOracle

    d, tbl = idx
    f = F.Or((F.Term("text", "agent"), F.Term("text", "error")))
    before = Searcher(d).search_local(f, k=15)
    victims = set(list(_keys(before))[:3])
    delete_keys(d, list(victims))
    got = Searcher(d).search_local(f, k=15)
    want = BruteForceOracle(tbl).search(f, k=100_000)
    want = want[
        [(c, t) not in victims for c, t in zip(want["conv_id"], want["turn_idx"])]
    ].head(15)
    assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
        zip(want["conv_id"], want["turn_idx"].astype(int))
    )
    np.testing.assert_allclose(
        got["score"].to_numpy(dtype=float),
        want["score"].to_numpy(dtype=float),
        atol=1e-6,
        rtol=0,
    )


def test_delete_is_idempotent_and_versioned(idx):
    d, _ = idx
    m1 = delete_keys(d, [("conv-0000001", 0)])
    g1 = m1["generation"]
    m2 = delete_keys(d, [("conv-0000001", 0)])  # same content-hash file
    assert len(m2["tombstones"]) == 1
    assert m2["generation"] == g1 + 1  # new generation, same tombstone set


def test_update_rows_replaces_and_scopes(idx):
    """Update = delete + re-insert in one generation; scoped tombstones must
    NOT mask the re-inserted copies (the per-segment doc-mask semantics)."""
    import pyarrow as pa

    from iresearch_ray.pipelines.delete import update_rows

    d, tbl = idx
    victims = tbl.slice(0, 3)
    new_rows = victims.to_pylist()
    for r in new_rows:
        r["text"] = "replacement text entirely unique zzzupdated"
    m = update_rows(d, pa.Table.from_pylist(new_rows, schema=tbl.schema))
    assert any(s["lineage"].get("update") for s in m["segments"] if "lineage" in s)

    s = Searcher(d)
    # new text is findable at the SAME keys
    hits = s.search_local(F.Term("text", "zzzupdated"), k=100)
    got = set(zip(hits["conv_id"], hits["turn_idx"]))
    exp = set(zip(victims["conv_id"].to_pylist(), victims["turn_idx"].to_pylist()))
    assert got == exp
    # old text of those keys is gone
    old_tokens = set(victims["text"].to_pylist()[0].split(" ")) - {"the", "a"}
    tok = next(iter(old_tokens))
    res = s.search_local(F.Term("text", tok), k=100_000)
    assert not (exp & set(zip(res["conv_id"], res["turn_idx"]))) or tok in "zzzupdated"
    # each key appears exactly once in AllDocs
    alld = s.search_local(F.AllDocs(), k=10_000_000)
    keys = list(zip(alld["conv_id"], alld["turn_idx"]))
    assert len(keys) == len(set(keys)) == tbl.num_rows

    # second update of the same keys layers correctly
    for r in new_rows:
        r["text"] = "second replacement qqqagain"
    update_rows(d, pa.Table.from_pylist(new_rows, schema=tbl.schema))
    s2 = Searcher(d)
    assert len(s2.search_local(F.Term("text", "zzzupdated"), k=100)) == 0
    hits2 = s2.search_local(F.Term("text", "qqqagain"), k=100)
    assert set(zip(hits2["conv_id"], hits2["turn_idx"])) == exp
    alld2 = s2.search_local(F.AllDocs(), k=10_000_000)
    keys2 = list(zip(alld2["conv_id"], alld2["turn_idx"]))
    assert len(keys2) == len(set(keys2)) == tbl.num_rows


def test_nested_respects_tombstones(idx):
    """Regression (round-2 review): deleted TURNS must not count toward a
    Nested filter's min_match / score, and a conversation whose first
    matching turn was deleted must survive via its remaining turns."""
    d, tbl = idx
    s0 = Searcher(d)
    q = F.Nested(F.Term("text", "error"), min_match=2, score_merge="sum")
    before = s0.search_local(q, k=100_000)
    assert len(before) > 0

    # delete the representative (first matching) turn of the top conv
    top_conv = before.iloc[0]["conv_id"]
    child_hits = s0.search_local(F.Term("text", "error"), k=100_000)
    conv_turns = sorted(
        int(t) for c, t in zip(child_hits["conv_id"], child_hits["turn_idx"]) if c == top_conv
    )
    assert len(conv_turns) >= 2
    delete_keys(d, [(top_conv, conv_turns[0])])

    s1 = Searcher(d)
    after = s1.search_local(q, k=100_000)
    # brute expectation: recompute nested from the masked child hits
    child_after = s1.search_local(F.Term("text", "error"), k=100_000)
    from collections import defaultdict

    per_conv = defaultdict(list)
    for c, t, sc in zip(child_after["conv_id"], child_after["turn_idx"], child_after["score"]):
        per_conv[c].append((int(t), float(sc)))
    exp = {}
    for c, lst in per_conv.items():
        if len(lst) >= 2:
            lst.sort()
            exp[c] = (lst[0][0], sum(sc for _, sc in lst))
    got = {c: (int(t), float(sc)) for c, t, sc in zip(after["conv_id"], after["turn_idx"], after["score"])}
    assert set(got) == set(exp)
    for c in got:
        assert got[c][0] == exp[c][0], c          # representative = first LIVE match
        assert abs(got[c][1] - exp[c][1]) < 1e-9  # deleted turn excluded from sum
    # the deleted turn's conv either survives via other turns or is gone;
    # it must NOT appear represented by the deleted turn
    assert (top_conv, conv_turns[0]) not in set(zip(after["conv_id"], after["turn_idx"]))


def test_empty_phrase_matches_nothing(idx):
    d, _ = idx
    s = Searcher(d)
    assert len(s.search_local(F.Phrase("text", ()), k=10)) == 0
