"""Per-occurrence payloads — the ``payload`` token attribute stored in the
posting format (IndexConfig(payloads=True) + the delimited_payload
analyzer).  Verified by codec round-trip, analyzer goldens, an end-to-end
build→retrieve comparison against a pandas brute-force oracle, and merge
survival (the splice byte-appends the payload stream like positions)."""

import numpy as np
import pyarrow as pa
import pytest

from iresearch_ray.functions.analysis import DelimitedPayloadAnalyzer
from iresearch_ray.functions.codec import (
    BLOCK_SIZE,
    decode_payloads,
    encode_postings,
)
from iresearch_ray.functions.payload import payload_sum_topk, term_payloads
from iresearch_ray.pipelines.build import build_index_local
from iresearch_ray.pipelines.search import Searcher
from iresearch_ray.stages.merge import merge_segments
from iresearch_ray.stages.segment import IndexConfig
from iresearch_ray.state.manifest import commit_manifest


@pytest.mark.parametrize("n_docs", [1, 5, BLOCK_SIZE + 3])
def test_payload_codec_roundtrip(n_docs):
    rng = np.random.default_rng(n_docs)
    docs = np.sort(rng.choice(np.arange(1, n_docs * 3), n_docs, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 4, n_docs).astype(np.int64)
    n_occ = int(tfs.sum())
    pays = [
        (b"" if i % 7 == 0 else f"{i * 0.5:.2f}".encode()) for i in range(n_occ)
    ]
    blob = encode_postings(docs, tfs, None, None, pays)
    assert blob.pay_blob and blob.pay_off is not None
    nblocks = blob.block_doc_count.size
    got = []
    for b in range(nblocks):
        got += decode_payloads(
            blob.pay_blob, blob.pay_off, tfs, b, nblocks, blob.block_doc_count
        )
    assert got == pays


def test_delimited_payload_analyzer_goldens():
    an = DelimitedPayloadAnalyzer()
    assert an.tokenize_one_with_payloads("Fast|2.0 car|0.5 plain") == [
        ("fast", b"2.0"),
        ("car", b"0.5"),
        ("plain", b""),
    ]
    # split at the LAST delimiter; empty term part -> whole chunk is term
    assert an.tokenize_one_with_payloads("a|b|3") == [("a|b", b"3")]
    assert an.tokenize_one_with_payloads("|x") == [("x", b"")]
    assert an.tokenize_one_with_payloads(None) == []
    assert an(["One|1 two"]) == [["one", "two"]]
    with pytest.raises(ValueError, match="one character"):
        DelimitedPayloadAnalyzer(delimiter="||")


def _corpus(rng, n_convs=25):
    words = ["error", "agent", "tool", "retry", "plan"]
    rows = []
    for c in range(n_convs):
        for t in range(int(rng.integers(1, 4))):
            toks = [
                f"{rng.choice(words)}|{rng.integers(1, 9)}.{rng.integers(0, 9)}"
                for _ in range(int(rng.integers(2, 12)))
            ]
            rows.append(
                {"conv_id": f"c{c:03d}", "turn_idx": t, "text": " ".join(toks),
                 "role": "user", "tool": None}
            )
    return pa.Table.from_pylist(rows)


def _brute(tbl: pa.Table, term: str):
    """Oracle: per (conv, turn), payload strings + float sum for `term`."""
    an = DelimitedPayloadAnalyzer()
    pays, sums = {}, {}
    for row in tbl.to_pylist():
        key = (row["conv_id"], row["turn_idx"])
        p = [b for t, b in an.tokenize_one_with_payloads(row["text"]) if t == term]
        if p:
            pays[key] = p
            sums[key] = sum(float(x) for x in p)
    return pays, sums


def test_payload_index_end_to_end(tmp_path):
    rng = np.random.default_rng(11)
    tbl = _corpus(rng)
    d = str(tmp_path / "idx")
    cfg = IndexConfig(analyzer="delimited_payload", payloads=True)
    build_index_local(tbl, d, cfg=cfg, num_partitions=3)
    s = Searcher(d)
    exp_pays, exp_sums = _brute(tbl, "error")
    got = term_payloads(s, "text", "error")
    assert {(r.conv_id, r.turn_idx): r.payloads for r in got.itertuples()} == exp_pays
    topk = payload_sum_topk(s, "text", "error", k=5)
    exp_rank = sorted(exp_sums.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert [((r.conv_id, r.turn_idx), round(r.score, 6)) for r in topk.itertuples()] == [
        (k, round(v, 6)) for k, v in exp_rank
    ]


def test_pooled_payload_topk_matches_local(tmp_path, ray_session):
    from iresearch_ray.functions.payload import payload_sum_topk_pooled

    rng = np.random.default_rng(13)
    tbl = _corpus(rng)
    d = str(tmp_path / "idx")
    build_index_local(
        tbl, d, cfg=IndexConfig(analyzer="delimited_payload", payloads=True),
        num_partitions=3,
    )
    s = Searcher(d)
    try:
        for term in ("error", "agent", "absent_term"):
            local = payload_sum_topk(s, "text", term, k=7)
            pooled = payload_sum_topk_pooled(s, "text", term, k=7, num_actors=2)
            assert local.to_csv() == pooled.to_csv(), term
    finally:
        s.close()


def test_payloads_survive_merge(tmp_path):
    rng = np.random.default_rng(12)
    tbl = _corpus(rng)
    d = str(tmp_path / "idx")
    cfg = IndexConfig(analyzer="delimited_payload", payloads=True)
    man = build_index_local(tbl, d, cfg=cfg, num_partitions=3)
    s = Searcher(d)
    before = term_payloads(s, "text", "agent")
    names = [sm["name"] for sm in man["segments"]]
    merged = merge_segments(d, names, generation=man["generation"] + 1)
    commit_manifest(d, [merged], config=man["config"])
    s2 = Searcher(d)
    after = term_payloads(s2, "text", "agent")
    assert before.to_csv() == after.to_csv()


def test_payload_errors(tmp_path):
    rows = pa.Table.from_pylist(
        [{"conv_id": "c0", "turn_idx": 0, "text": "alpha beta",
          "role": "u", "tool": None}]
    )
    with pytest.raises(ValueError, match="payload-emitting"):
        build_index_local(rows, str(tmp_path / "bad"), cfg=IndexConfig(payloads=True))
    d = str(tmp_path / "plain")
    build_index_local(rows, d)
    with pytest.raises(ValueError, match="payloads=True"):
        term_payloads(Searcher(d), "text", "alpha")
