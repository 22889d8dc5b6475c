"""Indexed character offsets — the reference's ``offs`` token attribute
stored in the posting format (SURVEY §2.1 token_attributes.hpp offset;
IndexConfig(offsets=True)).  Verified three ways: codec round-trip,
vectorized-vs-regex span extraction parity, and index-served highlights
span-identical to the recompute-from-stored-text path (including across a
merge, whose splice byte-appends the offset stream)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iresearch_ray.functions.analysis import _WORD_RE, token_spans_ascii
from iresearch_ray.functions.codec import (
    BLOCK_SIZE,
    decode_offsets,
    encode_postings,
)
from iresearch_ray.functions.highlight import highlights
from iresearch_ray.pipelines.build import build_index_local
from iresearch_ray.pipelines.search import Searcher
from iresearch_ray.query import filters as F
from iresearch_ray.stages.merge import merge_segments
from iresearch_ray.stages.segment import IndexConfig
from iresearch_ray.state.manifest import commit_manifest


# ---------------------------------------------------------------------------
# codec round-trip
# ---------------------------------------------------------------------------

def _random_postings(rng, n_docs):
    doc_ids = np.sort(rng.choice(np.arange(1, n_docs * 3), size=n_docs, replace=False))
    tfs = rng.integers(1, 5, size=n_docs)
    n_occ = int(tfs.sum())
    # per-doc ascending positions and spans
    pos, starts, ends = [], [], []
    for tf in tfs:
        p = np.sort(rng.choice(np.arange(200), size=tf, replace=False))
        s = p * 6  # token i starts at char 6i (fake but ascending)
        pos += p.tolist()
        starts += s.tolist()
        ends += (s + rng.integers(1, 6, size=tf)).tolist()
    return (
        doc_ids.astype(np.int64),
        tfs.astype(np.int64),
        np.array(pos, dtype=np.int64),
        np.array(starts, dtype=np.int64),
        np.array(ends, dtype=np.int64),
    )


@pytest.mark.parametrize("n_docs", [1, 3, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 7])
def test_offsets_codec_roundtrip(n_docs):
    rng = np.random.default_rng(n_docs)
    doc_ids, tfs, pos, o_s, o_e = _random_postings(rng, n_docs)
    blob = encode_postings(doc_ids, tfs, pos, (o_s, o_e))
    assert blob.off_blob and blob.off_off is not None
    nblocks = blob.block_doc_count.size
    got_s, got_e = [], []
    for b in range(nblocks):
        s, e = decode_offsets(
            blob.off_blob, blob.off_off, tfs, b, nblocks, blob.block_doc_count
        )
        got_s += s.tolist()
        got_e += e.tolist()
    assert got_s == o_s.tolist()
    assert got_e == o_e.tolist()


def test_offsets_codec_absent():
    blob = encode_postings(
        np.array([1, 5]), np.array([1, 2]), np.array([0, 1, 2])
    )
    assert blob.off_blob == b"" and blob.off_off is None


# ---------------------------------------------------------------------------
# vectorized span extraction == regex span extraction
# ---------------------------------------------------------------------------

_ascii_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=60
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ascii_text, max_size=8))
def test_token_spans_ascii_matches_regex(docs):
    got = token_spans_ascii(pa.array(docs, pa.string()))
    exp = [
        (m.start(), m.end())
        for d in docs
        for m in _WORD_RE.finditer(d.lower())
    ]
    assert got is not None
    assert list(zip(got[0].tolist(), got[1].tolist())) == exp


def test_token_spans_ascii_rejects_non_ascii():
    assert token_spans_ascii(pa.array(["héllo"])) is None
    assert token_spans_ascii(pa.array(["ok", None])) is None


# ---------------------------------------------------------------------------
# index-served highlights == stored-text highlights
# ---------------------------------------------------------------------------

def _corpus(rng, n_convs=30):
    words = ["error", "agent", "tool", "retry", "the", "a", "Errors", "fail", "ok"]
    rows = []
    for c in range(n_convs):
        for t in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 25))
            txt = " ".join(rng.choice(words, n)) + ("!" if n % 2 else ".")
            rows.append(
                {"conv_id": f"c{c:03d}", "turn_idx": t, "text": txt,
                 "role": "user", "tool": None}
            )
    return pa.Table.from_pylist(rows)


_FILTERS = [
    F.Term("text", "error"),
    F.Or((F.Term("text", "agent"), F.Term("text", "retry"))),
    F.Phrase("text", ("the", "a")),
    F.Prefix("text", "err"),
]


def _assert_parity(s):
    for flt in _FILTERS:
        a = highlights(s, flt, k=20, source="stored")
        b = highlights(s, flt, k=20, source="index")
        assert list(a["spans"]) == list(b["spans"])
        assert list(a["text"]) == list(b["text"])
        for txt, sp in zip(a["text"], a["spans"]):
            for lo, hi in sp:
                assert _WORD_RE.fullmatch(txt[lo:hi])  # spans are whole tokens


def test_index_offsets_highlight_parity(tmp_path):
    d = str(tmp_path / "idx")
    build_index_local(
        _corpus(np.random.default_rng(3)), d,
        cfg=IndexConfig(offsets=True), num_partitions=3,
    )
    _assert_parity(Searcher(d))


def test_index_offsets_survive_merge(tmp_path):
    d = str(tmp_path / "idx")
    man = build_index_local(
        _corpus(np.random.default_rng(4)), d,
        cfg=IndexConfig(offsets=True), num_partitions=3,
    )
    names = [s["name"] for s in man["segments"]]
    merged = merge_segments(d, names, generation=man["generation"] + 1)
    commit_manifest(
        d, [merged], config=man["config"],
        lineage={"consolidated_from": names},
    )
    s = Searcher(d)
    assert len(s.manifest["segments"]) == 1
    _assert_parity(s)


def test_offsets_with_stopwords_and_stemmer(tmp_path):
    # python span path: stopwords drop (token, span) pairs together; a
    # stemmed token keeps its surface span
    rows = pa.Table.from_pylist(
        [{"conv_id": "c0", "turn_idx": 0,
          "text": "the agents keep retrying the plan", "role": "u", "tool": None}]
    )
    d = str(tmp_path / "idx")
    build_index_local(
        rows, d,
        cfg=IndexConfig(
            offsets=True,
            analyzer_opts={"stopwords": ["the"], "stemmer": True},
        ),
    )
    s = Searcher(d)
    # 'agents' stems to 'agent'; the span covers the surface form 'agents'
    h = highlights(s, F.Term("text", "agent"), k=5, source="index")
    assert list(h["spans"]) == [[(4, 10)]]
    assert h["text"][0][4:10] == "agents"
    # stopword 'the' is not indexed at all
    assert highlights(s, F.Term("text", "the"), k=5, source="index").empty


def test_pooled_highlights_match_local(tmp_path, ray_session):
    """Distributed highlights (spans computed inside the shard-owning pool
    actors) must equal the driver-local path row-for-row, for both span
    sources."""
    d = str(tmp_path / "idx")
    build_index_local(
        _corpus(np.random.default_rng(6)), d,
        cfg=IndexConfig(offsets=True), num_partitions=3,
    )
    s = Searcher(d)
    try:
        for source in ("stored", "index"):
            for flt in _FILTERS[:3]:
                local = highlights(s, flt, k=12, source=source)
                pooled = s.highlights_pooled({"q": flt}, k=12, source=source,
                                             num_actors=2)
                assert list(pooled["query_id"].unique()) == ["q"]
                a = local[["conv_id", "turn_idx", "score", "text", "spans"]]
                b = pooled[["conv_id", "turn_idx", "score", "text", "spans"]]
                assert a.reset_index(drop=True).to_csv() == b.reset_index(drop=True).to_csv()
    finally:
        s.close()


def test_offsets_never_change_results(tmp_path):
    """Materializing the offs stream is purely additive: the same corpus
    indexed with and without offsets returns byte-identical search results
    for every filter shape (scores, ranks, keys)."""
    tbl = _corpus(np.random.default_rng(5))
    d0 = str(tmp_path / "plain")
    d1 = str(tmp_path / "offs")
    build_index_local(tbl, d0, num_partitions=2)
    build_index_local(tbl, d1, cfg=IndexConfig(offsets=True), num_partitions=2)
    s0, s1 = Searcher(d0), Searcher(d1)
    for flt in _FILTERS + [
        F.And((F.Term("text", "error"), F.Term("text", "ok"))),
        F.Or((F.Term("text", "fail"), F.Prefix("text", "re")), min_match=1),
        F.Fuzzy("text", "agant", 1),
    ]:
        a = s0.search_local(flt, k=50)
        b = s1.search_local(flt, k=50)
        assert a.to_csv() == b.to_csv(), flt


def test_offsets_errors(tmp_path):
    rows = pa.Table.from_pylist(
        [{"conv_id": "c0", "turn_idx": 0, "text": "alpha beta",
          "role": "u", "tool": None}]
    )
    d1 = str(tmp_path / "plain")
    build_index_local(rows, d1)  # offsets NOT indexed
    with pytest.raises(ValueError, match="offsets=True"):
        highlights(Searcher(d1), F.Term("text", "alpha"), k=5, source="index")
    # span tracking exists only for the text analyzer
    with pytest.raises(ValueError, match="span-tracking"):
        build_index_local(
            rows, str(tmp_path / "ng"),
            cfg=IndexConfig(offsets=True, analyzer="ngram",
                            analyzer_opts={"min_n": 2, "max_n": 3}),
        )
