"""Per-partition build tables — SURVEY §3.1: the Arrow tokenize path equals
the python analyzer path, the term-code radix grouping equals a 3-key
lexsort (one and two 16-bit passes), string keyword fields with nulls and
"" equal the keyword analyzer path, and top-k over such a build equals
the brute-force oracle."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from iresearch_ray import Searcher
from iresearch_ray.functions.analysis import KeywordAnalyzer
from iresearch_ray.pipelines.build import build_index_local
from iresearch_ray.query import filters as F
from iresearch_ray.query.oracle import BruteForceOracle
from iresearch_ray.stages import segment as S

ROLES = ["user", "assistant", "", None]
TOOLS = [None, "", "grep", "bash", "Édit"]


def _rows(n_docs: int, vocab: int, toks_per_doc: int, seed: int = 7) -> pa.Table:
    """Docs of random words over ``vocab`` distinct terms, joined by mixed
    separators, with keyword columns holding nulls and ""."""
    rng = np.random.default_rng(seed)
    words = np.array([f"w{i}" for i in range(vocab)], dtype=object)
    seps = np.array([" ", ", ", "_", "\t", "\n", "--"], dtype=object)
    texts = []
    for _ in range(n_docs):
        ws = words[rng.integers(0, vocab, rng.integers(0, 2 * toks_per_doc + 1))]
        sp = seps[rng.integers(0, seps.size, ws.size)]
        texts.append("".join(w + s for w, s in zip(ws, sp)).upper())
    convs = rng.permutation(n_docs) // 3
    return pa.table({
        "conv_id": [f"c{c:05d}" for c in convs],
        "turn_idx": pa.array(np.arange(n_docs) % 3, pa.int32()),
        "text": texts,
        "role": [ROLES[i] for i in rng.integers(0, len(ROLES), n_docs)],
        "tool": [TOOLS[i] for i in rng.integers(0, len(TOOLS), n_docs)],
    })


def _lexsort_tables(monkeypatch, rows: pa.Table, cfg: S.IndexConfig):
    """The build with the grouping sort replaced by the 3-key
    ``np.lexsort((pos, doc, term))`` reference."""
    real = S._postings_from_codes

    def lexsorted(field_name, codes, uniques, doc_rep, pos, *rest):
        with monkeypatch.context() as m:
            m.setattr(S, "_term_order", lambda c, n: np.lexsort((pos, doc_rep, c)))
            return real(field_name, codes, uniques, doc_rep, pos, *rest)

    with monkeypatch.context() as m:
        m.setattr(S, "_postings_from_codes", lexsorted)
        return S.build_segment_tables(rows, cfg)


@pytest.mark.parametrize("vocab", [500, 80_000])
def test_radix_grouping_equals_lexsort(monkeypatch, vocab):
    rows = _rows(3_000, vocab, 60)
    cfg = S.IndexConfig()
    terms, docs, stats = S.build_segment_tables(rows, cfg)
    n_text = pc.sum(pc.equal(terms["field"], "text")).as_py()
    assert (n_text > 1 << 16) == (vocab > 1 << 16)  # two passes when wide
    ref_terms, ref_docs, ref_stats = _lexsort_tables(monkeypatch, rows, cfg)
    assert terms.equals(ref_terms)
    assert docs.equals(ref_docs)
    assert stats == ref_stats


def test_term_order_two_passes_is_stable():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 200_000, 50_000)
    np.testing.assert_array_equal(
        S._term_order(codes, 200_000), np.argsort(codes, kind="stable")
    )


def test_arrow_tokenize_path_equals_python_path(monkeypatch):
    rows = _rows(400, 300, 30)
    cfg = S.IndexConfig()
    fast = S.build_segment_tables(rows, cfg)
    monkeypatch.setattr(S, "explode_text_arrow", lambda texts: None)
    slow = S.build_segment_tables(rows, cfg)
    for a, b in zip(fast, slow):
        assert a == b if isinstance(a, dict) else a.equals(b)


def test_keyword_fields_equal_keyword_analyzer_path():
    rows = _rows(500, 50, 5)
    terms, docs, stats = S.build_segment_tables(rows, S.IndexConfig())
    doc_ids = docs["doc_id"].to_numpy()
    for f in ("role", "tool"):
        want = S._postings_from_codes(
            f, *S._occurrences(KeywordAnalyzer()(docs[f].to_pylist()), doc_ids), False
        )
        got = terms.filter(pc.equal(terms["field"], f))
        assert got.equals(want)
        assert "" in got["term"].to_pylist()
        valid = int(pc.sum(docs[f].is_valid()).as_py())
        assert stats[f] == {"docs_with_field": valid, "total_term_freq": valid}


def test_wide_vocab_topk_matches_oracle(tmp_path):
    rows = _rows(3_000, 80_000, 60)
    idx = str(tmp_path / "idx")
    build_index_local(rows, idx)
    s = Searcher(idx)
    oracle = BruteForceOracle(rows)
    vocab = oracle.fields["text"]["vocab"]
    hi, mid = vocab[-1], vocab[len(vocab) // 2]  # codes above 2^16 and below
    filters = [
        F.Term("text", hi),
        F.Term("text", mid),
        F.Or((F.Term("text", hi), F.Term("text", vocab[3]), F.Term("text", mid))),
        F.And((F.Term("role", ""), F.Term("tool", ""))),
        F.Or((F.Term("tool", ""), F.Term("tool", "grep"), F.Term("text", mid))),
        F.Term("role", "user"),
    ]
    for flt in filters:
        got = s.search_local(flt, k=20)
        want = oracle.search(flt, k=20)
        assert len(want)
        assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
            zip(want["conv_id"], want["turn_idx"].astype(int))
        )
        np.testing.assert_allclose(
            got["score"].to_numpy(dtype=float), want["score"].to_numpy(dtype=float),
            atol=1e-6, rtol=0,
        )


def test_segment_meta_records_layer_cpu(tmp_path):
    idx = str(tmp_path / "idx")
    build_index_local(_rows(300, 100, 20), idx, num_partitions=2)
    seg_root = os.path.join(idx, "segments")
    for name in os.listdir(seg_root):
        with open(os.path.join(seg_root, name, "meta.json")) as f:
            m = json.load(f)["metrics"]
        layers = ("analyze_cpu_secs", "group_encode_cpu_secs", "encode_cpu_secs",
                  "write_cpu_secs")
        assert all(m[k] >= 0 for k in layers)
        # build_cpu_secs spans the content key and both table layers
        assert m["analyze_cpu_secs"] + m["group_encode_cpu_secs"] <= m["build_cpu_secs"] + 1e-3
        # the posting encode is a part of group_encode
        assert m["encode_cpu_secs"] <= m["group_encode_cpu_secs"] + 1e-3
