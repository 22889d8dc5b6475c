"""GlobalStats lazy (pushdown/streamed) mode must be plan- and
result-identical to the in-memory mode — the scale path for
multi-billion-term dictionaries where the driver cannot hold the
vocabulary (SURVEY §2.6 stats scope; round-2 review item 3)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from iresearch_ray.pipelines.build import build_index_local
from iresearch_ray.query import filters as F
from iresearch_ray.query.filters import prepare
from iresearch_ray.sources.transcripts import gen_transcripts
from iresearch_ray.stages.segment import IndexConfig
from iresearch_ray.state.manifest import load_manifest
from iresearch_ray.state.stats import build_global_stats


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    tbl = gen_transcripts(120)
    d = str(tmp_path_factory.mktemp("lazystats") / "idx")
    build_index_local(
        tbl, d, cfg=IndexConfig(numeric_fields=("turn_idx",)), num_partitions=3
    )
    return d


@pytest.fixture(scope="module")
def both(idx):
    man = load_manifest(idx)
    mem = build_global_stats(idx, man, mem_limit=1 << 40)
    lazy = build_global_stats(idx, man, mem_limit=0)
    assert not mem.lazy and lazy.lazy
    return mem, lazy


QUERIES = [
    F.Term("text", "the"),
    F.Term("text", "notaterm@@"),
    F.Terms("text", ("agent", "error", "plan"), min_match=2, boosts=(2.0, None, 0.5)),
    F.Prefix("text", "w0"),
    F.Prefix("text", ""),
    F.TermRange("text", low="a", high="c", include_high=False),
    F.TermRange("text", low=None, high="b"),
    F.TermRange("text", low="t", high=None, include_low=False),
    F.Wildcard("text", "w0%"),
    F.Wildcard("text", "%0a"),          # no literal head: streamed scan
    F.Wildcard("text", "w_0%", scored_terms_limit=3),
    F.Fuzzy("text", "agent", max_distance=1),
    F.Fuzzy("text", "eror", max_distance=2, with_transpositions=True),
    F.Phrase("text", ("the", F.Prefix("text", "a"))),
    F.Phrase("text", (F.Wildcard("text", "pla%"), "the"), slop=2, ordered=False),
    F.SamePosition("text", ("the", "a")),
    F.GranularRange("turn_idx", low=2, high=7),
    F.And((F.Term("text", "agent"), F.Or((F.Prefix("text", "er"), F.Term("text", "plan"))))),
    F.Not(F.Term("text", "the"), F.Fuzzy("text", "agent")),
]


def test_plans_identical(both):
    mem, lazy = both
    for q in QUERIES:
        p_mem = prepare(q, mem).plan
        p_lazy = prepare(q, lazy).plan
        assert p_mem == p_lazy, f"plan divergence for {q}"


def test_primitive_parity(both):
    mem, lazy = both
    # the dictionary is exactly (field, term, df, cf) in memory and on disk
    cols = ["field", "term", "df", "cf"]
    assert mem.term_table.column_names == cols
    for path in lazy.paths:
        assert pq.read_schema(path).names == cols, path
    t1, d1 = mem.field_terms("text")
    t2, d2 = lazy.field_terms("text")
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(d1, d2)
    assert mem.term_df("text", "the") == lazy.term_df("text", "the") > 0
    assert lazy.term_df("text", "zz@@absent") == 0
    np.testing.assert_array_equal(
        mem.term_dfs("text", ["the", "absent@@", "agent"]),
        lazy.term_dfs("text", ["the", "absent@@", "agent"]),
    )
    # lazy LRU answers repeats without re-probing (monkey-check via cache)
    lazy.term_df("text", "the")
    assert ("text", "the") in lazy._df_lru
    # unknown field
    assert lazy.term_dfs("nofield", ["x"]).tolist() == [0]
    t, d = lazy.terms_in_range("nofield", None, None)
    assert t.size == 0 and d.size == 0


def test_lazy_searcher_results(idx, monkeypatch):
    """End-to-end: a Searcher forced into lazy-stats mode returns the exact
    rows of the default in-memory mode."""
    from iresearch_ray.pipelines.search import Searcher

    s_mem = Searcher(idx)
    monkeypatch.setenv("IRE_STATS_MEM", "0")
    s_lazy = Searcher(idx)
    assert s_lazy.stats.lazy and not s_mem.stats.lazy
    for q in QUERIES:
        a = s_mem.search_local(q, k=15).reset_index(drop=True)
        b = s_lazy.search_local(q, k=15).reset_index(drop=True)
        assert a.equals(b), f"result divergence for {q}"


# ---------------------------------------------------------------------------
# Encrypted lazy mode (round-4: VERDICT r3 missing #2) — an encrypted index
# above IRE_STATS_MEM must use pushdown probes through the PME-decrypting
# pyarrow.dataset, never an eager whole-vocabulary load.
# ---------------------------------------------------------------------------

ENC_KEY = b"0123456789abcdef"


@pytest.fixture(scope="module")
def enc_idx(tmp_path_factory):
    from iresearch_ray.state.crypto import IndexEncryption

    tbl = gen_transcripts(120)
    d = str(tmp_path_factory.mktemp("lazystats_enc") / "idx")
    build_index_local(
        tbl, d, cfg=IndexConfig(numeric_fields=("turn_idx",)),
        num_partitions=3, crypto=IndexEncryption(ENC_KEY),
    )
    return d


def test_encrypted_lazy_mode_parity(enc_idx):
    from iresearch_ray.state.crypto import IndexEncryption

    crypto = IndexEncryption(ENC_KEY)
    man = load_manifest(enc_idx)
    mem = build_global_stats(enc_idx, man, mem_limit=1 << 40, crypto=crypto)
    lazy = build_global_stats(enc_idx, man, mem_limit=0, crypto=crypto)
    assert not mem.lazy and lazy.lazy and lazy.crypto is crypto
    for q in QUERIES:
        assert prepare(q, mem).plan == prepare(q, lazy).plan, f"plan divergence {q}"
    t1, d1 = mem.field_terms("text")
    t2, d2 = lazy.field_terms("text")
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(
        mem.term_dfs("text", ["the", "absent@@", "agent"]),
        lazy.term_dfs("text", ["the", "absent@@", "agent"]),
    )


def test_encrypted_lazy_searcher_results(enc_idx, monkeypatch):
    from iresearch_ray.pipelines.search import Searcher
    from iresearch_ray.state.crypto import IndexEncryption

    s_mem = Searcher(enc_idx, crypto=IndexEncryption(ENC_KEY))
    monkeypatch.setenv("IRE_STATS_MEM", "0")
    s_lazy = Searcher(enc_idx, crypto=IndexEncryption(ENC_KEY))
    assert s_lazy.stats.lazy and not s_mem.stats.lazy
    for q in QUERIES:
        a = s_mem.search_local(q, k=15).reset_index(drop=True)
        b = s_lazy.search_local(q, k=15).reset_index(drop=True)
        assert a.equals(b), f"result divergence for {q}"


def test_lazy_expansion_fans_out_with_ray(ray_session, idx, enc_idx):
    """With a Ray session live, lazy-mode match_terms/fuzzy_terms run as one
    task per row-group range (VERDICT r3 missing #3) and must return exactly
    the in-memory expansion — plaintext AND encrypted."""
    from iresearch_ray.state.crypto import IndexEncryption

    for d, crypto in ((idx, None), (enc_idx, IndexEncryption(ENC_KEY))):
        man = load_manifest(d)
        mem = build_global_stats(d, man, mem_limit=1 << 40, crypto=crypto)
        lazy = build_global_stats(d, man, mem_limit=0, crypto=crypto)
        assert lazy.lazy
        fn = lambda ts, dfs: np.char.startswith(ts.astype(str), "w")  # noqa: E731
        t1, d1 = mem.match_terms("text", fn)
        t2, d2 = lazy.match_terms("text", fn)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(d1, d2)
        f1 = mem.fuzzy_terms("text", "agent", 1)
        f2 = lazy.fuzzy_terms("text", "agent", 1)
        np.testing.assert_array_equal(f1[0], f2[0])
        np.testing.assert_array_equal(f1[1], f2[1])
