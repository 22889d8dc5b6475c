"""End-to-end rank parity — SURVEY §5.2 item 5 / FIXTURES §3 query families.

Engine top-k vs the brute-force oracle on a 200-conv synthetic corpus:
identical (conv_id, turn_idx) ranks and scores to 1e-6, for every operator
family.
"""

import numpy as np
import pandas as pd
import pytest

from iresearch_ray.pipelines.build import build_index_local
from iresearch_ray.pipelines.search import Searcher
from iresearch_ray.query import filters as F
from iresearch_ray.query.filters import ScorerCfg
from iresearch_ray.query.oracle import BruteForceOracle
from iresearch_ray.sources.transcripts import HOT_HEAD, gen_transcripts


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tbl = gen_transcripts(200)
    d = str(tmp_path_factory.mktemp("parity_idx"))
    build_index_local(tbl, d, num_partitions=6)
    return Searcher(d), BruteForceOracle(tbl)


QUERIES = {
    # term: hot-head words and tail words (FIXTURES §3)
    "term_hot_the": F.Term("text", "the"),
    "term_hot_agent": F.Term("text", "agent"),
    "term_hot_error": F.Term("text", "error"),
    "term_tail_1": F.Term("text", "w0007"),
    "term_tail_2": F.Term("text", "w0150"),
    "term_missing": F.Term("text", "zzzznope"),
    # terms IN (+ per-term boosts, ref terms_filter)
    "terms_in": F.Terms("text", ("agent", "tool", "w0003", "w0042")),
    "terms_boosted": F.Terms("text", ("agent", "tool", "error"), boosts=(2.0, 1.0, 0.5)),
    "terms_in_mm2": F.Terms("text", ("agent", "tool", "error", "plan"), min_match=2),
    # And
    "and_2": F.And((F.Term("text", "agent"), F.Term("text", "tool"))),
    "and_3": F.And((F.Term("text", "the"), F.Term("text", "a"), F.Term("text", "to"))),
    # Or + min_match
    "or_mm2": F.Or(
        (
            F.Term("text", "agent"),
            F.Term("text", "model"),
            F.Term("text", "plan"),
            F.Term("text", "step"),
        ),
        min_match=2,
    ),
    # Not
    "not_1": F.Not(F.Term("text", "the"), F.Term("text", "agent")),
    "not_2": F.Not(F.Term("text", "error"), F.Term("text", "w0001")),
    # prefix / range / wildcard / fuzzy
    "prefix_w00": F.Prefix("text", "w00"),
    "prefix_re": F.Prefix("text", "re"),
    "prefix_tok": F.Prefix("text", "tok"),
    "range_1": F.TermRange("text", "w0010", "w0020"),
    "range_excl": F.TermRange("text", "plan", "run", include_high=False),
    "wild_1": F.Wildcard("text", "w0*3"),
    "wild_2": F.Wildcard("text", "*ndex"),
    "wild_3": F.Wildcard("text", "b?tch"),
    "wild_4": F.Wildcard("text", "me%"),
    "fuzzy_1": F.Fuzzy("text", "agemt", 1),
    "fuzzy_2": F.Fuzzy("text", "queyr", 2),
    "fuzzy_osa": F.Fuzzy("text", "tolo", 1, with_transpositions=True),
    # phrase
    "phrase_2": F.Phrase("text", ("the", "a")),
    "phrase_hot": F.Phrase("text", ("agent", "tool")),
    # ordered slop (greedy chain) + unordered window (transposition-tolerant)
    "phrase_slop1": F.Phrase("text", ("agent", "tool"), slop=1),
    "phrase_slop2": F.Phrase("text", ("the", "error"), slop=2),
    "phrase_unord1": F.Phrase("text", ("agent", "tool"), slop=1, ordered=False),
    "phrase_unord_swap": F.Phrase("text", ("tool", "agent"), slop=1, ordered=False),
    "phrase_unord3": F.Phrase("text", ("the", "a", "to"), slop=2, ordered=False),
    # duplicate slot terms: unordered matching must use DISTINCT positions
    "phrase_dup_unord": F.Phrase("text", ("the", "the"), slop=2, ordered=False),
    "phrase_dup_exact": F.Phrase("text", ("the", "the")),
    # scored_terms_limit interacting with min_match (unscored legs count)
    "terms_cap_mm": F.Terms("text", ("agent", "tool", "error", "plan", "step",
                                     "model", "run", "test", "data", "the"), min_match=2),
    # same-position + in-order ngram similarity (oracle-backed since r2 rev4)
    "samepos_dup": F.SamePosition("text", ("agent", "agent")),
    "ngram_sim_3": F.NgramSimilarity("text", ("agent", "tool", "error"), threshold=0.4),
    "ngram_sim_hi": F.NgramSimilarity("text", ("the", "a", "to"), threshold=0.9),
    # parent/child: conversation-level matches over turn-level filters
    "nested_sum": F.Nested(F.Term("text", "agent")),
    "nested_mm2_max": F.Nested(F.Term("text", "error"), min_match=2, score_merge="max"),
    "nested_avg": F.Nested(F.Or((F.Term("text", "plan"), F.Term("text", "step"))), score_merge="avg"),
    "nested_none": F.Nested(F.Phrase("text", ("the", "a")), score_merge="none", boost=1.5),
    # variadic multiterm parts (prefix/wildcard/fuzzy inside the phrase)
    "phrase_part_prefix": F.Phrase("text", ("the", F.Prefix("text", "a"))),
    "phrase_part_wild": F.Phrase("text", (F.Wildcard("text", "t%"), "a"), slop=1),
    "phrase_part_fuzzy": F.Phrase("text", (F.Fuzzy("text", "agnt", 1), F.Prefix("text", "t")), slop=1, ordered=False),
    # boolean nested + boost
    "bool_boost": F.And(
        (
            F.Or((F.Term("text", "agent", boost=2.0), F.Phrase("text", ("the", "the")))),
            F.Term("text", "a", boost=0.5),
        )
    ),
    # keyword fields / existence
    "kw_role": F.Term("role", "assistant"),
    "kw_tool": F.Term("tool", "python"),
    "exists_tool": F.Exists("tool"),
    "all_docs": F.AllDocs(boost=3.0),
}


def _check(searcher, oracle, flt, k, scorer=None):
    got = searcher.search_local(flt, k=k, scorer=scorer)
    want = oracle.search(flt, k=k)
    got_rows = list(zip(got["conv_id"], got["turn_idx"].astype(int)))
    want_rows = list(zip(want["conv_id"], want["turn_idx"].astype(int)))
    assert got_rows == want_rows, f"rank mismatch for {flt}"
    assert len(got) == len(want)
    if len(got):
        np.testing.assert_allclose(
            got["score"].to_numpy(dtype=float), want["score"].to_numpy(dtype=float),
            atol=1e-6, rtol=0,
        )


@pytest.mark.parametrize("name", list(QUERIES))
def test_family_parity(corpus, name):
    searcher, oracle = corpus
    flt = QUERIES[name]
    _check(searcher, oracle, flt, k=10)


@pytest.mark.parametrize("k", [1, 100, 1000])
def test_topk_sweep(corpus, k):
    searcher, oracle = corpus
    _check(searcher, oracle, F.Term("text", "the"), k=k)
    _check(searcher, oracle, F.Or(tuple(F.Term("text", t) for t in HOT_HEAD[:8])), k=k)


def test_wand_argument_ignored(corpus):
    """``segment_topk`` and ``Searcher.search_local`` still accept the old
    ``wand`` flag (perfbench passes it) and return identical frames for
    True and False."""
    from iresearch_ray.query.exec import segment_topk

    searcher, _ = corpus
    for flt in (QUERIES["or_mm2"], QUERIES["terms_in"], QUERIES["prefix_w00"]):
        on = searcher.search_local(flt, k=10, wand=True)
        off = searcher.search_local(flt, k=10, wand=False)
        pd.testing.assert_frame_equal(on, off)
        plan = searcher.prepare(flt).plan
        for r in searcher._shard().readers:
            assert segment_topk(r, plan, 10, True).equals(segment_topk(r, plan, 10, False))


def test_tfidf_parity(corpus):
    searcher, oracle_unused = corpus
    # oracle needs matching scorer cfg
    from iresearch_ray.sources.transcripts import gen_transcripts

    oracle = BruteForceOracle(gen_transcripts(200), scorer=ScorerCfg(name="tfidf"))
    flt = F.Or((F.Term("text", "agent"), F.Term("text", "w0005")))
    _check(searcher, oracle, flt, k=10, scorer=ScorerCfg(name="tfidf"))


def test_scored_terms_limit_cap(corpus):
    """limited_sample_collector analog (SURVEY §2.5): with the cap above the
    expansion size results are identical to unlimited; with a binding cap the
    top-limit terms by (df desc, term asc) are scored and the rest still
    MATCH with contribution 0 (verified against a hand-built expectation from
    the unlimited per-term evaluations)."""
    s, oracle = corpus

    wide = F.Prefix("text", "w0")  # tail vocab: wide expansion
    unlimited = s.search_local(wide, k=25)
    same = s.search_local(F.Prefix("text", "w0", scored_terms_limit=100_000), k=25)
    assert same.equals(unlimited)

    # binding cap: engine vs expectation assembled from single-term evals
    limit = 3
    capped = s.search_local(F.Prefix("text", "w0", scored_terms_limit=limit), k=100_000)
    terms, dfs = s.stats.field_terms("text")
    matched = [(t, int(s.stats.term_df("text", t))) for t in terms if t.startswith("w0")]
    assert len(matched) > limit
    ranked = sorted(matched, key=lambda td: (-td[1], td[0]))
    scored_set = {t for t, _ in ranked[:limit]}

    import collections

    exp_scores: dict[tuple, float] = collections.defaultdict(float)
    for t, _df in matched:
        single = s.search_local(F.Term("text", t), k=100_000)
        for row in single.itertuples():
            key = (row.conv_id, row.turn_idx)
            exp_scores[key] += row.score if t in scored_set else 0.0
    exp = sorted(exp_scores.items(), key=lambda kv: (-kv[1], kv[0]))
    got = list(zip(zip(capped["conv_id"], capped["turn_idx"]), capped["score"]))
    assert len(got) == len(exp)
    for (gk, gs), (ek, es) in zip(got, exp):
        assert gk == ek
        assert abs(gs - es) < 1e-6


def test_ngram_similarity_duplicate_terms(corpus):
    """Regression (round-2 review): a single occurrence must not satisfy
    several identical query slots.  Pinned reference semantics: every
    position maps to the FIRST slot of its term (q.index(t)), so for
    ('agent','agent') the event sequence contains only index 0 and the
    LCS can never exceed 1 — ratio caps at 0.5 regardless of tf."""
    s, oracle = corpus
    # nothing can reach ratio 0.75 with a duplicated 2-term query
    got_hi = s.search_local(F.NgramSimilarity("text", ("agent", "agent"), threshold=0.75), k=10_000)
    assert len(got_hi) == 0
    # at threshold 0.5 every doc containing 'agent' matches with ratio 0.5
    got_lo = s.search_local(F.NgramSimilarity("text", ("agent", "agent"), threshold=0.5), k=10_000)
    single = s.search_local(F.Term("text", "agent"), k=10_000)
    assert set(zip(got_lo["conv_id"], got_lo["turn_idx"].astype(int))) == set(
        zip(single["conv_id"], single["turn_idx"].astype(int))
    )
    assert (got_lo["score"] - 0.5).abs().max() < 1e-9


def test_empty_compounds_match_nothing(corpus):
    s, oracle = corpus
    assert len(s.search_local(F.And(()), k=10)) == 0
    assert oracle.search(F.And(()), k=10).empty
    assert len(s.search_local(F.Or(()), k=10)) == 0


def test_fuzzy_match_mask_equals_scalar_dp():
    """The vectorized (candidates × maxlen) DP must produce EXACTLY the
    per-term DP's matched set — plain Levenshtein and OSA transpositions,
    randomized strings over a tiny alphabet (high collision density) plus
    adversarial shapes (empty query, unicode, length extremes)."""
    import random

    import numpy as np

    from iresearch_ray.query.filters import (
        fuzzy_match_mask,
        levenshtein_distance,
        osa_distance,
    )

    rng = random.Random(7)
    alpha = "abz"
    pool = ["".join(rng.choice(alpha) for _ in range(rng.randrange(0, 8))) for _ in range(400)]
    pool += ["", "é", "naïve", "ab" * 40, "ba", "ab", "aab", "aba"]
    for q in ["", "a", "ab", "ba", "abz", "abab", "é", "naïve", "zzzz"]:
        for d in (0, 1, 2, 3):
            for trans, scalar in ((False, levenshtein_distance), (True, osa_distance)):
                got = fuzzy_match_mask(q, pool, d, with_transpositions=trans)
                exp = np.array([scalar(q, t, d) <= d for t in pool])
                assert (got == exp).all(), (q, d, trans, [
                    (t, scalar(q, t, d)) for t, g, e in zip(pool, got, exp) if g != e
                ][:5])


def test_fuzzy_sorted_walk_equals_mask():
    """The Levenshtein trie walk over a sorted dictionary must match the
    full-scan mask EXACTLY — same adversarial pools, both distance kinds."""
    import random

    import numpy as np

    from iresearch_ray.query.filters import fuzzy_match_mask, fuzzy_sorted_indices

    rng = random.Random(11)
    alpha = "abz"
    pool = ["".join(rng.choice(alpha) for _ in range(rng.randrange(0, 8))) for _ in range(400)]
    pool += ["", "é", "naïve", "ab" * 40, "ba", "ab", "aab", "aba"]
    terms = np.array(sorted(set(pool)), dtype=object)
    for q in ["", "a", "ab", "ba", "abz", "abab", "é", "naïve", "zzzz"]:
        for d in (0, 1, 2, 3):
            for trans in (False, True):
                exp = np.flatnonzero(fuzzy_match_mask(q, terms, d, with_transpositions=trans))
                got = fuzzy_sorted_indices(terms, q, d, with_transpositions=trans)
                assert (got == exp).all() and got.size == exp.size, (
                    q, d, trans, terms[got][:5], terms[exp][:5]
                )
