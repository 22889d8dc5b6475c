"""Property-based rank parity: hypothesis generates random filter TREES
(arbitrary nesting of term/terms/prefix/wildcard/fuzzy/phrase under
and/or/not/nested) and every tree must rank-match the independent
brute-force oracle.  This hunts interaction bugs the
hand-written parity families can't enumerate."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iresearch_ray.pipelines.build import build_index_local
from iresearch_ray.pipelines.search import Searcher
from iresearch_ray.query import filters as F
from iresearch_ray.query.oracle import BruteForceOracle
from iresearch_ray.sources.transcripts import gen_transcripts

VOCAB = [
    "the", "a", "to", "agent", "tool", "error", "plan", "step", "model",
    "run", "test", "data", "w0001", "w0007", "w0042", "zzznope",
]
PREFIXES = ["w0", "a", "t", "er", "zz"]
PATTERNS = ["w0%3", "a%", "%an", "t?ol", "er%r"]

term_st = st.sampled_from(VOCAB)

leaf_st = st.one_of(
    st.builds(lambda t, b: F.Term("text", t, boost=b), term_st,
              st.sampled_from([0.5, 1.0, 2.0])),
    st.builds(
        lambda ts, mm: F.Terms("text", tuple(ts), min_match=min(mm, len(ts))),
        st.lists(term_st, min_size=1, max_size=3, unique=True),
        st.integers(1, 2),
    ),
    st.builds(lambda p: F.Prefix("text", p), st.sampled_from(PREFIXES)),
    st.builds(lambda p, lim: F.Prefix("text", p, scored_terms_limit=lim),
              st.sampled_from(PREFIXES), st.sampled_from([2, 5])),
    st.builds(lambda p: F.Wildcard("text", p), st.sampled_from(PATTERNS)),
    st.builds(lambda t: F.Fuzzy("text", t, 1), st.sampled_from(["agemt", "tol", "plam"])),
    st.builds(
        lambda a, b, slop, ordered: F.Phrase("text", (a, b), slop=slop, ordered=ordered),
        term_st, term_st, st.integers(0, 2), st.booleans(),
    ),
)


def _compound(children):
    return st.one_of(
        st.builds(lambda cs: F.And(tuple(cs)), st.lists(children, min_size=2, max_size=3)),
        st.builds(
            lambda cs, mm: F.Or(tuple(cs), min_match=min(mm, len(cs))),
            st.lists(children, min_size=2, max_size=3),
            st.integers(1, 2),
        ),
        st.builds(lambda p, n: F.Not(p, n), children, children),
        st.builds(
            lambda c, mm, merge: F.Nested(c, min_match=mm, score_merge=merge),
            children, st.integers(1, 2),
            st.sampled_from(["sum", "max", "min", "avg", "none"]),
        ),
    )


tree_st = st.recursive(leaf_st, _compound, max_leaves=5)


@pytest.fixture(scope="module")
def prop_corpus(tmp_path_factory):
    tbl = gen_transcripts(120)
    d = str(tmp_path_factory.mktemp("prop_idx"))
    build_index_local(tbl, d, num_partitions=4)
    return Searcher(d), BruteForceOracle(tbl)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,  # deterministic suite for reviewers; soak runs explore
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(flt=tree_st)
def test_random_filter_tree_parity(prop_corpus, flt):
    searcher, oracle = prop_corpus
    import numpy as np

    got = searcher.search_local(flt, k=10)
    want = oracle.search(flt, k=10)
    assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
        zip(want["conv_id"], want["turn_idx"].astype(int))
    ), flt
    if len(got):
        np.testing.assert_allclose(
            got["score"].to_numpy(dtype=float),
            want["score"].to_numpy(dtype=float),
            atol=1e-6, rtol=0,
        )
