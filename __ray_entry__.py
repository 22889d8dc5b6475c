"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Two query families:

* ``ft_*`` — the inverted-index / BM25 engine (SURVEY.md §2.4–§2.8) over the
  ``documents`` table adapted to the transcript shape (doc_id ↦ conv_id,
  turn_idx=0).  The SQL oracles implement the pinned BM25 spec (SURVEY §2.6:
  idf = ln(1+(N-n+0.5)/(n+0.5)), tf·(k1+1)/(tf+k1·(1-b+b·dl/avgdl)),
  k1=1.2 b=0.75, index-global stats) directly in DuckDB — a fully
  independent second implementation.
* ``dd_*`` / ``emb_*`` — training-data curation ops (dedup, near-dup,
  similarity search, text metrics; ``iresearch_ray.pipelines.dataops``).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd

from iresearch_ray.pipelines.dataops import round_half_away
import pyarrow as pa
import pyarrow.parquet as pq

K1, B = 1.2, 0.75
_CACHE_ROOT = "/tmp/iresearch_ray_entry"
_SEARCHERS: dict[str, Any] = {}


# ---------------------------------------------------------------------------
# index bootstrap (cached per sf_dir; resume-aware so repeat calls are cheap)
# ---------------------------------------------------------------------------


def _searcher(sf_dir: str):
    s = _SEARCHERS.get(sf_dir)
    if s is not None:
        return s
    import ray.data as rd

    from iresearch_ray import Searcher, build_index
    from iresearch_ray.sources.transcripts import documents_as_transcripts

    from iresearch_ray.stages.segment import IndexConfig

    # offsets=True: the shared ft_* index also materializes the `offs`
    # stream (vectorized ASCII span pass; scores unaffected), which
    # ft_offsets_first reads back and checks against a strpos SQL oracle
    cfg = IndexConfig(numeric_fields=("n_chars",), offsets=True)
    import hashlib as _h

    from iresearch_ray import FORMAT_VERSION

    cfg_key = _h.md5(
        (str(sorted(cfg.to_json().items())) + f"|fv{FORMAT_VERSION}").encode()
    ).hexdigest()[:8]
    idx = os.path.join(
        _CACHE_ROOT, os.path.basename(os.path.normpath(sf_dir)) + "-" + cfg_key, "idx"
    )
    # stage the transcript table to parquet so the build source is
    # FINGERPRINTABLE — in-memory Datasets are never resume-adopted (their
    # fingerprint is undefined), file sources resume across processes
    src = os.path.join(os.path.dirname(idx), "transcripts.parquet")
    if not os.path.exists(src):
        os.makedirs(os.path.dirname(src), exist_ok=True)
        tmp = src + f".tmp.{os.getpid()}"
        pq.write_table(documents_as_transcripts(sf_dir), tmp)
        os.replace(tmp, src)
    build_index(src, idx, cfg=cfg, num_partitions=4, resume=True)
    s = Searcher(idx)
    _SEARCHERS[sf_dir] = s
    return s


def _docs_ds(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet")


def _emb_ds(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/embeddings.parquet")


def _topk(sf_dir: str, flt, k: int = 10, scorer=None) -> pd.DataFrame:
    """Run one filter through the distributed serving path (cached
    QueryPool — one RPC round per call after warm-up; identical results to
    search_ray) and convert (conv_id='d%09d', turn_idx) keys back to
    doc_id."""
    s = _searcher(sf_dir)
    out = s.search_pooled({"q": flt}, k=k, scorer=scorer)
    return pd.DataFrame(
        {
            "doc_id": out["conv_id"].str.slice(1).astype("int64"),
            "score": round_half_away(out["score"].to_numpy(), 4),
        }
    )


_VIEWS: dict = {}


def _view_searcher(sf_dir: str):
    """ArangoSearch view-link analog (pipelines/views.py): the documents
    table split into two 'collections' by doc_id parity, one sub-index per
    link, ONE ViewStats aggregate — so BM25 idf/avg_dl are view-global and
    scores must equal whole-table BM25, which is exactly what the SQL
    oracle computes over the undivided documents view."""
    vs = _VIEWS.get(sf_dir)
    if vs is not None:
        return vs
    import pyarrow.compute as pc

    from iresearch_ray import FORMAT_VERSION
    from iresearch_ray.pipelines.views import LinkDef, ViewSearcher, create_view
    from iresearch_ray.sources.transcripts import documents_as_transcripts

    root = os.path.join(
        _CACHE_ROOT,
        os.path.basename(os.path.normpath(sf_dir)) + f"-view-fv{FORMAT_VERSION}",
    )
    vdir = os.path.join(root, "view")
    srcs = {c: os.path.join(root, f"{c}.parquet") for c in ("docs_even", "docs_odd")}
    if not all(os.path.exists(p) for p in srcs.values()):
        os.makedirs(root, exist_ok=True)
        t = documents_as_transcripts(sf_dir)
        ids = pc.cast(pc.utf8_slice_codeunits(t["conv_id"], 1, 99), pa.int64())
        even = pc.equal(pc.bit_wise_and(ids, 1), 0)
        for name, mask in (("docs_even", even), ("docs_odd", pc.invert(even))):
            tmp = srcs[name] + f".tmp.{os.getpid()}"
            pq.write_table(t.filter(mask), tmp)
            os.replace(tmp, srcs[name])
    create_view(
        vdir,
        "docs_view",
        {
            c: LinkDef(source=p, fields={"text": {"analyzers": ["text"]},
                                         "role": {"analyzers": ["identity"]}})
            for c, p in srcs.items()
        },
        num_partitions=2,
    )
    vs = ViewSearcher(vdir)
    _VIEWS[sf_dir] = vs
    return vs


# ---------------------------------------------------------------------------
# entry (flagship smoke: build → multi-query batch → merged top-k)
# ---------------------------------------------------------------------------


def entry() -> Any:
    from iresearch_ray.query import filters as F

    sf_dir = "/root/testdata/sf0.001"
    s = _searcher(sf_dir)
    batch = {
        "term": F.Term("text", "key"),
        "bool": F.And((F.Term("text", "table"), F.Term("text", "join"))),
        "phrase": F.Phrase("text", ("table", "hash")),
        "prefix": F.Prefix("text", "s"),
    }
    return s.search_ray(batch, k=10, concurrency=2)


# ---------------------------------------------------------------------------
# SQL oracle building blocks (shared CTE prefix)
# ---------------------------------------------------------------------------

# exploded tokens + per-doc lengths + field stats over `documents`
_BASE = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents
), dl AS (
  SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id
), fs AS (
  SELECT count(*) AS N, sum(dl)::DOUBLE / count(*) AS avgdl FROM dl
)
"""

_IDF = "ln(1 + (fs.N - df.n + 0.5) / (df.n + 0.5))"
_TFF = f"(tf.tf * ({K1}+1)) / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / fs.avgdl))"


def _sql_single_term(term: str, k: int = 10) -> str:
    return f"""
{_BASE}, tf AS (
  SELECT doc_id, count(*) AS tf FROM tok WHERE w = '{term}' GROUP BY doc_id
), df AS (SELECT count(*) AS n FROM tf)
SELECT tf.doc_id, round({_IDF} * {_TFF}, 4) AS score
FROM tf JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs CROSS JOIN df
ORDER BY {_IDF} * {_TFF} DESC, tf.doc_id ASC LIMIT {k}
"""


def _sql_multiterm(where_w: str, k: int = 10, min_match: int = 1) -> str:
    """Union-of-terms scoring (Or / prefix / range / wildcard / fuzzy —
    SURVEY §2.5): per (doc, term) score = idf_t · tf-factor, summed per doc;
    min_match counts distinct matched terms."""
    return f"""
{_BASE}, tf AS (
  SELECT doc_id, w, count(*) AS tf FROM tok WHERE {where_w} GROUP BY doc_id, w
), df AS (
  SELECT w, count(*) AS n FROM tf GROUP BY w
), scored AS (
  SELECT tf.doc_id,
         {_IDF} * {_TFF} AS s
  FROM tf JOIN df ON tf.w = df.w JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs
), agg AS (
  SELECT doc_id, sum(s) AS score, count(*) AS legs FROM scored GROUP BY doc_id
)
SELECT doc_id, round(score, 4) AS score FROM agg
WHERE legs >= {min_match}
ORDER BY score DESC, doc_id ASC LIMIT {k}
"""


def _sql_and(terms: list[str], k: int = 10) -> str:
    conds = " AND ".join(
        f"doc_id IN (SELECT doc_id FROM tok WHERE w = '{t}')" for t in terms
    )
    return f"""
{_BASE}, tf AS (
  SELECT doc_id, w, count(*) AS tf FROM tok
  WHERE w IN ({",".join(f"'{t}'" for t in terms)}) GROUP BY doc_id, w
), df AS (
  SELECT w, count(*) AS n FROM tok WHERE w IN ({",".join(f"'{t}'" for t in terms)})
  GROUP BY w HAVING count(distinct doc_id) > 0
), df2 AS (
  SELECT w, count(distinct doc_id) AS n FROM tok
  WHERE w IN ({",".join(f"'{t}'" for t in terms)}) GROUP BY w
), scored AS (
  SELECT tf.doc_id, ln(1 + (fs.N - df2.n + 0.5) / (df2.n + 0.5)) * {_TFF} AS s
  FROM tf JOIN df2 ON tf.w = df2.w JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs
), agg AS (
  SELECT doc_id, sum(s) AS score, count(*) AS legs FROM scored GROUP BY doc_id
)
SELECT doc_id, round(score, 4) AS score FROM agg
WHERE legs = {len(terms)}
ORDER BY score DESC, doc_id ASC LIMIT {k}
"""


def _sql_andnot(pos: str, neg: str, k: int = 10) -> str:
    return f"""
{_BASE}, tf AS (
  SELECT doc_id, count(*) AS tf FROM tok WHERE w = '{pos}' GROUP BY doc_id
), df AS (SELECT count(*) AS n FROM tf)
SELECT tf.doc_id, round({_IDF} * {_TFF}, 4) AS score
FROM tf JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs CROSS JOIN df
WHERE tf.doc_id NOT IN (SELECT doc_id FROM tok WHERE w = '{neg}')
ORDER BY {_IDF} * {_TFF} DESC, tf.doc_id ASC LIMIT {k}
"""


def _sql_phrase_unordered(t1: str, t2: str, slop: int, k: int = 10) -> str:
    """2-term unordered-window phrase (pinned semantics, filters.Phrase
    ordered=False): tf = # anchors p with a distinct-position assignment in
    [p, p+1+slop] whose min is p — for two distinct terms that is
    |{{p∈P1: ∃q∈P2, p<q≤p+1+slop}}| + |{{p∈P2: ∃q∈P1, p<q≤p+1+slop}}|;
    weight = idf(t1)+idf(t2)."""
    w = 1 + slop
    return f"""
{_BASE}, lists AS (
  SELECT doc_id, string_split(text, ' ') AS l FROM documents
), ptf AS (
  SELECT doc_id,
         len(list_filter(list_filter(generate_series(1, len(l)), i -> l[i] = '{t1}'),
             p -> len(list_filter(list_filter(generate_series(1, len(l)), i -> l[i] = '{t2}'),
                                  q -> q > p AND q <= p + {w})) > 0))
       + len(list_filter(list_filter(generate_series(1, len(l)), i -> l[i] = '{t2}'),
             p -> len(list_filter(list_filter(generate_series(1, len(l)), i -> l[i] = '{t1}'),
                                  q -> q > p AND q <= p + {w})) > 0)) AS tf
  FROM lists
), tf AS (SELECT doc_id, tf FROM ptf WHERE tf > 0),
d1 AS (SELECT count(distinct doc_id) AS n FROM tok WHERE w = '{t1}'),
d2 AS (SELECT count(distinct doc_id) AS n FROM tok WHERE w = '{t2}')
SELECT tf.doc_id,
       round((ln(1 + (fs.N - d1.n + 0.5)/(d1.n + 0.5))
            + ln(1 + (fs.N - d2.n + 0.5)/(d2.n + 0.5))) * {_TFF}, 4) AS score
FROM tf JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs CROSS JOIN d1 CROSS JOIN d2
ORDER BY (ln(1 + (fs.N - d1.n + 0.5)/(d1.n + 0.5))
        + ln(1 + (fs.N - d2.n + 0.5)/(d2.n + 0.5))) * {_TFF} DESC, tf.doc_id ASC
LIMIT {k}
"""


def _sql_phrase(t1: str, t2: str, k: int = 10) -> str:
    """Exact 2-term phrase: tf = count of adjacent (t1, t2) start positions;
    weight = idf(t1) + idf(t2) (SURVEY §2.4 phrase prepare)."""
    return f"""
{_BASE}, lists AS (
  SELECT doc_id, string_split(text, ' ') AS l FROM documents
), ptf AS (
  SELECT doc_id,
         len(list_filter(generate_series(1, len(l)-1),
             i -> l[i] = '{t1}' AND l[i+1] = '{t2}')) AS tf
  FROM lists
), tf AS (SELECT doc_id, tf FROM ptf WHERE tf > 0),
d1 AS (SELECT count(distinct doc_id) AS n FROM tok WHERE w = '{t1}'),
d2 AS (SELECT count(distinct doc_id) AS n FROM tok WHERE w = '{t2}')
SELECT tf.doc_id,
       round((ln(1 + (fs.N - d1.n + 0.5)/(d1.n + 0.5))
            + ln(1 + (fs.N - d2.n + 0.5)/(d2.n + 0.5))) * {_TFF}, 4) AS score
FROM tf JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs CROSS JOIN d1 CROSS JOIN d2
ORDER BY (ln(1 + (fs.N - d1.n + 0.5)/(d1.n + 0.5))
        + ln(1 + (fs.N - d2.n + 0.5)/(d2.n + 0.5))) * {_TFF} DESC, tf.doc_id ASC
LIMIT {k}
"""


# ---------------------------------------------------------------------------
# queries + oracles
# ---------------------------------------------------------------------------


def queries() -> dict[str, Callable[[str], Any]]:
    from iresearch_ray.pipelines import dataops as ops
    from iresearch_ray.query import filters as F

    def ft_term(sf):
        return _topk(sf, F.Term("text", "key"))

    def ft_count(sf):
        # exact scoreless hit count (COUNT collector analog): per-segment
        # boolean evaluation, one int per segment to the driver
        s = _searcher(sf)
        n = s.count(F.Or((F.Term("text", "join"), F.Term("text", "merge"))))
        return pd.DataFrame({"n_hits": [n]})

    def ft_or(sf):
        return _topk(sf, F.Or(tuple(F.Term("text", t) for t in ("join", "merge", "window"))))

    def ft_and(sf):
        return _topk(sf, F.And((F.Term("text", "table"), F.Term("text", "join"))))

    def ft_andnot(sf):
        return _topk(sf, F.Not(F.Term("text", "table"), F.Term("text", "join")))

    def ft_minmatch(sf):
        return _topk(
            sf, F.Or(tuple(F.Term("text", t) for t in ("join", "merge", "window")), min_match=2)
        )

    def ft_phrase(sf):
        return _topk(sf, F.Phrase("text", ("table", "hash")))

    def ft_phrase_slop(sf):
        """Unordered sloppy phrase (transposition-tolerant window)."""
        return _topk(sf, F.Phrase("text", ("table", "hash"), slop=1, ordered=False))

    def ft_prefix(sf):
        return _topk(sf, F.Prefix("text", "s"))

    def ft_range(sf):
        return _topk(sf, F.TermRange("text", "query", "sort"))

    def ft_wildcard(sf):
        return _topk(sf, F.Wildcard("text", "s_a%"))

    def ft_fuzzy(sf):
        return _topk(sf, F.Fuzzy("text", "tble", 1))

    def ft_wildcard_wide(sf):
        """Wide expansion exercising scored_terms_limit (SURVEY §2.5
        limited_sample_collector analog): pattern % matches the whole
        dictionary; only the top 8 terms by (df desc, term asc) are scored,
        the rest match unscored."""
        return _topk(sf, F.Wildcard("text", "%", scored_terms_limit=8))

    def ft_keyword(sf):
        return _topk(sf, F.Term("role", "en"), k=10_000)

    def ft_tfidf(sf):
        return _topk(sf, F.Term("text", "key"), scorer=F.ScorerCfg("tfidf"))

    def ft_bm15(sf):
        return _topk(sf, F.Term("text", "key"), scorer=F.ScorerCfg("bm25", b=0.0))

    def ft_boosted(sf):
        return _topk(
            sf, F.Or((F.Term("text", "join", boost=2.0), F.Term("text", "merge")))
        )

    def ft_exists(sf):
        return _topk(sf, F.Exists("tool"), k=10_000)

    def ft_all(sf):
        return _topk(sf, F.AllDocs(boost=2.5), k=10_000)

    def ft_ngram_sim(sf):  # oracle: closed-form 3-term LCS in SQL
        return _topk(sf, F.NgramSimilarity("text", ("key", "agg", "row"), threshold=0.4), k=10_000)

    def ft_granular(sf):
        return _topk(sf, F.GranularRange("n_chars", 150, 220), k=10_000)

    _EVENT_IDX: dict[str, str] = {}

    def _events_searcher(sf):
        # events adapted to the transcript shape: conv = user ("u<user_id>"),
        # turn = event (turn_idx = event_id), text = event_type, props =
        # dynamic JSON column.  Gives the ft_* family REAL parent/child
        # structure (a user has many events) unlike the one-turn documents.
        from iresearch_ray import Searcher, build_index
        from iresearch_ray.stages.segment import IndexConfig

        idx = _EVENT_IDX.get(sf)
        if idx is None:
            ev = pq.read_table(
                f"{sf}/events.parquet",
                columns=["event_id", "user_id", "event_type", "props"],
            )
            # turn_idx is int32 by transcript schema (BASELINE.json input_hint).
            # event_id values are used verbatim while they fit (keeps oracle
            # value-parity); an adapted corpus with ids >= 2^31 gets a dense
            # argsort-rank remap instead of an overflow raise (ADVICE r3).
            eid = ev["event_id"].combine_chunks()
            import pyarrow.compute as _pc

            if ev.num_rows and _pc.max(eid).as_py() >= 2**31:
                import numpy as _np

                _ranks = _np.empty(len(eid), dtype=_np.int32)
                _order = _np.argsort(eid.to_numpy(zero_copy_only=False), kind="stable")
                _ranks[_order] = _np.arange(len(eid), dtype=_np.int32)
                turn_idx = pa.array(_ranks, pa.int32())
            else:
                turn_idx = eid.cast(pa.int32())
            tr = pa.table(
                {
                    "conv_id": pa.compute.binary_join_element_wise(
                        "u", pa.compute.cast(ev["user_id"], pa.string()), ""
                    ),
                    "turn_idx": turn_idx,
                    "text": ev["event_type"],
                    "props": ev["props"],
                }
            )
            from iresearch_ray import FORMAT_VERSION as _FV

            base = os.path.join(
                _CACHE_ROOT, os.path.basename(os.path.normpath(sf)) + f"-fv{_FV}"
            )
            src = os.path.join(base, "events_transcripts.parquet")
            idx = os.path.join(base, "events_idx")
            if not os.path.exists(src):
                os.makedirs(base, exist_ok=True)
                tmp = src + f".tmp.{os.getpid()}"
                pq.write_table(tr, tmp)
                os.replace(tmp, src)
            build_index(
                src, idx,
                cfg=IndexConfig(keyword_fields=(), json_fields=("props",)),
                num_partitions=4, resume=True,
            )
            _EVENT_IDX[sf] = idx
        return Searcher(idx)

    def ft_dynamic_props(sf):
        # Dynamic JSON field schema (SURVEY §1.1 ArangoDB-style flattening):
        # index events with json_fields=("props",), so every JSON leaf
        # becomes a queryable field — numeric leaves get precision-trie
        # terms (granular range), strings keyword terms.  Query: props.k in
        # [20, 60] AND event_type == 'error', returning event ids.
        s = _events_searcher(sf)
        flt = F.And((F.GranularRange("props.k", 20, 60), F.Term("text", "error")))
        out = s.search_local(flt, k=10_000_000)
        return pd.DataFrame(
            {"event_id": np.sort(out["turn_idx"].to_numpy().astype("int64"))}
        )

    def ft_offsets_first(sf):
        # indexed character offsets (SURVEY §2.1 offs attribute, r3): the
        # shared index stores per-occurrence (start, end); return every
        # doc containing 'spark' with its FIRST occurrence's 0-based char
        # start, read from the posting stream (source="index" — stored
        # text untouched).  Oracle: documents.text is single-space-joined
        # lowercase tokens, so strpos(' '||text||' ', ' spark ')-1 is the
        # same offset.
        from iresearch_ray.functions.highlight import highlights

        s = _searcher(sf)
        h = highlights(s, F.Term("text", "spark"), k=10_000_000, source="index")
        return pd.DataFrame(
            {
                "doc_id": h["conv_id"].str.slice(1).astype("int64"),
                "start": [int(sp[0][0]) for sp in h["spans"]],
            }
        ).sort_values("doc_id").reset_index(drop=True)

    def ft_view_topk(sf):
        # view-link layer (pipelines/views.py): documents split into two
        # linked collections, scored with view-GLOBAL stats — identical to
        # whole-table BM25; tie-break (score desc, collection, doc_id)
        vs = _view_searcher(sf)
        try:
            out = vs.search_pooled({"q": F.Term("text", "key")}, k=10, num_actors=2)
        finally:
            # release the per-link pool ACTORS before returning: the cached
            # ViewSearcher would otherwise hold num_links × num_actors CPUs
            # for the rest of the session, and on a small cluster (the
            # driver's correctness gate runs at 8 CPUs) the NEXT query's
            # Dataset tasks deadlock waiting for them (observed live:
            # 8.0/8.0 CPU held after this query, dd_exact_dedup hung).
            # close() only drops pools; the searcher stays reusable.
            vs.close()
        return pd.DataFrame(
            {
                "collection": out["collection"],
                "doc_id": out["conv_id"].str.slice(1).astype("int64"),
                "score": round_half_away(out["score"].to_numpy(), 4),
            }
        )

    _PAYLOAD_IDX: dict[str, str] = {}

    def ft_payload_topk(sf):
        # payload token attribute (SURVEY §2.1, r3): events re-expressed as
        # 'event_type|value' payload-carrying tokens, indexed with
        # IndexConfig(payloads=True); score = Σ float(payload) per doc
        # (the PayloadScoreQuery sum idiom).  One event per doc ⇒ score ==
        # value, so the oracle is ORDER BY value with the pinned tie order.
        import ray.data as rd

        from iresearch_ray import Searcher, build_index
        from iresearch_ray.functions.payload import payload_sum_topk
        from iresearch_ray.stages.segment import IndexConfig

        idx = _PAYLOAD_IDX.get(sf)
        if idx is None:
            ev = pq.read_table(
                f"{sf}/events.parquet", columns=["event_id", "event_type", "value"]
            ).filter(pa.compute.is_valid(pa.compute.field("value")))
            rows = pa.table(
                {
                    "conv_id": pa.array(
                        [f"e{int(i):012d}" for i in ev["event_id"].to_pylist()]
                    ),
                    "turn_idx": pa.array([0] * ev.num_rows, pa.int32()),
                    # str(float) round-trips the double exactly, so the
                    # payload weight IS the value column bit-for-bit
                    "text": pa.array(
                        [
                            f"{t}|{v!s}"
                            for t, v in zip(
                                ev["event_type"].to_pylist(), ev["value"].to_pylist()
                            )
                        ]
                    ),
                    "role": pa.array(["event"] * ev.num_rows),
                    "tool": pa.array([None] * ev.num_rows, pa.string()),
                }
            )
            from iresearch_ray import FORMAT_VERSION as _FV

            idx = os.path.join(
                _CACHE_ROOT,
                os.path.basename(os.path.normpath(sf)) + f"-payload-fv{_FV}",
                "idx",
            )
            src = os.path.join(os.path.dirname(idx), "events_payload.parquet")
            if not os.path.exists(src):
                os.makedirs(os.path.dirname(src), exist_ok=True)
                tmp = src + f".tmp.{os.getpid()}"
                pq.write_table(rows, tmp)
                os.replace(tmp, src)
            build_index(
                src, idx,
                cfg=IndexConfig(analyzer="delimited_payload", payloads=True),
                num_partitions=4, resume=True,
            )
            _PAYLOAD_IDX[sf] = idx
        s = Searcher(idx)
        out = payload_sum_topk(s, "text", "click", k=100)
        return pd.DataFrame(
            {
                "event_id": out["conv_id"].str.slice(1).astype("int64"),
                "score": out["score"].astype("float64"),
            }
        )

    def ft_nested_minmatch(sf):
        # by_nested parent/child join (SURVEY §2.4, nested_filter.cpp):
        # parents (users) with ≥ 3 child events of type 'error'; each parent
        # row is represented by its FIRST matching child (min event_id) per
        # the pinned Nested semantics.  score_merge='none' ⇒ constant score,
        # so the oracle is pure relational: GROUP BY user HAVING count ≥ 3.
        s = _events_searcher(sf)
        flt = F.Nested(child=F.Term("text", "error"), min_match=3, score_merge="none")
        out = s.search_local(flt, k=10_000_000)
        return pd.DataFrame(
            {"event_id": np.sort(out["turn_idx"].to_numpy().astype("int64"))}
        )

    def ft_collation_sort(sf):
        # First 50 docs in ICU root collation order of `text`.  The UCA
        # sort key (functions/analysis.CollationAnalyzer) is fuzz-verified
        # order-identical to DuckDB's bundled ICU ("en") on Latin text.
        # Scale shape: per-batch partial top-50 by (key, doc_id) inside
        # map_batches, then a tiny driver merge — no all-to-all sort.
        from iresearch_ray.functions.analysis import CollationAnalyzer

        coll = CollationAnalyzer()

        def partial(batch: pa.Table) -> pa.Table:
            # batch UCA kernel (unique-codepoint table driven) + Arrow-native
            # partial top-50 — no pandas, no per-row key() loop (r3 review #7)
            keys = coll.keys(batch["text"].to_pylist())
            t = pa.table({"doc_id": batch["doc_id"],
                          "ckey": pa.array(keys, pa.string())})
            return t.sort_by(
                [("ckey", "ascending"), ("doc_id", "ascending")]
            ).slice(0, 50)

        parts = _docs_ds(sf).map_batches(partial, batch_format="pyarrow").to_pandas()
        top = (
            parts.sort_values(["ckey", "doc_id"], kind="mergesort")
            .head(50)
            .reset_index(drop=True)
        )
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(top) + 1, dtype="int64"),
                "doc_id": top["doc_id"].astype("int64"),
            }
        )

    def ft_collation_sort_sv(sf):
        # Tailored collation e2e (r4): Swedish åäö-after-z.  The ASCII doc
        # corpus is made tailoring-LOAD-BEARING by a deterministic char
        # injection applied identically in the SQL oracle (an→å en→ä on→ö,
        # chained left-to-right in the same order), then sorted with the
        # sv-tailored UCA key vs DuckDB's real ICU COLLATE "sv".  Same
        # scale shape as ft_collation_sort: per-batch partial top-50.
        import pyarrow.compute as pc

        from iresearch_ray.functions.analysis import CollationAnalyzer

        coll = CollationAnalyzer(locale="sv")

        def partial(batch: pa.Table) -> pa.Table:
            txt = batch["text"]
            for pat, rep in (("an", "å"), ("en", "ä"), ("on", "ö")):
                txt = pc.replace_substring(txt, pattern=pat, replacement=rep)
            keys = coll.keys(txt.to_pylist())
            t = pa.table({"doc_id": batch["doc_id"],
                          "ckey": pa.array(keys, pa.string())})
            return t.sort_by(
                [("ckey", "ascending"), ("doc_id", "ascending")]
            ).slice(0, 50)

        parts = _docs_ds(sf).map_batches(partial, batch_format="pyarrow").to_pandas()
        top = (
            parts.sort_values(["ckey", "doc_id"], kind="mergesort")
            .head(50)
            .reset_index(drop=True)
        )
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(top) + 1, dtype="int64"),
                "doc_id": top["doc_id"].astype("int64"),
            }
        )

    def ft_stats(sf):
        s = _searcher(sf)
        terms, dfs = s.stats.field_terms("text")
        a = s.stats._field_arrays("text")
        sel = [i for i, t in enumerate(terms) if t in ("key", "table", "join", "the")]
        return pd.DataFrame(
            {
                "term": [str(terms[i]) for i in sel],
                "df": [int(a["df"][i]) for i in sel],
                "cf": [int(a["cf"][i]) for i in sel],
            }
        )

    def dd_dedup(sf):
        out = ops.exact_dedup(_docs_ds(sf)).to_pandas()
        return out[["doc_id"]].sort_values("doc_id").reset_index(drop=True)

    def dd_fp(sf):
        return ops.fingerprints(_docs_ds(sf)).to_pandas()[["doc_id", "md5"]]

    def dd_tokstats(sf):
        return ops.token_stats(_docs_ds(sf)).to_pandas()

    def dd_quality(sf):
        return ops.quality_scores(_docs_ds(sf)).to_pandas()

    def dd_langid(sf):
        out = ops.lang_id(_docs_ds(sf)).to_pandas()
        return out[["doc_id", "pred_lang"]]

    def dd_jaccard(sf):
        return ops.ngram_jaccard_pairs(_docs_ds(sf), n=3, threshold=0.5).to_pandas()

    def dd_near_dedup(sf):  # rows-only: LSH cluster + keep-best survivor ids
        out = ops.near_dedup(_docs_ds(sf), threshold=0.5).to_pandas()
        return out[["doc_id"]].sort_values("doc_id").reset_index(drop=True)

    def dd_minhash(sf):  # rows-only (no SQL oracle): LSH-bucketed near-dup
        return ops.minhash_lsh_pairs(_docs_ds(sf), threshold=0.5).to_pandas()

    def dd_simhash(sf):  # rows-only: hamming<=3 simhash pairs
        return ops.simhash_pairs(_docs_ds(sf), max_hamming=3).to_pandas()

    def dd_bpe(sf):
        return ops.bpe_token_stats(_docs_ds(sf)).to_pandas()

    def _docs_text_ds(sf):
        # pruned read: these ops touch only (doc_id, text)
        import ray.data as rd

        return rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])

    def dd_gopher(sf):
        # Gopher-rule quality gate (Rae et al. 2021 table A1 subset,
        # thresholds pinned in dataops.gopher_rules_batch)
        return ops.gopher_rules(_docs_text_ds(sf)).to_pandas()

    def dd_repetition(sf):
        # intra-doc duplicate-2-gram occurrence fractions
        return ops.repetition_stats(_docs_text_ds(sf)).to_pandas()

    def dd_decontaminate(sf):
        # benchmark decontamination: the "benchmark" is synthesized
        # DETERMINISTICALLY from the corpus itself (docs with id%13==0
        # contribute the four 5-gram windows starting at word 3..6) and
        # broadcast once; any doc sharing a 5-gram is flagged.  Mirrors
        # the SQL oracle exactly (string n-grams, not hashes).
        tbl = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
        ids = tbl["doc_id"].to_numpy()
        texts = tbl["text"].to_pylist()
        bench: set[str] = set()
        for i, t in zip(ids, texts):
            if int(i) % 13 == 0:
                ws = (t or "").split(" ")
                for j in range(2, 6):
                    if j + 5 <= len(ws):
                        bench.add(" ".join(ws[j : j + 5]))
        return ops.decontaminate(_docs_text_ds(sf), bench, n=5).to_pandas()

    def dd_pii(sf):
        # the synthetic corpus carries no PII, so deterministic e-mail /
        # IPv4 suffixes are injected (same CASE arithmetic as the SQL),
        # then counted and redacted with the shared RE2 patterns
        def inject(b: pa.Table) -> pa.Table:
            did = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            base = b["text"].to_pandas().fillna("").to_numpy(dtype=object)
            s7 = np.where(
                did % 7 == 0,
                np.array([f" contact user{i}@example.com now" for i in did], object),
                "",
            )
            s11 = np.where(
                did % 11 == 0,
                np.array([f" host 10.{i % 256}.0.1 up" for i in did], object),
                "",
            )
            return pa.table(
                {"doc_id": b["doc_id"], "text": pa.array(list(base + s7 + s11), pa.string())}
            )

        return ops.pii_scrub(
            _docs_text_ds(sf).map_batches(inject, batch_format="pyarrow")
        ).to_pandas()

    def dd_html_strip(sf):
        # HTML boilerplate stripping: the synthetic corpus is plain text, so
        # deterministic HTML wrappers are injected (same CASE arithmetic as
        # the SQL oracle — one third full-page with script/style/comment
        # containers, one third inline tags + entities, one third untouched),
        # then stripped with the shared RE2 patterns.  Both engines are RE2,
        # so replace/count parity is exact.
        def inject(b: pa.Table) -> pa.Table:
            did = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            base = b["text"].to_pandas().fillna("").to_numpy(dtype=object)
            m = did % 3
            page = (
                np.array(
                    [
                        '<html><head><script type="x">var q=1 &amp;&amp; 2;</script>'
                        "<style>p { color: red }</style></head><body><h1>Title %d</h1><p>" % i
                        for i in did
                    ],
                    object,
                )
                + base
                + '</p><!-- footer --><div class="nav">home &nbsp; about</div></body></html>'
            )
            inline = (
                "<p>" + base + " &amp; more &lt;tags&gt; &quot;quoted&quot; &#39;x&#39;</p><br/>"
            )
            out = np.where(m == 0, page, np.where(m == 1, inline, base))
            return pa.table({"doc_id": b["doc_id"], "text": pa.array(list(out), pa.string())})

        return ops.html_strip(
            _docs_text_ds(sf).map_batches(inject, batch_format="pyarrow")
        ).to_pandas()

    def dd_chunk_windows(sf):
        # context-window chunking: 64-token windows advancing by 48 (16-token
        # overlap), vectorized explode — the standard LM sample-prep layout
        return ops.chunk_windows(_docs_text_ds(sf), window=64, stride=48).to_pandas()

    def dd_seq_pack(sf):
        # concat-and-chunk sequence packing into 2048-token bins via the
        # distributed prefix-sum (bucketed groupby, driver scans only the
        # tiny per-bucket sums); oracle is a single SQL window function
        return ops.sequence_pack(_docs_text_ds(sf), capacity=2048, bucket_size=512).to_pandas()

    def dd_vocab_topk(sf):
        # global term frequencies (map-side value_counts partials, one
        # token-keyed groupby-sum), deterministic top-100 via the partial
        # top-k idiom — never a global sort
        return ops.vocab_topk(_docs_text_ds(sf), k=100).to_pandas()

    def dd_unigram_nll(sf):
        # unigram-LM surprisal (CCNet-style perplexity filter skeleton):
        # model = corpus top-4096 tokens, OOV floor 1/N; score = mean NLL
        return ops.unigram_surprisal(_docs_text_ds(sf), vocab_size=4096).to_pandas()

    def _docs_meta_ds(sf):
        import ray.data as rd

        return rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "lang", "n_chars"])

    def dd_lang_topn(sf):
        # per-language quota selection (25 longest docs per lang): per-batch
        # partial top-n (≤ strata×n rows out per batch), one stratum-keyed
        # shuffle of candidates only, final in-group top-n
        return ops.stratified_topn(
            _docs_meta_ds(sf), by="lang", order_col="n_chars", k=25
        ).to_pandas()

    def dd_hash_sample(sf):
        # deterministic Bernoulli sample (Knuth multiplicative hash on the
        # id, rate 0.1): idempotent across re-runs/resumes, SQL-reproducible
        out = ops.hash_sample(_docs_meta_ds(sf), rate=0.1).to_pandas()
        return out[["doc_id", "n_chars"]]

    def dd_temperature_sample(sf):
        # temperature mixing (mC4/XLM-R rule): stratum weight n^0.5
        # renormalized, per-stratum keep prob q = min(1, target*w/n), row
        # survives iff knuth_hash(id) < floor(round(q,6)*2^32) — counts,
        # powers and the hash all SQL-reproducible; ONE tiny stratum-count
        # groupby + one narrow filter pass, the corpus never shuffles
        out = ops.temperature_sample(
            _docs_meta_ds(sf), by="lang", alpha=0.5, rate=0.5
        ).to_pandas()
        return out[["doc_id", "lang"]]

    def dd_bpe_train(sf):
        # BPE tokenizer training (Sennrich et al. 2016): corpus-scale work
        # is ONE word-count exchange (map-side value_counts partials); the
        # greedy merge learning runs over the bounded (word, freq)
        # vocabulary with incremental pair counts.  Iterative + tie-broken
        # greedy = not SQL-expressible; rows-only here, exact-vs-brute
        # (recount-from-scratch reference) in tests/test_dataops.py.
        return ops.train_bpe(_docs_ds(sf), num_merges=200).to_pandas()

    def dd_substring_dedup(sf):
        # ExactSubstr span stats (Lee et al. 2022 formulation at fixed L=8):
        # every 8-token window whose exact token sequence occurs >= 2 times
        # anywhere in the corpus is duplicated; overlapping windows merge
        # into maximal spans.  Engine: 128-bit window poly-hashes, ONE
        # hash-keyed exchange finds duplicated occurrences (all occurrences
        # of a key co-locate, so "count >= 2" is a local run-length test),
        # ONE doc-keyed exchange merges spans.  The SQL oracle materializes
        # the window STRINGS — exact by construction — so a hash collision
        # or a span-merge bug in the engine would hash-mismatch.
        return ops.substring_dedup(_docs_ds(sf), L=8).to_pandas()

    def geo_radius(sf, nearest_k: int = 0):
        # In-engine GEO: geopoint analyzer (geohash prefix terms at
        # precisions 1..7 — the numeric-trie idiom) + GeoDistance filter
        # (covering-cell term lookups, then exact vectorized haversine
        # over the STORED lat,lon column), oracled by a DuckDB haversine
        # scan.  The corpus has no geo column, so coordinates derive
        # DETERMINISTICALLY from doc_id with arithmetic mirrored exactly
        # in the SQL (int64 modular lattice at 0.01°, so no doc lands
        # within float noise of the radius boundary).  Scale shape: the
        # candidate stage is a handful of term lookups; the refine reads
        # candidates only — work proportional to the circle, never the
        # corpus.
        from iresearch_ray import Searcher, build_index
        from iresearch_ray.query import filters as F
        from iresearch_ray.stages.segment import IndexConfig

        tbl = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])
        did = tbl["doc_id"].to_numpy().astype(np.int64)
        lat = ((did * 7919) % 17000) / 100.0 - 85.0
        lon = ((did * 104729) % 36000) / 100.0 - 180.0
        n = len(did)
        # zero-padded keys: the engine's equal-score tie-break orders by
        # conv_id STRING, which must equal the oracle's numeric doc_id
        # order for the nearest-k variant
        src_tbl = pa.table({
            "conv_id": pa.array([f"{int(i):09d}" for i in did]),
            "turn_idx": pa.array(np.zeros(n, np.int32), pa.int32()),
            "text": pa.array(["_"] * n),
            "role": pa.array(["doc"] * n),
            "tool": pa.array([""] * n),
            "ts": pa.array(np.arange(n), pa.int64()).cast(
                pa.timestamp("us")),
            "geo": pa.array([f"{a},{b}" for a, b in zip(lat, lon)]),
        })
        root = os.path.join(
            _CACHE_ROOT,
            os.path.basename(os.path.normpath(sf)) + "-geo2")
        os.makedirs(root, exist_ok=True)
        src = os.path.join(root, "geo.parquet")
        if not os.path.exists(src):
            tmp = src + f".tmp.{os.getpid()}"
            pq.write_table(src_tbl, tmp)
            os.replace(tmp, src)
        idx = os.path.join(root, "idx")
        build_index(src, idx, cfg=IndexConfig(geo_fields=("geo",)),
                    num_partitions=4, resume=True)
        s = Searcher(idx)
        if nearest_k:
            # GEO_DISTANCE-sorted shape: score = radius - dist, top-k =
            # the k nearest docs within the radius, nearest first
            res = s.search_local(
                F.GeoDistance("geo", 20.0, 40.0, 6000.0,
                              score_distance=True), k=nearest_k)
            return pd.DataFrame(
                {"doc_id": [int(c) for c in res["conv_id"]]})
        res = s.search_local(F.GeoDistance("geo", 20.0, 40.0, 3000.0), k=n)
        out = pd.DataFrame(
            {"doc_id": sorted(int(c) for c in res["conv_id"])})
        return out

    def mm_frame_sample(sf):
        # Real in-engine H.264 video decode as a driver surface (r5):
        # four deterministic avc1 MP4s — IDR + CAVLC P pictures
        # (quarter-pel MC, P_Skip, mixed partitions), one GOP with a
        # non-IDR intra refresh, AND two GOPs with CAVLC B pictures
        # (one spatial-direct, one temporal-direct with implicit
        # weighting; decode order != display order) — run through the
        # FrameSample actor-pool stage (decoder='h264_mp4'), sampling
        # every 2nd access unit while threading the reference chain and
        # restoring DISPLAY order per GOP.  No SQL oracle (the decode is
        # not SQL-expressible) — the driver records the rows-only check;
        # determinism is pinned by the seeded encoder and integer
        # per-frame pixel sums.
        import ray.data as rd

        from iresearch_ray.stages.mp4 import encode_mp4_h264
        from iresearch_ray.stages.multimodal import FrameSample

        rng = np.random.default_rng(451)
        gops = [("iprp", "spatial", None), ("ippp", "spatial", None),
                ("ibp", "spatial", None), ("ibpbp", "temporal", "implicit")]
        payloads = []
        for vid in range(4):
            base = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
            vf = [base]
            for _ in range(3 if vid < 2 else 4):
                nxt = np.clip(np.roll(vf[-1], 1, axis=1).astype(int)
                              + rng.integers(-3, 4, base.shape), 0, 255)
                vf.append(nxt.astype(np.uint8))
            gop, bd, bw = gops[vid]
            payloads.append(encode_mp4_h264(
                vf, fps=5, qp=18, kinds="i16", gop=gop, p_kinds="pmix",
                b_kinds="bmix", b_direct=bd, b_weights=bw))
        tbl = pa.table({
            "item_id": pa.array(range(4), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["video/mp4"] * 4),
            "n_frames": pa.array([4, 4, 5, 5], pa.int32()),
            "fps": pa.array([5.0] * 4, pa.float32()),
        })
        out = (rd.from_arrow(tbl)
               .map_batches(FrameSample(every=2, height=32, width=32,
                                        decoder="h264_mp4"),
                            batch_size=2, batch_format="pyarrow",
                            concurrency=2)
               .map_batches(lambda b: pa.table({
                   "item_id": b["item_id"],
                   "frame_idx": b["frame_idx"],
                   "pix_sum": pa.array(
                       np.asarray(b["pixels"].combine_chunks()
                                  .flatten()).reshape(
                           b.num_rows, -1).sum(axis=1, dtype=np.int64)),
               }), batch_format="pyarrow")
               ).to_pandas()
        return out.sort_values(["item_id", "frame_idx"]).reset_index(drop=True)

    def mm_image_decode(sf):
        # Real mixed-format IMAGE decode as a driver surface (r5): one
        # deterministic 16x16 scene serialized into SIX real containers
        # — PPM, full-spec PNG, baseline JPEG, GIF89a, BMP (RLE8) and
        # TIFF (LZW + horizontal predictor, 2 strips) — plus one corrupt
        # payload, run through the ImageDecode actor-pool stage with
        # decoder='auto' (container-magic sniffing) and on_error='skip'.
        # No SQL oracle (entropy decode is not SQL-expressible) — the
        # driver records the rows-only check; determinism is pinned by
        # the seeded scene and integer per-image pixel sums (lossless
        # rows share ONE sum; JPEG differs only by quantization).
        import ray.data as rd

        from iresearch_ray.stages.gif import encode_gif
        from iresearch_ray.stages.jpeg import encode_jpeg
        from iresearch_ray.stages.multimodal import (ImageDecode,
                                                     encode_png,
                                                     encode_ppm)
        from iresearch_ray.stages.tiffbmp import encode_bmp, encode_tiff

        rng = np.random.default_rng(453)
        cols = np.array([[250, 10, 10], [10, 250, 10], [10, 10, 250],
                         [40, 40, 40]], np.uint8)
        idx = rng.integers(0, 4, (16, 16)).astype(np.uint8)
        img = cols[idx]
        payloads = [
            encode_ppm(img),
            encode_png(img),
            encode_jpeg(img, quality=95),
            encode_gif([idx], cols),
            encode_bmp(img, bpp=8, rle=True),
            encode_tiff(img, compression="lzw", predictor=2,
                        rows_per_strip=9),
            b"\x00corrupt",  # dropped by on_error='skip'
        ]
        tbl = pa.table({
            "item_id": pa.array(range(len(payloads)), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        })
        out = (rd.from_arrow(tbl)
               .map_batches(ImageDecode(height=16, width=16,
                                        decoder="auto", on_error="skip"),
                            batch_size=4, batch_format="pyarrow",
                            concurrency=2)
               .map_batches(lambda b: pa.table({
                   "item_id": b["item_id"],
                   "pix_sum": pa.array(
                       np.asarray(b["pixels"].combine_chunks()
                                  .flatten()).reshape(
                           b.num_rows, -1).sum(axis=1, dtype=np.int64)),
               }), batch_format="pyarrow")
               ).to_pandas()
        return out.sort_values("item_id").reset_index(drop=True)

    def mm_gif_frames(sf):
        # Real in-engine animated-GIF decode as a driver surface (r5):
        # four deterministic GIF89a animations (stages/gif.py — LZW,
        # delta regions, transparency holes, disposal restore-previous,
        # one interlaced) run through the FrameSample actor-pool stage
        # (decoder='gif'), sampling every 2nd composed frame.  No SQL
        # oracle (LZW decode is not SQL-expressible) — the driver records
        # the rows-only check; determinism is pinned by the seeded
        # encoder and integer per-frame pixel sums, and composition
        # semantics are asserted against known pixels in tests/test_gif.py.
        import ray.data as rd

        from iresearch_ray.stages.gif import encode_gif
        from iresearch_ray.stages.multimodal import FrameSample

        rng = np.random.default_rng(452)
        pal = rng.integers(0, 256, (64, 3), dtype=np.uint8)
        payloads = []
        for vid in range(4):
            base = rng.integers(0, 64, (16, 16), dtype=np.uint8)
            patches = [
                rng.integers(0, 64, (6, 6), dtype=np.uint8) for _ in range(4)
            ]
            for p in patches:
                p[0, 0] = 63  # transparent hole
            payloads.append(
                encode_gif(
                    [base] + patches,
                    pal,
                    screen=(16, 16),
                    regions=[(0, 0), (1, 1), (4, 4), (8, 8), (2, 9)],
                    transparent=63,
                    disposals=[0, 0, 3, 0, 2],
                    delays_cs=[4] * 5,
                    interlace=bool(vid % 2),
                )
            )
        tbl = pa.table({
            "item_id": pa.array(range(4), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["image/gif"] * 4),
            "n_frames": pa.array([5] * 4, pa.int32()),
            "fps": pa.array([25.0] * 4, pa.float32()),
        })
        out = (rd.from_arrow(tbl)
               .map_batches(FrameSample(every=2, height=16, width=16,
                                        decoder="gif"),
                            batch_size=2, batch_format="pyarrow",
                            concurrency=2)
               .map_batches(lambda b: pa.table({
                   "item_id": b["item_id"],
                   "frame_idx": b["frame_idx"],
                   "pix_sum": pa.array(
                       np.asarray(b["pixels"].combine_chunks()
                                  .flatten()).reshape(
                           b.num_rows, -1).sum(axis=1, dtype=np.int64)),
               }), batch_format="pyarrow")
               ).to_pandas()
        return out.sort_values(["item_id", "frame_idx"]).reset_index(drop=True)

    def mm_audio_band(sf):
        # Real in-engine AUDIO decode as a driver surface (r5): a mixed
        # WAV + AIFF + native-FLAC corpus (stages/flac.py — RFC 9639
        # decoder: LPC/fixed subframes, rice partitions, CRC-8/16 + MD5
        # verified) runs through the AudioDecode → AudioFeatures actor-pool
        # stages; per item we report the dominant FFT band.  No SQL oracle
        # (FFT band energies are not SQL-expressible) — the driver records
        # the rows-only check; determinism is pinned by the seeded synth
        # corpus and integer band indices, and the physics (band tracks the
        # seeded sine frequency) is asserted in tests/test_flac.py.
        import ray.data as rd

        from iresearch_ray.stages.audio import (
            AudioDecode,
            AudioFeatures,
            synth_audio_table,
        )

        tbl = synth_audio_table(18, sr=8000, secs=0.4, fmt="mixed")
        out = (
            rd.from_arrow(tbl)
            .map_batches(AudioDecode(), batch_size=8, batch_format="pyarrow",
                         concurrency=2)
            .map_batches(AudioFeatures(), batch_size=8,
                         batch_format="pyarrow", concurrency=2)
            .map_batches(lambda b: pa.table({
                "item_id": b["item_id"],
                "band": pa.array(
                    np.asarray(b["embedding"].combine_chunks()
                               .flatten()).reshape(b.num_rows, -1)[:, 2:]
                    .argmax(axis=1).astype(np.int64)),
            }), batch_format="pyarrow")
        ).to_pandas()
        return out.sort_values("item_id").reset_index(drop=True)

    def dd_cjk_tokens(sf):
        # Dictionary segmentation e2e (r5, closes VERDICT r4 "missing #2"):
        # the ICU-style Viterbi path (functions/segmentation.py:dict_segment)
        # is made load-bearing with deterministic CJK injection — 'the' →
        # 机器学习模型 then 'er' → 北京大学生活, chained in that order and
        # mirrored exactly in the SQL oracle — tokenized with the SHIPPED
        # ~1k-word test lexicon (resources/cjk_test_lexicon.txt).  The
        # lexicon's decoy 机器学 defeats greedy-longest (Viterbi must pick
        # 机器+学习模型) and 北京/大学 defeat both per-char fallback and
        # non-minimal splits (min-pieces must pick 北京大学+生活): a broken
        # dictionary path changes the TOKEN SET, not just counts, so the
        # oracle hash catches it.  Scale shape: per-batch vectorized
        # replace + per-task analyzer, tiny (token, cnt) partials reduced
        # by one native groupby sum — nothing corpus-sized leaves workers.
        from collections import Counter

        import pyarrow.compute as pc

        from iresearch_ray.functions.segmentation import (
            SegmentationAnalyzer,
            _is_dict_script,
            load_test_lexicon,
        )

        ana = SegmentationAnalyzer(dictionary=load_test_lexicon())

        def partial(batch: pa.Table) -> pa.Table:
            txt = pc.replace_substring(
                batch["text"], pattern="the", replacement="机器学习模型"
            )
            txt = pc.replace_substring(
                txt, pattern="er", replacement="北京大学生活"
            )
            c: Counter = Counter()
            for toks in ana(txt.to_pylist()):
                for t in toks:
                    if _is_dict_script(t[0]):
                        c[t] += 1
            return pa.table(
                {
                    "token": pa.array(list(c.keys()), pa.string()),
                    "cnt": pa.array([int(v) for v in c.values()], pa.int64()),
                }
            )

        out = (
            _docs_ds(sf)
            .map_batches(partial, batch_format="pyarrow")
            .groupby("token")
            .sum("cnt")
            .to_pandas()
        )
        return (
            out.rename(columns={"sum(cnt)": "cnt"})
            .sort_values("token")
            .reset_index(drop=True)
        )

    def _events_ds(sf):
        import ray.data as rd

        return rd.read_parquet(f"{sf}/events.parquet")

    def ev_type_stats(sf):
        from iresearch_ray.pipelines import events as ev

        return ev.event_type_stats(_events_ds(sf)).to_pandas()

    def ev_window(sf):
        from iresearch_ray.pipelines import events as ev

        return ev.window_agg(_events_ds(sf), window_secs=600).to_pandas()

    def ev_sessions(sf):
        from iresearch_ray.pipelines import events as ev

        return ev.sessionize(_events_ds(sf)).to_pandas()

    def ev_props(sf):
        from iresearch_ray.pipelines import events as ev

        return ev.props_k_stats(_events_ds(sf)).to_pandas()

    def ev_funnel(sf):
        # first-touch funnel view→click→purchase: pruned+filtered read,
        # one user-keyed shuffle, map-side histogram reduce
        import ray.data as rd

        from iresearch_ray.pipelines import events as ev

        ds = rd.read_parquet(f"{sf}/events.parquet", columns=["user_id", "event_type", "ts"])
        return ev.funnel(ds, ("view", "click", "purchase")).to_pandas()

    def ev_retention(sf):
        # weekly cohort retention matrix: map-side (user, period) distinct
        # compression, one user-keyed shuffle, tiny (cohort, offset) count
        import ray.data as rd

        from iresearch_ray.pipelines import events as ev

        ds = rd.read_parquet(f"{sf}/events.parquet", columns=["user_id", "ts"])
        return ev.retention_cohorts(ds).to_pandas()

    def ev_asof(sf):
        from iresearch_ray.pipelines import events as ev

        return ev.asof_join(_events_ds(sf), "click", "view").to_pandas()

    def ev_range_join(sf):
        from iresearch_ray.pipelines import events as ev

        return ev.range_join_count(_events_ds(sf), "click", "view", 600).to_pandas()

    def _emb_rows(sf, ids, columns):
        """The embeddings.parquet rows whose vec_id is in ``ids``, read by a
        Ray Data task with the filter pushed into the Parquet scan: only
        ``columns`` of the matching rows reach the driver."""
        import pyarrow.compute as pc
        import ray.data as rd

        return rd.read_parquet(
            f"{sf}/embeddings.parquet",
            columns=columns,
            filter=pc.field("vec_id").isin(list(ids)),
        ).to_pandas()

    def _qmat(sf):
        # the queries are the 3 smallest vec_ids: the driver reads the
        # vec_id column, then only those 3 rows
        ids = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id"])["vec_id"]
        q = _emb_rows(sf, np.sort(ids.to_numpy())[:3].tolist(), ["vec_id", "embedding"])
        q = q.sort_values("vec_id")
        return np.array(q["embedding"].tolist(), dtype=np.float64)

    def emb_topk(sf):
        out = ops.embedding_topk(_emb_ds(sf), _qmat(sf), k=10).to_pandas()
        return out[["query_idx", "vec_id", "cosine"]]

    def emb_neardup(sf):
        """Exact low-threshold pair scan — method='brute' is the EXPLICIT
        opt-in (at t=0.4 the candidate graph is dense and LSH bucketing
        cannot reach recall; the default path is the LSH one exercised by
        emb_neardup_lsh)."""
        return ops.embedding_neardup_pairs(
            _emb_ds(sf), threshold=0.4, method="brute"
        ).to_pandas()

    def _emb_with_dups_ds(sf):
        """embeddings ∪ deterministic perturbed copies (vec_id + 100000,
        e'[i] = e[i] + 0.2·e[1 + i mod d]) — plants one ~0.98-cosine pair
        per vector so the ≥0.9 near-dup op has real work; background pairs
        top out near 0.5.  Same construction in the SQL oracle."""
        import ray.data as rd

        t = pq.read_table(f"{sf}/embeddings.parquet").select(["vec_id", "embedding"])
        emb = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        pert = emb + 0.2 * np.roll(emb, -1, axis=1)
        dup = pa.table(
            {
                "vec_id": pa.array(
                    t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64) + 100000
                ),
                "embedding": pa.array(list(pert), pa.list_(pa.float64())),
            }
        )
        base = pa.table(
            {
                "vec_id": t["vec_id"].cast(pa.int64()),
                "embedding": t["embedding"].cast(pa.list_(pa.float64())),
            }
        )
        return rd.from_arrow(pa.concat_tables([base, dup]))

    def emb_neardup_lsh(sf):
        """DEFAULT (bucketed) near-dup path: banded hyperplane LSH candidate
        buckets + exact within-bucket verify.  Params (4 planes × 10
        tables) verified recall-1.0 on this corpus at both sf0.001 and
        sf0.01 (deterministic seed + data ⇒ reproducible); the oracle is
        the exact all-pairs SQL, so any recall loss fails the hash gate."""
        return ops.embedding_neardup_pairs(
            _emb_with_dups_ds(sf), threshold=0.9, n_planes=4, n_tables=10
        ).to_pandas()

    def emb_knn_labels(sf):
        """k-NN classification flavor: label histogram of each query's
        top-20 cosine neighbors (excluding self)."""
        out = ops.embedding_topk(_emb_ds(sf), _qmat(sf), k=21).to_pandas()
        out = out[out["vec_id"] != out["query_idx"]]
        out = out.sort_values(["query_idx", "rank"]).groupby("query_idx").head(20)
        # labels of the top-k rows only, not a driver-side table of them all
        labels = _emb_rows(sf, out["vec_id"].unique().tolist(), ["vec_id", "label"])
        out = out.merge(labels, on="vec_id")
        hist = (
            out.groupby(["query_idx", "label"]).size().reset_index(name="cnt")
        )
        hist["label"] = hist["label"].astype("int64")
        return hist

    def emb_lsh(sf):
        """ANN scale path.  Oracle-checked against a SQL reproduction of the
        SAME deterministic semantics (hyperplane buckets from seed-42 planes
        + radius-1 multiprobe + per-bucket top-k) — not against brute force:
        on this corpus top-10 neighbors sit at wide angles where hyperplane
        LSH recall < 1 by design."""
        return ops.embedding_lsh_topk(
            _emb_ds(sf), _qmat(sf), k=10, n_planes=6, probe_radius=1
        ).to_pandas()[["query_idx", "vec_id", "cosine"]]

    def emb_ivf(sf):
        """IVF-flat ANN scale path (pinned smallest-id coarse codebook —
        SQL-reproducible; see dataops.embedding_ivf_topk)."""
        return ops.embedding_ivf_topk(
            _emb_ds(sf), _qmat(sf), k=10, n_centroids=16, nprobe=4
        ).to_pandas()[["query_idx", "vec_id", "cosine"]]

    def emb_semantic_dedup(sf):
        """SemDeDup: in-engine k-means clusters + within-cluster greedy
        cosine dedup (keep the lowest id of each near-identical set).
        k-means is iterative (not SQL-expressible) -> rows-only; the greedy
        semantics are pinned vs a brute python oracle in tests."""
        # t=0.4 matches emb_neardup_pairs' near-dup band on this corpus
        # (synthetic embeddings have no 0.9-cosine twins; at 0.4 the op
        # actually drops rows, so the greedy path is load-bearing)
        out = ops.semantic_dedup(_emb_ds(sf), n_clusters=8, threshold=0.4).to_pandas()
        return out[["vec_id", "cluster", "kept", "dup_of", "max_sim"]]

    return {
        "ft_term_topk": ft_term,
        "ft_count": ft_count,
        "ft_or_topk": ft_or,
        "ft_and_topk": ft_and,
        "ft_andnot_topk": ft_andnot,
        "ft_minmatch_topk": ft_minmatch,
        "ft_phrase_topk": ft_phrase,
        "ft_phrase_slop": ft_phrase_slop,
        "ft_prefix_topk": ft_prefix,
        "ft_range_topk": ft_range,
        "ft_wildcard_topk": ft_wildcard,
        "ft_wildcard_wide_topk": ft_wildcard_wide,
        "ft_fuzzy_topk": ft_fuzzy,
        "ft_keyword_topk": ft_keyword,
        "ft_tfidf_topk": ft_tfidf,
        "ft_bm15_topk": ft_bm15,
        "ft_boosted_or_topk": ft_boosted,
        "ft_exists": ft_exists,
        "ft_all_docs": ft_all,
        "ft_ngram_similarity": ft_ngram_sim,
        "ft_granular_range": ft_granular,
        "ft_stats_df": ft_stats,
        "ft_collation_sort": ft_collation_sort,
        "ft_collation_sort_sv": ft_collation_sort_sv,
        "ft_dynamic_props": ft_dynamic_props,
        "ft_nested_minmatch": ft_nested_minmatch,
        "ft_offsets_first": ft_offsets_first,
        "ft_payload_topk": ft_payload_topk,
        "ft_view_topk": ft_view_topk,
        "geo_radius": geo_radius,
        "geo_nearest": lambda sf: geo_radius(sf, nearest_k=10),
        "dd_exact_dedup": dd_dedup,
        "dd_fingerprints": dd_fp,
        "dd_token_stats": dd_tokstats,
        "dd_quality": dd_quality,
        "dd_lang_id": dd_langid,
        "dd_bpe_tokens": dd_bpe,
        "dd_gopher_rules": dd_gopher,
        "dd_repetition": dd_repetition,
        "dd_decontaminate": dd_decontaminate,
        "dd_pii_scrub": dd_pii,
        "dd_html_strip": dd_html_strip,
        "dd_chunk_windows": dd_chunk_windows,
        "dd_seq_pack": dd_seq_pack,
        "dd_vocab_topk": dd_vocab_topk,
        "dd_unigram_nll": dd_unigram_nll,
        "dd_lang_topn": dd_lang_topn,
        "dd_hash_sample": dd_hash_sample,
        "dd_substring_dedup": dd_substring_dedup,
        "dd_temperature_sample": dd_temperature_sample,
        "dd_bpe_train": dd_bpe_train,
        "dd_cjk_tokens": dd_cjk_tokens,
        "dd_jaccard_pairs": dd_jaccard,
        "ev_type_stats": ev_type_stats,
        "ev_window_agg": ev_window,
        "ev_sessionize": ev_sessions,
        "ev_props_k_stats": ev_props,
        "ev_funnel": ev_funnel,
        "ev_retention": ev_retention,
        "ev_asof_join": ev_asof,
        "ev_range_join": ev_range_join,
        "dd_near_dedup": dd_near_dedup,
        "dd_minhash_pairs": dd_minhash,
        "dd_simhash_pairs": dd_simhash,
        "mm_frame_sample": mm_frame_sample,
        "mm_image_decode": mm_image_decode,
        "mm_gif_frames": mm_gif_frames,
        "mm_audio_band": mm_audio_band,
        "emb_topk": emb_topk,
        "emb_knn_labels": emb_knn_labels,
        "emb_neardup_pairs": emb_neardup,
        "emb_neardup_lsh": emb_neardup_lsh,
        "emb_lsh_topk": emb_lsh,
        "emb_ivf_topk": emb_ivf,
        "emb_semantic_dedup": emb_semantic_dedup,
    }


# exact shingle-Jaccard SQL.  The UNCAPPED form is the oracle for
# dd_minhash_pairs (the engine verify intersects FULL shingle sets; LSH
# params verified recall-1.0 on this corpus, so outputs coincide
# deterministically).  dd_jaccard_pairs uses the CAPPED form mirroring the
# engine's hot_shingle_cap: shingles shared by more than ``cap`` docs are
# excluded from the intersection counts (sizes stay uncapped) — exactly
# what dropping a hot shingle group does to the candidate pipeline.
def _sql_jaccard(cap: int | None = None) -> str:
    hot = (
        f"WHERE x.g IN (SELECT g FROM sh GROUP BY g HAVING count(*) <= {cap})"
        if cap is not None
        else ""
    )
    return f"""
WITH lists AS (
  SELECT doc_id, string_split(text,' ') AS l FROM documents
), sh AS (
  SELECT DISTINCT doc_id, l[i] || ' ' || l[i+1] || ' ' || l[i+2] AS g
  FROM lists, unnest(generate_series(1, len(l)-2)) t(i)
), sizes AS (
  SELECT doc_id, count(*) AS sz FROM sh GROUP BY doc_id
), inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS c
  FROM sh x JOIN sh y ON x.g = y.g AND x.doc_id < y.doc_id
  {hot}
  GROUP BY x.doc_id, y.doc_id
)
SELECT a, b, round(c / (sa.sz + sb.sz - c)::DOUBLE, 4) AS jaccard
FROM inter JOIN sizes sa ON inter.a = sa.doc_id JOIN sizes sb ON inter.b = sb.doc_id
WHERE c / (sa.sz + sb.sz - c)::DOUBLE >= 0.5
"""


_SQL_JACCARD = _sql_jaccard(None)


def _sql_near_dedup(quality_expr: str) -> str:
    """Connected components over the exact-Jaccard pair graph (recursive
    CTE min-label propagation) + keep-best survivor per cluster
    (quality desc, doc_id asc) — mirrors pipelines.dataops.near_dedup."""
    return f"""
WITH RECURSIVE lists AS (
  SELECT doc_id, string_split(text,' ') AS l FROM documents
), sh AS (
  SELECT DISTINCT doc_id, l[i] || ' ' || l[i+1] || ' ' || l[i+2] AS g
  FROM lists, unnest(generate_series(1, len(l)-2)) t(i)
), sizes AS (
  SELECT doc_id, count(*) AS sz FROM sh GROUP BY doc_id
), inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS c
  FROM sh x JOIN sh y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY x.doc_id, y.doc_id
), pairs AS (
  SELECT a, b FROM inter
  JOIN sizes sa ON inter.a = sa.doc_id JOIN sizes sb ON inter.b = sb.doc_id
  WHERE c / (sa.sz + sb.sz - c)::DOUBLE >= 0.5
), edges AS (
  SELECT a AS x, b AS y FROM pairs UNION ALL SELECT b, a FROM pairs
), reach(x, r) AS (
  SELECT x, x FROM (SELECT DISTINCT x FROM edges) t
  UNION
  SELECT e.x, reach.r FROM edges e JOIN reach ON e.y = reach.x
), root AS (
  SELECT x, min(r) AS root FROM reach GROUP BY x
), qual AS (
  SELECT doc_id, {quality_expr} AS q FROM documents
), ranked AS (
  SELECT root.x AS doc_id,
         row_number() OVER (
           PARTITION BY root.root ORDER BY qual.q DESC, root.x ASC
         ) AS rn
  FROM root JOIN qual ON qual.doc_id = root.x
)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (SELECT doc_id FROM ranked WHERE rn > 1)
ORDER BY doc_id
"""


def _sql_simhash_pairs(max_hamming: int = 3) -> str:
    """64-bit tf-weighted SimHash in SQL: token hash = first 8 md5 bytes
    (('0x'||substr(md5(w),1,16))::UBIGINT — exactly the engine's
    _md5_hash64), per-bit signed tf accumulators, then brute pairwise
    bit_count(xor) ≤ d.  Mirrors pipelines.dataops.simhash_batch; the
    engine's pigeonhole chunk LSH is recall-exact for d ≤ chunks-1, so
    engine output == this brute enumeration."""
    chunk_bits = 64 // (max_hamming + 1)
    chunk_mask = (1 << chunk_bits) - 1
    accs = ",\n         ".join(
        f"sum(CASE WHEN (hw >> {i}) & 1 = 1 THEN tf ELSE -tf END) AS a{i}"
        for i in range(64)
    )
    packed = " + ".join(
        f"(CASE WHEN a{i} > 0 THEN {1 << i}::UBIGINT ELSE 0::UBIGINT END)"
        for i in range(64)
    )
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text,' ')) AS w FROM documents
), tf AS (
  SELECT doc_id, w, count(*) AS tf FROM tok GROUP BY doc_id, w
), h AS (
  SELECT doc_id, tf, ('0x' || substr(md5(w),1,16))::UBIGINT AS hw FROM tf
), acc AS (
  SELECT doc_id,
         {accs}
  FROM h GROUP BY doc_id
), sim AS (
  SELECT doc_id, ({packed}) AS s FROM acc
), chunks AS (
  -- pigeonhole candidate generation mirroring the engine (d+1 chunks of
  -- 64//(d+1) bits; buckets over the cap are dropped like the engine's
  -- _BUCKET_CAP)
  SELECT doc_id, c.c AS chunk, (s >> (c.c * {chunk_bits})) & {chunk_mask}::UBIGINT AS val
  FROM sim, (SELECT unnest(generate_series(0, {max_hamming})) AS c) c
), ok AS (
  SELECT chunk, val FROM chunks GROUP BY chunk, val HAVING count(*) <= 10000
), cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM chunks x
  JOIN ok ON ok.chunk = x.chunk AND ok.val = x.val
  JOIN chunks y ON y.chunk = x.chunk AND y.val = x.val AND x.doc_id < y.doc_id
)
SELECT cand.a, cand.b, bit_count(xor(sa.s, sb.s))::BIGINT AS hamming
FROM cand JOIN sim sa ON cand.a = sa.doc_id JOIN sim sb ON cand.b = sb.doc_id
WHERE bit_count(xor(sa.s, sb.s)) <= {max_hamming}
"""


def _sql_ngram_similarity(t0: str, t1: str, t2: str, thr_lcs: int = 2) -> str:
    """Closed-form LCS for a 3-term in-order query: lcs=3 iff an increasing
    position triple exists (greedy earliest-advance is exact for
    subsequence existence), lcs=2 iff any in-order pair exists.  Mirrors
    query.exec._eval_ngram_similarity with threshold 0.4 ⇒ keep lcs ≥ 2,
    score = round(lcs/3, 4)."""
    return f"""
WITH lists AS (
  SELECT doc_id, string_split(text,' ') AS l FROM documents
), pos AS (
  SELECT doc_id,
    list_filter(generate_series(1, len(l)), i -> l[i] = '{t0}') AS p0,
    list_filter(generate_series(1, len(l)), i -> l[i] = '{t1}') AS p1,
    list_filter(generate_series(1, len(l)), i -> l[i] = '{t2}') AS p2
  FROM lists
), feat AS (
  SELECT doc_id,
    (len(p0) > 0 AND len(p1) > 0 AND list_min(p0) < list_max(p1)) AS s01,
    (len(p0) > 0 AND len(p2) > 0 AND list_min(p0) < list_max(p2)) AS s02,
    (len(p1) > 0 AND len(p2) > 0 AND list_min(p1) < list_max(p2)) AS s12,
    (len(p0) > 0 AND len(p1) > 0 AND len(p2) > 0
     AND len(list_filter(p1, x -> x > list_min(p0))) > 0
     AND list_max(p2) > list_min(list_filter(p1, x -> x > list_min(p0)))) AS s012
  FROM pos
), lcs AS (
  SELECT doc_id,
         CASE WHEN s012 THEN 3 WHEN s01 OR s02 OR s12 THEN 2 ELSE 1 END AS lcs
  FROM feat
)
SELECT doc_id, round(lcs / 3.0, 4) AS score FROM lcs WHERE lcs >= {thr_lcs}
"""


def _sql_emb_lsh(n_planes: int = 6, seed: int = 42, dim: int = 64, k: int = 10) -> str:
    """SQL reproduction of embedding_lsh_topk's deterministic semantics:
    the SAME seed-42 hyperplanes as numpy literals, bucket = sign pattern
    of raw dot products (sign is normalization-invariant), radius-1
    multiprobe via xor masks, per-query top-k over probed buckets."""
    planes = np.random.default_rng(seed).standard_normal((n_planes, dim))
    bucket_terms = " + ".join(
        f"(CASE WHEN list_dot_product(embedding::DOUBLE[], "
        f"[{', '.join(repr(float(v)) for v in planes[i])}]) > 0 "
        f"THEN {1 << i} ELSE 0 END)"
        for i in range(n_planes)
    )
    masks = [0] + [1 << i for i in range(n_planes)]
    return f"""
WITH b AS (
  SELECT vec_id, embedding, ({bucket_terms}) AS bucket FROM embeddings
), q AS (
  SELECT vec_id AS query_idx, embedding AS qv, bucket AS qb
  FROM b ORDER BY vec_id LIMIT 3
), probe AS (
  SELECT query_idx, qv, xor(qb, m.mask) AS pb
  FROM q, unnest([{", ".join(str(m) for m in masks)}]) m(mask)
), cand AS (
  SELECT p.query_idx, b.vec_id,
         list_cosine_similarity(b.embedding::DOUBLE[], p.qv::DOUBLE[]) AS cos
  FROM b JOIN probe p ON b.bucket = p.pb
)
SELECT query_idx, vec_id, round(cos, 4) AS cosine FROM cand
QUALIFY row_number() OVER (PARTITION BY query_idx ORDER BY cos DESC, vec_id ASC) <= {k}
"""


def oracle_sql() -> dict[str, str]:
    from iresearch_ray.pipelines.dataops import LANG_MARKERS, STOPWORDS

    stop_list = ",".join(f"'{s}'" for s in STOPWORDS)
    langs = sorted(LANG_MARKERS)
    marker_cols = ",\n  ".join(
        f"len(list_filter(string_split(text,' '), x -> x IN ({','.join(repr(m) for m in LANG_MARKERS[lg])}))) AS s_{lg}"
        for lg in langs
    )
    best_expr = "greatest(" + ", ".join(f"s_{lg}" for lg in langs) + ")"
    pred_case = (
        "CASE WHEN " + best_expr + " = 0 THEN 'und' "
        + " ".join(f"WHEN s_{lg} = {best_expr} THEN '{lg}'" for lg in langs)
        + " END"
    )

    return {
        "ft_term_topk": _sql_single_term("key"),
        "ft_or_topk": _sql_multiterm("w IN ('join','merge','window')"),
        "ft_and_topk": _sql_and(["table", "join"]),
        "ft_andnot_topk": _sql_andnot("table", "join"),
        "ft_minmatch_topk": _sql_multiterm("w IN ('join','merge','window')", min_match=2),
        "ft_phrase_topk": _sql_phrase("table", "hash"),
        "ft_phrase_slop": _sql_phrase_unordered("table", "hash", slop=1),
        "ft_prefix_topk": _sql_multiterm("w LIKE 's%'"),
        "ft_range_topk": _sql_multiterm("w >= 'query' AND w <= 'sort'"),
        "ft_wildcard_topk": _sql_multiterm("w LIKE 's_a%'"),
        # scored_terms_limit cap: top-8 terms by (df desc, term asc) scored,
        # the rest of the dictionary matches with contribution 0
        "ft_wildcard_wide_topk": f"""
{_BASE}, exp AS (
  SELECT w, count(distinct doc_id) AS n FROM tok GROUP BY w
), st AS (
  SELECT w, n FROM exp ORDER BY n DESC, w ASC LIMIT 8
), tfw AS (
  SELECT doc_id, w, count(*) AS tf FROM tok GROUP BY doc_id, w
), scored AS (
  SELECT tfw.doc_id,
         ln(1 + (fs.N - st.n + 0.5)/(st.n + 0.5))
         * (tfw.tf * ({K1}+1)) / (tfw.tf + {K1} * (1 - {B} + {B} * dl.dl / fs.avgdl)) AS s
  FROM tfw JOIN st ON tfw.w = st.w JOIN dl ON tfw.doc_id = dl.doc_id CROSS JOIN fs
), matched AS (
  SELECT DISTINCT doc_id FROM tok
), agg AS (
  SELECT m.doc_id, coalesce(sum(s.s), 0) AS score
  FROM matched m LEFT JOIN scored s ON m.doc_id = s.doc_id GROUP BY m.doc_id
)
SELECT doc_id, round(score, 4) AS score FROM agg
ORDER BY score DESC, doc_id ASC LIMIT 10
""",
        "ft_fuzzy_topk": _sql_multiterm("levenshtein(w, 'tble') <= 1"),
        # TFIDF (Lucene-classic, SURVEY §2.6): sqrt(tf)·(1+ln(N/(n+1)))/sqrt(dl)
        "ft_tfidf_topk": f"""
{_BASE}, tf AS (
  SELECT doc_id, count(*) AS tf FROM tok WHERE w = 'key' GROUP BY doc_id
), df AS (SELECT count(*) AS n FROM tf)
SELECT tf.doc_id,
       round((1 + ln(fs.N / (df.n + 1.0))) * sqrt(tf.tf) / sqrt(dl.dl), 4) AS score
FROM tf JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs CROSS JOIN df
ORDER BY (1 + ln(fs.N / (df.n + 1.0))) * sqrt(tf.tf) / sqrt(dl.dl) DESC, tf.doc_id ASC
LIMIT 10
""",
        # BM15 = BM25 with b=0: tf-factor = tf·(k1+1)/(tf+k1), norms unused
        "ft_bm15_topk": f"""
{_BASE}, tf AS (
  SELECT doc_id, count(*) AS tf FROM tok WHERE w = 'key' GROUP BY doc_id
), df AS (SELECT count(*) AS n FROM tf)
SELECT tf.doc_id,
       round(ln(1 + (fs.N - df.n + 0.5)/(df.n + 0.5))
             * (tf.tf * 2.2) / (tf.tf + 1.2), 4) AS score
FROM tf CROSS JOIN fs CROSS JOIN df
ORDER BY ln(1 + (fs.N - df.n + 0.5)/(df.n + 0.5)) * (tf.tf * 2.2) / (tf.tf + 1.2) DESC,
         tf.doc_id ASC LIMIT 10
""",
        # per-leg boost multiplies into the leg weight before the union sum
        "ft_boosted_or_topk": f"""
{_BASE}, tf AS (
  SELECT doc_id, w, count(*) AS tf FROM tok WHERE w IN ('join','merge') GROUP BY doc_id, w
), df AS (
  SELECT w, count(*) AS n FROM tf GROUP BY w
), scored AS (
  SELECT tf.doc_id,
         (CASE WHEN tf.w = 'join' THEN 2.0 ELSE 1.0 END)
         * ln(1 + (fs.N - df.n + 0.5)/(df.n + 0.5)) * {_TFF} AS s
  FROM tf JOIN df ON tf.w = df.w JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs
)
SELECT doc_id, round(sum(s), 4) AS score FROM scored GROUP BY doc_id
ORDER BY sum(s) DESC, doc_id ASC LIMIT 10
""",
        # keyword field: dl = 1 for every doc, avgdl = 1 ⇒ tf-factor = 1 ⇒ score = idf
        "ft_keyword_topk": """
WITH m AS (SELECT doc_id FROM documents WHERE lang = 'en'),
fs AS (SELECT count(*) AS N FROM documents), df AS (SELECT count(*) AS n FROM m)
SELECT m.doc_id, round(ln(1 + (fs.N - df.n + 0.5)/(df.n + 0.5)), 4) AS score
FROM m CROSS JOIN fs CROSS JOIN df ORDER BY m.doc_id
""",
        # field-existence: constant boost (1.0) per doc having the column
        "ft_exists": """
SELECT doc_id, 1.0 AS score FROM documents WHERE source IS NOT NULL
""",
        # all-docs: constant boost score
        "ft_all_docs": "SELECT doc_id, 2.5 AS score FROM documents",
        # granular numeric range: constant boost score per matching doc
        "ft_granular_range": """
SELECT doc_id, 1.0 AS score FROM documents WHERE n_chars BETWEEN 150 AND 220
""",
        "ft_stats_df": """
SELECT w AS term, count(distinct doc_id) AS df, count(*) AS cf
FROM (SELECT doc_id, unnest(string_split(text,' ')) AS w FROM documents)
WHERE w IN ('key','table','join','the') GROUP BY w ORDER BY w
""",
        # real ICU collation (DuckDB's bundled icu extension) vs our UCA key
        "ft_collation_sort": """
SELECT row_number() OVER (ORDER BY text COLLATE "en", doc_id) AS rank, doc_id
FROM documents ORDER BY text COLLATE "en", doc_id LIMIT 50
""",
        # Swedish-tailored collation vs real ICU sv; the deterministic
        # injection (an->å en->ä on->ö, chained in this order) makes the
        # å/ä/ö-after-z tailoring load-bearing on the ASCII corpus
        "ft_collation_sort_sv": """
WITH t AS (SELECT doc_id,
  replace(replace(replace(text,'an','å'),'en','ä'),'on','ö') AS sv_text
  FROM documents)
SELECT row_number() OVER (ORDER BY sv_text COLLATE "sv", doc_id) AS rank,
       doc_id
FROM t ORDER BY sv_text COLLATE "sv", doc_id LIMIT 50
""",
        # dynamic JSON fields: numeric leaf via granular range + keyword text
        "ft_dynamic_props": """
SELECT event_id FROM events
WHERE json_extract(props, '$.k')::INT BETWEEN 20 AND 60
  AND event_type = 'error'
ORDER BY event_id
""",
        # nested parent/child: users with >= 3 'error' events, each parent
        # represented by its first matching child event
        "ft_nested_minmatch": """
SELECT min(event_id) AS event_id FROM events
WHERE event_type = 'error'
GROUP BY user_id HAVING count(*) >= 3
ORDER BY event_id
""",
        # indexed offsets: first occurrence's 0-based char start of the
        # token 'spark' (documents.text = single-space lowercase tokens,
        # so ' '-padded strpos is exactly the analyzer's span start)
        "ft_offsets_first": """
SELECT doc_id, strpos(' ' || text || ' ', ' spark ') - 1 AS start
FROM documents
WHERE strpos(' ' || text || ' ', ' spark ') > 0
ORDER BY doc_id
""",
        # payloads: one 'event_type|value' token per event doc, so the
        # payload-sum score IS the value column; pinned tie order =
        # (score desc, conv_id asc) with conv_id = zero-padded event_id
        "ft_payload_topk": """
SELECT event_id, value AS score FROM events
WHERE event_type = 'click' AND value IS NOT NULL
ORDER BY value DESC, event_id ASC
LIMIT 100
""",
        # view-link layer: two parity-split collections scored with
        # view-global stats == whole-table BM25; engine tie-break is
        # (score desc, collection asc, doc key asc)
        "ft_view_topk": f"""
{_BASE}, tf AS (
  SELECT doc_id, count(*) AS tf FROM tok WHERE w = 'key' GROUP BY doc_id
), df AS (SELECT count(*) AS n FROM tf)
SELECT CASE WHEN tf.doc_id % 2 = 0 THEN 'docs_even' ELSE 'docs_odd' END AS collection,
       tf.doc_id, round({_IDF} * {_TFF}, 4) AS score
FROM tf JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN fs CROSS JOIN df
ORDER BY {_IDF} * {_TFF} DESC,
         CASE WHEN tf.doc_id % 2 = 0 THEN 'docs_even' ELSE 'docs_odd' END ASC,
         tf.doc_id ASC LIMIT 10
""",
        # geo_radius: same derived-coordinate lattice and the SAME
        # haversine expression shape as functions/geo.py (2R asin sqrt;
        # R = 6371.0088) — both sides are float64, and the 0.01-degree
        # lattice keeps every doc far from the radius boundary
        "geo_radius": """
SELECT doc_id FROM (
  SELECT doc_id,
         ((doc_id * 7919) % 17000) / 100.0 - 85.0  AS lat,
         ((doc_id * 104729) % 36000) / 100.0 - 180.0 AS lon
  FROM documents)
WHERE 2 * 6371.0088 * asin(sqrt(
        sin(radians(20.0 - lat) / 2) * sin(radians(20.0 - lat) / 2)
      + cos(radians(lat)) * cos(radians(20.0))
        * sin(radians(40.0 - lon) / 2) * sin(radians(40.0 - lon) / 2)
      )) <= 3000.0
ORDER BY doc_id
""",
        # geo_nearest: the 10 nearest docs within 6000 km, nearest first
        # (doc_id breaks exact distance ties, matching the engine's
        # zero-padded-key tie-break)
        "geo_nearest": """
SELECT doc_id FROM (
  SELECT doc_id,
         ((doc_id * 7919) % 17000) / 100.0 - 85.0  AS lat,
         ((doc_id * 104729) % 36000) / 100.0 - 180.0 AS lon
  FROM documents)
WHERE 2 * 6371.0088 * asin(sqrt(
        sin(radians(20.0 - lat) / 2) * sin(radians(20.0 - lat) / 2)
      + cos(radians(lat)) * cos(radians(20.0))
        * sin(radians(40.0 - lon) / 2) * sin(radians(40.0 - lon) / 2)
      )) <= 6000.0
ORDER BY 2 * 6371.0088 * asin(sqrt(
        sin(radians(20.0 - lat) / 2) * sin(radians(20.0 - lat) / 2)
      + cos(radians(lat)) * cos(radians(20.0))
        * sin(radians(40.0 - lon) / 2) * sin(radians(40.0 - lon) / 2)
      )), doc_id
LIMIT 10
""",
        "dd_exact_dedup": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text ORDER BY doc_id",
        "dd_fingerprints": "SELECT doc_id, md5(text) AS md5 FROM documents",
        "dd_token_stats": """
SELECT doc_id,
       len(string_split(text,' ')) AS n_tokens,
       len(list_distinct(string_split(text,' '))) AS n_unique,
       list_aggregate(list_transform(string_split(text,' '), x -> len(x)), 'sum')::BIGINT AS token_chars
FROM documents
""",
        "dd_quality": f"""
WITH t AS (
  SELECT doc_id,
         len(string_split(text,' ')) AS n_tokens,
         len(list_distinct(string_split(text,' '))) AS n_unique,
         len(list_filter(string_split(text,' '), x -> x IN ({stop_list}))) AS n_stop
  FROM documents
)
SELECT doc_id, n_tokens,
       round(n_unique / n_tokens::DOUBLE, 4) AS distinct_ratio,
       round(n_stop / n_tokens::DOUBLE, 4) AS stopword_ratio,
       round(0.5 * (n_unique / n_tokens::DOUBLE)
           + 0.3 * (1 - n_stop / n_tokens::DOUBLE)
           + 0.2 * least(n_tokens, 64) / 64.0, 4) AS quality
FROM t
""",
        "dd_lang_id": f"""
WITH s AS (
  SELECT doc_id,
  {marker_cols}
  FROM documents
)
SELECT doc_id, {pred_case} AS pred_lang FROM s
""",
        "dd_bpe_tokens": """
SELECT doc_id,
       len(regexp_extract_all(text, '[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\\s]+')) AS n_bpe_tokens
FROM documents
""",
        # Gopher-rule subset (thresholds pinned: 25<=words<=100000,
        # 3<=mean len<=10, alpha frac>=0.8, stopword hits>=2; pass flag
        # computed on UNROUNDED ratios)
        "dd_gopher_rules": f"""
WITH s AS (
  SELECT doc_id, string_split(text,' ') AS w FROM documents
), t AS (
  SELECT doc_id, len(w) AS n_words,
         list_aggregate(list_transform(w, x -> len(x)), 'sum')::DOUBLE / len(w) AS ml,
         len(list_filter(w, x -> regexp_matches(x, '[a-zA-Z]')))::DOUBLE / len(w) AS af,
         len(list_filter(w, x -> x IN ({stop_list}))) AS stop_hits
  FROM s)
SELECT doc_id, n_words, round(ml,4) AS mean_word_len, round(af,4) AS alpha_frac, stop_hits,
  CASE WHEN n_words BETWEEN 25 AND 100000 AND ml>=3.0 AND ml<=10.0 AND af>=0.8 AND stop_hits>=2
       THEN 1 ELSE 0 END AS pass_gopher
FROM t
""",
        # duplicate word-2-gram occurrence fractions per doc
        "dd_repetition": """
WITH s AS (SELECT doc_id, string_split(text,' ') AS w FROM documents),
g AS (SELECT doc_id, unnest(list_transform(range(1, len(w)), i -> w[i] || ' ' || w[i+1])) AS gr FROM s),
c AS (SELECT doc_id, gr, count(*) AS n FROM g GROUP BY doc_id, gr),
a AS (SELECT doc_id, max(n) AS top_n, sum(n) AS total,
             sum(CASE WHEN n>1 THEN n ELSE 0 END) AS dup_n
      FROM c GROUP BY doc_id)
SELECT s2.doc_id, coalesce(a.total,0)::BIGINT AS n_ngrams,
       round(coalesce(a.top_n/a.total::DOUBLE,0),4) AS top_ngram_frac,
       round(coalesce(a.dup_n/a.total::DOUBLE,0),4) AS dup_ngram_frac
FROM (SELECT doc_id FROM documents) s2 LEFT JOIN a USING (doc_id)
""",
        # benchmark decontamination: benchmark = 5-gram windows starting at
        # words 3..6 of every doc with id%13==0; count DISTINCT shared 5-grams
        "dd_decontaminate": """
WITH s AS (SELECT doc_id, string_split(text,' ') AS w FROM documents),
b AS (SELECT DISTINCT unnest(list_transform(range(3, 7),
        i -> w[i]||' '||w[i+1]||' '||w[i+2]||' '||w[i+3]||' '||w[i+4])) AS gr
      FROM s WHERE doc_id % 13 = 0),
dg AS (SELECT DISTINCT doc_id, unnest(list_transform(range(1, len(w)-3),
        i -> w[i]||' '||w[i+1]||' '||w[i+2]||' '||w[i+3]||' '||w[i+4])) AS gr FROM s),
m AS (SELECT doc_id, count(*) AS n FROM dg JOIN b USING (gr) GROUP BY doc_id)
SELECT s2.doc_id, coalesce(m.n,0) AS n_contaminated,
       CASE WHEN coalesce(m.n,0)>0 THEN 1 ELSE 0 END AS contaminated
FROM (SELECT doc_id FROM documents) s2 LEFT JOIN m USING (doc_id)
""",
        # PII scrub over deterministically injected e-mail / IPv4 suffixes;
        # both sides run RE2 with identical patterns, so replace parity is exact
        "dd_pii_scrub": r"""
WITH s AS (SELECT doc_id,
  text || CASE WHEN doc_id%7=0 THEN ' contact user'||doc_id||'@example.com now' ELSE '' END
       || CASE WHEN doc_id%11=0 THEN ' host 10.'||(doc_id%256)||'.0.1 up' ELSE '' END AS itext
  FROM documents)
SELECT doc_id,
  len(regexp_extract_all(itext, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_emails,
  len(regexp_extract_all(itext, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS n_ipv4,
  regexp_replace(regexp_replace(itext,
      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
      '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS redacted
FROM s
""",
        # HTML boilerplate strip over deterministically injected wrappers;
        # same RE2 patterns verbatim on both sides (dataops.HTML_*)
        "dd_html_strip": r"""
WITH s AS (SELECT doc_id,
  CASE WHEN doc_id%3=0 THEN
    '<html><head><script type="x">var q=1 &amp;&amp; 2;</script><style>p { color: red }</style></head><body><h1>Title '
    || doc_id || '</h1><p>' || text
    || '</p><!-- footer --><div class="nav">home &nbsp; about</div></body></html>'
  WHEN doc_id%3=1 THEN
    '<p>' || text || ' &amp; more &lt;tags&gt; &quot;quoted&quot; &#39;x&#39;</p><br/>'
  ELSE text END AS itext FROM documents),
t1 AS (SELECT doc_id, itext,
  regexp_replace(regexp_replace(regexp_replace(itext,
    '(?is)<script\b[^>]*>.*?</script>', ' ', 'g'),
    '(?is)<style\b[^>]*>.*?</style>', ' ', 'g'),
    '(?s)<!--.*?-->', ' ', 'g') AS s1 FROM s),
t2 AS (SELECT doc_id, itext, len(regexp_extract_all(s1, '<[^>]*>'))::BIGINT AS n_tags,
  regexp_replace(s1, '<[^>]*>', ' ', 'g') AS s2 FROM t1),
t3 AS (SELECT doc_id, itext, n_tags,
  trim(regexp_replace(
    replace(replace(replace(replace(replace(replace(s2,
      '&lt;','<'),'&gt;','>'),'&quot;','"'),'&#39;',''''),'&nbsp;',' '),'&amp;','&'),
    '\s+', ' ', 'g'), ' ') AS s3 FROM t2)
SELECT doc_id, s3 AS clean_text, n_tags,
       len(itext)::BIGINT AS raw_len, len(s3)::BIGINT AS clean_len
FROM t3
""",
        # 64-token windows, stride 48: n_chunks = 1 if n<=64 else ceil((n-64)/48)+1
        "dd_chunk_windows": """
WITH t AS (SELECT doc_id, string_split(text,' ') AS ws, len(string_split(text,' ')) AS n
           FROM documents),
c AS (SELECT doc_id, ws, n,
      unnest(range(CASE WHEN n <= 64 THEN 1
                        ELSE (n - 64 + 47) // 48 + 1 END)) AS chunk_idx
      FROM t)
SELECT doc_id, chunk_idx,
       least(n - chunk_idx*48, 64)::BIGINT AS chunk_n_tokens,
       array_to_string(ws[chunk_idx*48+1 : chunk_idx*48+64], ' ') AS chunk_text
FROM c
""",
        # concat-and-chunk packing: exclusive prefix sum of token counts in
        # doc_id order, bins of 2048 tokens (docs may span bins)
        "dd_seq_pack": """
WITH t AS (SELECT doc_id, len(string_split(text,' '))::BIGINT AS n_tokens FROM documents),
p AS (SELECT doc_id, n_tokens,
      COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT AS tok_start
      FROM t)
SELECT doc_id, n_tokens, tok_start,
       tok_start // 2048 AS bin_first,
       (tok_start + n_tokens - 1) // 2048 AS bin_last,
       ((tok_start + n_tokens - 1) // 2048) - (tok_start // 2048) + 1 AS n_bins
FROM p
""",
        # exact scoreless hit count over the same tokenized corpus
        "ft_count": """
SELECT count(*)::BIGINT AS n_hits FROM documents
WHERE list_contains(string_split(text,' '), 'join')
   OR list_contains(string_split(text,' '), 'merge')
""",
        # per-language quota: 25 longest docs per lang, ties by doc_id ASC
        "dd_lang_topn": """
WITH r AS (SELECT doc_id, lang, n_chars,
       row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents)
SELECT doc_id, lang, n_chars FROM r WHERE rn <= 25
""",
        # deterministic Knuth-hash Bernoulli sample at rate 0.1; HUGEINT
        # keeps the reduced product exact for any int64 id (engine mirrors
        # with uint64 after the same mod-2^32 reduction)
        "dd_hash_sample": """
SELECT doc_id, n_chars FROM documents
WHERE ((doc_id % 4294967296)::HUGEINT * 2654435761) % 4294967296 < 429496729
""",
        # temperature mixing: same arithmetic as the engine — n^0.5 weights,
        # q rounded to 6 decimals BEFORE the 2^32 floor (ulp-flip guard),
        # identical Knuth-hash HUGEINT reduction as dd_hash_sample
        "dd_temperature_sample": """
WITH c AS (
  SELECT lang, count(*)::DOUBLE AS n FROM documents GROUP BY lang
), w AS (
  SELECT lang, n, pow(n, 0.5) AS pw FROM c
), tot AS (
  SELECT sum(pw) AS s, sum(n) AS nt FROM w
), q AS (
  SELECT lang,
         CAST(floor(round(least(1.0, (0.5 * tot.nt) * (pw / tot.s) / n), 6)
                    * 4294967296) AS HUGEINT) AS lim
  FROM w, tot
)
SELECT d.doc_id, d.lang
FROM documents d JOIN q USING (lang)
WHERE ((d.doc_id % 4294967296)::HUGEINT * 2654435761) % 4294967296 < q.lim
""",
        # ExactSubstr duplicated-8-gram span stats: windows via list slices
        # (the oracle compares exact window STRINGS, no hashing), dup =
        # corpus count >= 2, span break at a start-gap > 8 (gap == 8 means
        # the covered intervals touch), covered = last_start - first_start
        # + 8 per span (contiguous within a span by the break rule)
        "dd_substring_dedup": """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS tok FROM documents
), win AS (
  SELECT doc_id, p, array_to_string(tok[p:p+7], ' ') AS w
  FROM toks, LATERAL (SELECT unnest(generate_series(1, greatest(len(tok) - 7, 0))) AS p) u
), dup AS (
  SELECT w FROM win GROUP BY w HAVING count(*) >= 2
), occ AS (
  SELECT doc_id, p FROM win WHERE w IN (SELECT w FROM dup)
), brkd AS (
  SELECT doc_id, p,
         CASE WHEN lag(p) OVER (PARTITION BY doc_id ORDER BY p) IS NULL
                OR p - lag(p) OVER (PARTITION BY doc_id ORDER BY p) > 8
              THEN 1 ELSE 0 END AS brk
  FROM occ
), grp AS (
  SELECT doc_id, p, sum(brk) OVER (PARTITION BY doc_id ORDER BY p) AS span_id FROM brkd
), per_span AS (
  SELECT doc_id, max(p) - min(p) + 8 AS covered FROM grp GROUP BY doc_id, span_id
)
SELECT s.doc_id, len(t.tok)::BIGINT AS n_tokens,
       sum(s.covered)::BIGINT AS dup_tokens, count(*)::BIGINT AS dup_spans
FROM per_span s JOIN toks t USING (doc_id)
GROUP BY s.doc_id, len(t.tok)
""",
        # top-100 corpus vocabulary; tie-break (freq DESC, token ASC) pinned
        # on both sides
        "dd_vocab_topk": """
WITH t AS (SELECT unnest(string_split(text,' ')) AS token FROM documents),
g AS (SELECT token, count(*)::BIGINT AS freq FROM t GROUP BY token)
SELECT token, freq FROM g ORDER BY freq DESC, token LIMIT 100
""",
        # unigram surprisal: model = top-4096 tokens by corpus frequency,
        # p = freq/N with OOV floor 1/N; score = mean NLL per doc
        "dd_unigram_nll": """
WITH t AS (SELECT doc_id, unnest(string_split(text,' ')) AS token FROM documents),
g AS (SELECT token, count(*)::BIGINT AS freq FROM t GROUP BY token),
tot AS (SELECT sum(freq)::DOUBLE AS n FROM g),
v AS (SELECT token, freq FROM g ORDER BY freq DESC, token LIMIT 4096),
s AS (SELECT t.doc_id, ln((SELECT n FROM tot)) - ln(COALESCE(v.freq, 1)::DOUBLE) AS nll
      FROM t LEFT JOIN v USING (token))
SELECT doc_id, count(*)::BIGINT AS n_tokens, round(avg(nll), 4) AS avg_nll
FROM s GROUP BY doc_id
""",
        # weekly cohort retention: cohort = period of the user's first
        # event (integer division of epoch microseconds — exact on both
        # sides), cell = distinct users from that cohort active at offset
        "ev_retention": """
WITH e AS (
  SELECT user_id, epoch_us(ts) // 604800000000 AS period FROM events
), f AS (
  SELECT DISTINCT user_id, period FROM e
), c AS (
  SELECT user_id, period, min(period) OVER (PARTITION BY user_id) AS cohort FROM f
)
SELECT cohort AS cohort_period, period - cohort AS period_offset,
       count(DISTINCT user_id)::BIGINT AS n_users
FROM c GROUP BY 1, 2
""",
        # first-touch funnel: step i's timestamp = min ts of its type
        # STRICTLY AFTER step i-1's counted ts; n_users per step
        "ev_funnel": """
WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events WHERE event_type='view' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e JOIN s1 USING (user_id)
       WHERE e.event_type='click' AND e.ts > s1.t1 GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e JOIN s2 USING (user_id)
       WHERE e.event_type='purchase' AND e.ts > s2.t2 GROUP BY e.user_id)
SELECT 1::BIGINT AS step, 'view' AS event_type, count(*)::BIGINT AS n_users FROM s1
UNION ALL SELECT 2::BIGINT, 'click', count(*)::BIGINT FROM s2
UNION ALL SELECT 3::BIGINT, 'purchase', count(*)::BIGINT FROM s3
""",
        "ev_type_stats": """
WITH g AS (
  SELECT event_type, count(*) AS n_events, sum(value) AS s FROM events GROUP BY event_type
)
SELECT event_type, n_events, round(s, 4) AS sum_value, round(s / n_events, 4) AS avg_value
FROM g
""",
        "ev_window_agg": """
SELECT (epoch_us(ts) // 600000000) * 600000000 AS window_start_us,
       event_type, count(*) AS n_events, round(sum(value), 4) AS sum_value
FROM events GROUP BY window_start_us, event_type
""",
        "ev_sessionize": """
WITH o AS (
  SELECT user_id, event_id, value, epoch_us(ts) AS tus,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS prev
  FROM events
), m AS (
  SELECT *, CASE WHEN prev IS NULL OR tus - prev > 1800000000 THEN 1 ELSE 0 END AS brk FROM o
), s AS (
  SELECT *, sum(brk) OVER (
    PARTITION BY user_id ORDER BY tus, event_id ROWS UNBOUNDED PRECEDING
  ) AS sid FROM m
)
SELECT user_id, (sid - 1)::BIGINT AS session_id, count(*) AS n_events,
       min(tus) AS start_us, max(tus) AS end_us, round(sum(value), 4) AS sum_value
FROM s GROUP BY user_id, sid
""",
        "ev_props_k_stats": """
WITH x AS (
  SELECT event_type,
         TRY_CAST(regexp_extract(coalesce(props, ''), '"k":\\s*(-?\\d+)', 1) AS BIGINT) AS v
  FROM events
)
SELECT event_type,
       count(v) AS n_with_key,
       coalesce(sum(v), 0)::BIGINT AS sum_k,
       sum(CASE WHEN v IS NULL THEN 1 ELSE 0 END)::BIGINT AS n_missing
FROM x GROUP BY event_type
""",
        # as-of join: rank-1 row of the per-left window (DESC ts, DESC
        # event_id) — the same pinned tie order asof_join's searchsorted
        # merge produces; -1 sentinels keep unmatched rows int64 end-to-end
        "ev_asof_join": """
WITH l AS (
  SELECT event_id, user_id, epoch_us(ts) AS tus FROM events WHERE event_type = 'click'
), r AS (
  SELECT event_id, user_id, epoch_us(ts) AS tus FROM events WHERE event_type = 'view'
), m AS (
  SELECT l.event_id AS event_id, r.event_id AS r_eid, r.tus AS r_tus,
         row_number() OVER (PARTITION BY l.event_id ORDER BY r.tus DESC, r.event_id DESC) AS rn
  FROM l JOIN r ON l.user_id = r.user_id AND r.tus <= l.tus
)
SELECT l.event_id, l.user_id, l.tus AS ts_us,
       coalesce(m.r_eid, -1) AS right_event_id,
       coalesce(m.r_tus, -1) AS right_ts_us
FROM l LEFT JOIN (SELECT * FROM m WHERE rn = 1) m ON l.event_id = m.event_id
""",
        "ev_range_join": """
WITH l AS (
  SELECT event_id, user_id, epoch_us(ts) AS tus FROM events WHERE event_type = 'click'
), r AS (
  SELECT event_id, user_id, epoch_us(ts) AS tus FROM events WHERE event_type = 'view'
)
SELECT l.event_id, l.user_id, l.tus AS ts_us, count(r.event_id) AS n_right
FROM l LEFT JOIN r
  ON l.user_id = r.user_id AND r.tus <= l.tus AND r.tus > l.tus - 600000000
GROUP BY l.event_id, l.user_id, l.tus
""",
        # dd_cjk_tokens: the oracle counts the injected trigger substrings
        # in closed form ('the' on the raw text; 'er' on the text AFTER the
        # 'the' replacement — '学' stands in for the CJK string, which can
        # neither create nor destroy an 'er' match) and states the exact
        # token multiset the shipped-lexicon Viterbi must produce for each
        # occurrence.  Any other segmentation (greedy-longest, per-char
        # fallback, non-minimal pieces) yields different rows.
        "dd_cjk_tokens": """
WITH t1 AS (
  SELECT text, replace(text, 'the', '学') AS s1 FROM documents
), c AS (
  SELECT
    CAST(SUM((length(text) - length(replace(text, 'the', ''))) / 3) AS BIGINT) AS n_the,
    CAST(SUM((length(s1) - length(replace(s1, 'er', ''))) / 2) AS BIGINT) AS n_er
  FROM t1
)
SELECT token, cnt FROM (
  SELECT '机器' AS token, n_the AS cnt FROM c
  UNION ALL SELECT '学习模型', n_the FROM c
  UNION ALL SELECT '北京大学', n_er FROM c
  UNION ALL SELECT '生活', n_er FROM c
) ORDER BY token
""",
        "dd_jaccard_pairs": _sql_jaccard(cap=2000),
        "dd_minhash_pairs": _SQL_JACCARD,
        "dd_near_dedup": _sql_near_dedup(
            "round(0.5 * (len(list_distinct(string_split(text,' '))) / len(string_split(text,' '))::DOUBLE)"
            f" + 0.3 * (1 - len(list_filter(string_split(text,' '), x -> x IN ({stop_list}))) / len(string_split(text,' '))::DOUBLE)"
            " + 0.2 * least(len(string_split(text,' ')), 64) / 64.0, 4)"
        ),
        "dd_simhash_pairs": _sql_simhash_pairs(3),
        "ft_ngram_similarity": _sql_ngram_similarity("key", "agg", "row"),
        "emb_lsh_topk": _sql_emb_lsh(n_planes=6, seed=42, dim=64, k=10),
        # IVF-flat: same pinned semantics as embedding_ivf_topk — coarse
        # codebook = 16 smallest-id vectors, assignment = argmax cosine
        # (tie -> lowest centroid idx), queries probe 4 nearest lists
        "emb_ivf_topk": """
WITH c AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cidx, embedding AS cv
  FROM embeddings ORDER BY vec_id LIMIT 16
), q AS (
  SELECT vec_id AS query_idx, embedding AS qv FROM embeddings ORDER BY vec_id LIMIT 3
), assigned AS (
  SELECT e.vec_id, e.embedding, c.cidx AS lst
  FROM embeddings e CROSS JOIN c
  QUALIFY row_number() OVER (
    PARTITION BY e.vec_id
    ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], c.cv::DOUBLE[]) DESC, c.cidx ASC
  ) = 1
), qprobe AS (
  SELECT q.query_idx, q.qv, c.cidx AS lst
  FROM q CROSS JOIN c
  QUALIFY row_number() OVER (
    PARTITION BY q.query_idx
    ORDER BY list_cosine_similarity(q.qv::DOUBLE[], c.cv::DOUBLE[]) DESC, c.cidx ASC
  ) <= 4
), cand AS (
  SELECT p.query_idx, a.vec_id,
         list_cosine_similarity(a.embedding::DOUBLE[], p.qv::DOUBLE[]) AS cos
  FROM assigned a JOIN qprobe p ON a.lst = p.lst
)
SELECT query_idx, vec_id, round(cos, 4) AS cosine FROM cand
QUALIFY row_number() OVER (PARTITION BY query_idx ORDER BY cos DESC, vec_id ASC) <= 10
""",
        "emb_topk": """
WITH q AS (
  SELECT vec_id AS query_idx, embedding AS qv FROM embeddings
  ORDER BY vec_id LIMIT 3
), scored AS (
  SELECT q.query_idx, e.vec_id,
         list_cosine_similarity(e.embedding::DOUBLE[], q.qv::DOUBLE[]) AS cos
  FROM embeddings e CROSS JOIN q
)
SELECT query_idx, vec_id, round(cos, 4) AS cosine FROM scored
QUALIFY row_number() OVER (PARTITION BY query_idx ORDER BY cos DESC, vec_id ASC) <= 10
""",
        "emb_knn_labels": """
WITH q AS (
  SELECT vec_id AS query_idx, embedding AS qv FROM embeddings ORDER BY vec_id LIMIT 3
), scored AS (
  SELECT q.query_idx, e.vec_id, e.label,
         list_cosine_similarity(e.embedding::DOUBLE[], q.qv::DOUBLE[]) AS cos
  FROM embeddings e CROSS JOIN q
  WHERE e.vec_id <> q.query_idx
), top AS (
  SELECT * FROM scored
  QUALIFY row_number() OVER (PARTITION BY query_idx ORDER BY cos DESC, vec_id ASC) <= 20
)
SELECT query_idx, label, count(*) AS cnt FROM top GROUP BY query_idx, label
""",
        "emb_neardup_pairs": """
SELECT a.vec_id AS a, b.vec_id AS b,
       round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 4) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
""",
        # exact all-pairs oracle over the SAME derived fixture (embeddings ∪
        # perturbed copies) — the Ray side is banded hyperplane LSH with
        # exact within-bucket verify, so a hash match here proves BOTH exact
        # precision and recall 1.0 of the pinned (4-plane × 10-table) params
        "emb_neardup_lsh": """
WITH derived AS (
  SELECT vec_id::BIGINT AS vec_id, embedding::DOUBLE[] AS e FROM embeddings
  UNION ALL
  SELECT vec_id::BIGINT + 100000,
         list_transform(generate_series(1, len(embedding)),
                        i -> embedding[i]::DOUBLE + 0.2*embedding[1 + (i % len(embedding))]::DOUBLE)
  FROM embeddings
)
SELECT a.vec_id AS a, b.vec_id AS b,
       round(list_cosine_similarity(a.e, b.e), 4) AS cosine
FROM derived a JOIN derived b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.e, b.e) >= 0.9
""",
    }
