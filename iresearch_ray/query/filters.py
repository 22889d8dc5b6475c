"""Filter AST + prepare — SURVEY.md §2.4/§2.5/§2.6.

Mirrors the reference's filter tree (ref: core/search/filter.hpp — `filter`
subclasses with `boost()`; boolean_filter.cpp And/Or/Not) and its two-phase
query protocol: ``prepare`` runs ONCE per query against index-global state
(stats collection + multiterm expansion against the merged term dictionary —
ref: multiterm_query.cpp / prepare() walking all segments), producing a
JSON-able physical *plan* that per-segment executors evaluate independently
(SURVEY §3.2: the driver prepares, per-segment tasks or pool actors execute).

Pinned scoring decisions (recorded per SURVEY §0 ⚠ convention):
- multiterm expansion scores the top ``scored_terms_limit`` (default 1024)
  matched terms by (df desc, term asc), each with its own global idf; the
  remainder match unscored (limited_sample_collector analog, SURVEY §2.5).
- fuzzy matches carry no distance-based boost (pinned; oracle matches).
- phrase weight = boost * Σ term idfs, tf = phrase frequency (Lucene-style,
  pinned in SURVEY §2.5 via by_phrase).
- `all` / `exists` score = boost (constant, ref: all_filter boost score).
- norms (dl) exist only for the analyzed text field; keyword fields have
  constant field length 1 (single-token streams ⇒ dl==1 always).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

import numpy as np

from iresearch_ray.functions.score import B_DEFAULT, K1_DEFAULT, bm25_idf, tfidf_idf
from iresearch_ray.state.stats import GlobalStats


class Filter:
    boost: float = 1.0


@dataclass
class Term(Filter):
    field: str
    term: str
    boost: float = 1.0


@dataclass
class Terms(Filter):
    """IN-set of terms with optional min-match and optional PER-TERM boosts
    (ref: terms_filter.cpp — each term carries its own boost that multiplies
    into that leg's weight; None entries default to 1.0)."""

    field: str
    terms: tuple[str, ...]
    min_match: int = 1
    boost: float = 1.0
    boosts: tuple[float, ...] | None = None


# multiterm queries score at most this many expanded terms by default; the
# remainder still MATCH (and count toward min_match) but contribute score 0
# (ref: limited_sample_collector.cpp / scored_terms_limit default 1024 —
# SURVEY §2.5; pinned selection rule: top by (df desc, term asc))
SCORED_TERMS_LIMIT_DEFAULT = 1024


@dataclass
class Prefix(Filter):
    field: str
    prefix: str
    boost: float = 1.0
    scored_terms_limit: int = SCORED_TERMS_LIMIT_DEFAULT


@dataclass
class TermRange(Filter):
    """Term range over the sorted dictionary (ref: range_filter.cpp)."""

    field: str
    low: str | None = None
    high: str | None = None
    include_low: bool = True
    include_high: bool = True
    boost: float = 1.0
    scored_terms_limit: int = SCORED_TERMS_LIMIT_DEFAULT


@dataclass
class GranularRange(Filter):
    """Numeric range over precision-trie terms (ref:
    core/search/granular_range_filter.cpp): [low, high] decomposes into a
    handful of contiguous term-dictionary scans, one per trie level —
    few dict probes instead of a full scan.  Matching docs score a
    CONSTANT boost (pinned simplification; each doc matches exactly one
    covering term, so the union is disjoint)."""

    field: str
    low: int | None = None
    high: int | None = None
    include_low: bool = True
    include_high: bool = True
    boost: float = 1.0


@dataclass
class Wildcard(Filter):
    """`%`/`_` (reference syntax) or `*`/`?` (glob) pattern
    (ref: wildcard_filter.cpp)."""

    field: str
    pattern: str
    boost: float = 1.0
    scored_terms_limit: int = SCORED_TERMS_LIMIT_DEFAULT


@dataclass
class Fuzzy(Filter):
    """Levenshtein distance <= max_distance (ref: levenshtein_filter.cpp;
    d<=4; optional transpositions = OSA distance)."""

    field: str
    term: str
    max_distance: int = 1
    with_transpositions: bool = False
    boost: float = 1.0
    scored_terms_limit: int = SCORED_TERMS_LIMIT_DEFAULT


@dataclass
class Phrase(Filter):
    """Phrase over positions (ref: phrase_filter.cpp — fixed terms AND
    variadic multiterm parts).

    ``terms`` elements are either a literal term (str) or a part spec —
    a Term/Prefix/Wildcard/Fuzzy filter whose expansion matches any term
    in that slot (ref: by_phrase variadic prefix/wildcard/levenshtein
    parts).

    Pinned slop semantics (documented divergences from Lucene move-count
    slop):
    - ``ordered=True`` (default): greedy ordered chain — each next slot
      must match within ``1+slop`` positions after the previous match,
      candidates advance to the EARLIEST such position; tf = distinct
      final positions.
    - ``ordered=False``: unordered window — a match at anchor p is an
      assignment of every slot to a DISTINCT position in
      ``[p, p+len(parts)-1+slop]`` with min position p (transposed terms
      match); tf = number of distinct anchors.
    Weight = boost · Σ over slots Σ over the slot's expanded terms' idf
    (single-term slots reduce to the classic Σ idf)."""

    field: str
    terms: tuple = ()
    slop: int = 0
    boost: float = 1.0
    ordered: bool = True


@dataclass
class SamePosition(Filter):
    """Terms co-occurring at the SAME position (ref:
    core/search/same_position_filter.cpp).  tf = number of positions where
    every term occurs; weight = sum of term idfs (phrase-style, pinned)."""

    field: str
    terms: tuple[str, ...]
    boost: float = 1.0


@dataclass
class NgramSimilarity(Filter):
    """≥ threshold fraction of the query token sequence matched IN ORDER
    (longest common subsequence over positions; ref:
    core/search/ngram_similarity_filter.cpp).  Pinned simplification: score =
    boost · (lcs_len / n_terms); docs kept when that ratio ≥ threshold."""

    field: str
    terms: tuple[str, ...]
    threshold: float = 0.5
    boost: float = 1.0


@dataclass
class And(Filter):
    children: tuple = ()
    boost: float = 1.0


@dataclass
class Or(Filter):
    children: tuple = ()
    min_match: int = 1
    boost: float = 1.0


@dataclass
class Not(Filter):
    """positive AND NOT negative (ref: boolean_filter.cpp Not/exclusion)."""

    positive: Filter = None
    negative: Filter = None
    boost: float = 1.0


@dataclass
class Nested(Filter):
    """Parent/child join filter (ref: core/search/nested_filter.cpp
    ByNestedFilter) mapped to the transcript model: parent = conversation,
    children = turns.  Matches conversations with ≥ ``min_match`` turns
    satisfying ``child``; parent score = ``score_merge`` of the matching
    children's scores (sum/max/min/avg like the reference's
    ScoreMergeType; 'none' ⇒ constant boost).  The result row represents
    the parent by its FIRST matching turn (min turn_idx), keeping the
    pinned (score desc, conv_id, turn_idx) total order well-defined.

    Partitioning assumption (SURVEY §4.2): the build co-locates a
    conversation's turns in one segment (hash(conv_id) partitioning), so
    per-segment grouping is globally correct with no extra exchange."""

    child: Filter = None
    min_match: int = 1
    score_merge: str = "sum"  # sum | max | min | avg | none
    boost: float = 1.0


@dataclass
class GeoDistance(Filter):
    """Match docs whose stored geopoint lies within ``radius_km`` of
    (lat, lon) — the ArangoSearch GEO_DISTANCE analog.  Candidates come
    from geohash covering-cell TERM lookups over the ``geopoint``-
    analyzed field (functions/geo.py), then the exact vectorized
    haversine over the stored "lat,lon" column refines them — constant
    score = boost (geo matching is a predicate, not a relevance
    signal)."""

    field: str
    lat: float
    lon: float
    radius_km: float
    max_cells: int = 64
    # must not exceed the build-side IndexConfig.geo_precision (finer
    # cells than the index holds would match nothing); both default 7
    max_precision: int = 7
    # score_distance=True scores matches by boost * (radius - dist_km)
    # instead of the constant boost, so top-k returns the NEAREST docs
    # within the radius (the GEO_DISTANCE-sorted query shape); the
    # shift keeps scores non-negative, preserving merge tie-break order
    score_distance: bool = False


@dataclass
class AllDocs(Filter):
    boost: float = 1.0


@dataclass
class Exists(Filter):
    """Docs having the field (ref: column_existence_filter.cpp)."""

    field: str
    boost: float = 1.0


@dataclass
class Empty(Filter):
    boost: float = 1.0


# ---------------------------------------------------------------------------
# prepare: Filter tree + GlobalStats -> plan dict
# ---------------------------------------------------------------------------

@dataclass
class ScorerCfg:
    name: str = "bm25"
    k1: float = K1_DEFAULT
    b: float = B_DEFAULT

    def idf(self, n: float, N: float) -> float:
        if n <= 0 or N <= 0:
            return 0.0
        if self.name == "tfidf":
            return tfidf_idf(n, N)
        if self.name != "bm25":
            from iresearch_ray.functions.score import SCORERS

            return SCORERS[self.name]["idf"](n, N)
        return bm25_idf(n, N)

    def to_json(self) -> dict:
        return {"name": self.name, "k1": self.k1, "b": self.b}


def wildcard_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch in ("%", "*"):
            out.append(".*")
        elif ch in ("_", "?"):
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


def wildcard_literal_prefix(pattern: str) -> str:
    lit = []
    for ch in pattern:
        if ch in ("%", "*", "_", "?"):
            break
        lit.append(ch)
    return "".join(lit)


def osa_distance(a: str, b: str, cap: int) -> int:
    """Optimal-string-alignment (transposition-aware) edit distance with an
    early-exit cap; plain Levenshtein when transpositions unused by caller."""
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        row_min = i
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if prev2 is not None and i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                v = min(v, prev2[j - 2] + 1)
            cur[j] = v
            row_min = min(row_min, v)
        if row_min > cap:
            return cap + 1
        prev2, prev = prev, cur
    return prev[lb]


def levenshtein_distance(a: str, b: str, cap: int) -> int:
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        row_min = i
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            cur[j] = v
            row_min = min(row_min, v)
        if row_min > cap:
            return cap + 1
        prev = cur
    return prev[lb]


def fuzzy_match_mask(q: str, terms, d: int, with_transpositions: bool = False) -> np.ndarray:
    """Edit-distance ≤ d mask over a term list, fully vectorized — the
    practical stand-in for a parametric Levenshtein DFA (SURVEY §2.4):
    IDENTICAL matched set to the per-term DP, but one numpy DP over a
    (candidates × maxlen) UCS4 char matrix instead of one Python DP per
    dictionary term.

    Pruning guarantees first (cheap, sound): length within ±d, and — when
    d < |q| — a shared character inside the first d+1 positions (with ≤d
    edits the first preserved query char has index ≤ d and can be
    displaced by ≤ d insertions).  The DP itself runs |q| vector steps:
    each row's left-propagation min(cur[j-1]+1) folds into a prefix-min
    (cur = k + accumulate(t - k) with t the ins/sub/transpose candidates),
    so there is NO per-column Python loop either.  OSA transpositions
    (prev2[j-2]+1 on a swap) join the candidate row before the prefix-min,
    matching ``osa_distance`` exactly."""
    n = len(terms)
    out = np.zeros(n, dtype=bool)
    if n == 0:
        return out
    lq = len(q)
    lens = np.fromiter((len(t) for t in terms), np.int64, count=n)
    cand = np.flatnonzero(np.abs(lens - lq) <= d)
    if cand.size == 0:
        return out
    width = max(int(lens[cand].max()), 1)
    A = (
        np.array([terms[i] for i in cand], dtype=f"U{width}")
        .view(np.uint32)
        .reshape(cand.size, width)
    )
    if q and d < lq:
        qhead = np.fromiter((ord(c) for c in q[: d + 1]), np.uint32)
        hp = np.isin(A[:, : d + 1], qhead).any(axis=1)
        cand = cand[hp]
        A = A[hp]
        if cand.size == 0:
            return out
    m = A.shape[0]
    L = width
    qa = np.fromiter((ord(c) for c in q), np.uint32, count=lq)
    k = np.arange(L + 1, dtype=np.int64)
    BIG = np.int64(1 << 40)
    prev = np.broadcast_to(k, (m, L + 1)).copy()
    prev2 = None
    for i in range(1, lq + 1):
        t = np.empty((m, L + 1), np.int64)
        t[:, 0] = i
        neq = (A != qa[i - 1]).astype(np.int64)
        t[:, 1:] = np.minimum(prev[:, 1:] + 1, prev[:, :-1] + neq)
        if with_transpositions and prev2 is not None:
            swap = (A[:, 1:] == qa[i - 2]) & (A[:, :-1] == qa[i - 1])
            t[:, 2:] = np.minimum(
                t[:, 2:], np.where(swap, prev2[:, :-2] + 1, BIG)
            )
        cur = k + np.minimum.accumulate(t - k, axis=1)
        prev2, prev = prev, cur
    dist = prev[np.arange(m), lens[cand]]
    out[cand[dist <= d]] = True
    return out


def fuzzy_sorted_indices(
    terms, q: str, d: int, with_transpositions: bool = False, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Edit-distance ≤ d matches over a SORTED term array via a Levenshtein
    trie walk (SURVEY §2.4 — the scale path the parametric-DFA machinery in
    by_edit_distance exists for): the sorted array is treated as a virtual
    trie (child intervals found by bisect), one DP row is carried per
    visited prefix, and any prefix whose row minimum exceeds ``d`` prunes
    its whole subtree.  Work is O(viable prefixes × |q|) — independent of
    dictionary size for the pruned part — vs the O(dict) scan of
    ``fuzzy_match_mask``; the matched set is IDENTICAL (property-tested).

    OSA transpositions mirror ``osa_distance``: a swap consumes the child
    char and its parent prefix char against the transposed query bigram,
    costing 1 from the grandparent row.

    The walk is LEVEL-SYNCHRONOUS: all viable prefixes of one depth advance
    together, so the per-level DP is one (frontier × |q|) numpy pass instead
    of one small-array pass per node; and once the frontier's total interval
    mass drops under a threshold the remaining candidates are finished with
    the vectorized full-DP mask (child bisects stop paying for themselves
    below that).
    """
    from bisect import bisect_left

    if hi is None:
        hi = len(terms)
    if hi <= lo:
        return np.zeros(0, dtype=np.int64)
    lq = len(q)
    qa = np.fromiter((ord(c) for c in q), np.uint32, count=lq)
    k = np.arange(lq + 1, dtype=np.int64)
    BIG = np.int64(1 << 40)
    SWITCH = 2048  # frontier mass below which brute DP beats more bisects
    out: list[int] = []

    # frontier: parallel lists for depth-D viable prefixes
    f_lo = [lo]
    f_hi = [hi]
    rows = k[None, :].copy()  # (frontier, lq+1) DP rows
    prows: list = [None]  # grandparent rows for OSA
    pcs = np.zeros(1, np.uint32)  # last prefix char per node
    depth = 0
    while f_lo:
        # emit terms equal to a frontier prefix (unique in a dictionary)
        for n in range(len(f_lo)):
            if len(terms[f_lo[n]]) == depth:
                if rows[n, lq] <= d:
                    out.append(f_lo[n])
                f_lo[n] += 1

        mass = sum(h - l for l, h in zip(f_lo, f_hi))
        if mass == 0:
            break
        if mass <= SWITCH:
            # finish small remainders with the full-DP mask (standalone
            # recompute, already vectorized over the slice)
            for l, h in zip(f_lo, f_hi):
                if h > l:
                    m = fuzzy_match_mask(q, terms[l:h], d, with_transpositions)
                    out.extend((l + np.flatnonzero(m)).tolist())
            break

        # enumerate children of every frontier node (one bisect per child)
        c_lo: list[int] = []
        c_hi: list[int] = []
        c_par: list[int] = []
        c_oc: list[int] = []
        for n in range(len(f_lo)):
            i, s_hi = f_lo[n], f_hi[n]
            while i < s_hi:
                c = terms[i][depth]
                oc = ord(c)
                if oc < 0x10FFFF:
                    child_hi = bisect_left(terms, terms[i][:depth] + chr(oc + 1), i, s_hi)
                else:  # unreachable for real text; keep the walk total anyway
                    child_hi = s_hi
                c_lo.append(i)
                c_hi.append(child_hi)
                c_par.append(n)
                c_oc.append(oc)
                i = child_hi
        if not c_lo:
            break
        par = np.asarray(c_par, np.int64)
        ocs = np.asarray(c_oc, np.uint32)
        R = rows[par]  # (children, lq+1)
        t = np.empty_like(R)
        t[:, 0] = depth + 1
        neq = (qa[None, :] != ocs[:, None]).astype(np.int64)
        t[:, 1:] = np.minimum(R[:, 1:] + 1, R[:, :-1] + neq)
        if with_transpositions and depth >= 1 and lq >= 2:
            if depth == 1:  # every grandparent is the root row
                P = np.broadcast_to(k, (len(c_par), lq + 1))
            else:
                P = np.stack([prows[p] for p in c_par])
            swap = (qa[None, :-1] == ocs[:, None]) & (qa[None, 1:] == pcs[par][:, None])
            t[:, 2:] = np.minimum(t[:, 2:], np.where(swap, P[:, :-2] + 1, BIG))
        cur = k[None, :] + np.minimum.accumulate(t - k[None, :], axis=1)
        keep = np.flatnonzero(cur.min(axis=1) <= d)

        f_lo = [c_lo[j] for j in keep]
        f_hi = [c_hi[j] for j in keep]
        prows = [rows[c_par[j]] for j in keep]
        rows = cur[keep]
        pcs = ocs[keep]
        depth += 1

    out.sort()
    return np.asarray(out, dtype=np.int64)


class Prepared:
    """prepare() output: the plan shipped to segment executors + metadata."""

    def __init__(self, plan: dict):
        self.plan = plan

    def to_json(self) -> dict:
        return self.plan


def prepare(
    flt: Filter, stats: GlobalStats, scorer: ScorerCfg | None = None, boost: float = 1.0
) -> Prepared:
    scorer = scorer or ScorerCfg()
    root = _prepare_node(flt, stats, scorer, boost)
    return Prepared({"scorer": scorer.to_json(), "root": root})


def _term_leaf(
    field_name: str,
    term: str,
    weight_boost: float,
    stats: GlobalStats,
    scorer: ScorerCfg,
    df: int | None = None,
) -> dict:
    """``df`` may be threaded in by expansions that already read it —
    avoids a second dictionary probe per matched term (which in lazy-stats
    mode would be one parquet pushdown EACH)."""
    N, avg_dl = stats.field(field_name)
    n = stats.term_df(field_name, term) if df is None else int(df)
    return {
        "op": "term",
        "field": field_name,
        "term": term,
        "weight": weight_boost * scorer.idf(n, N),
        "avg_dl": avg_dl,
    }


def _union_of_terms(
    field_name: str,
    terms_and_boosts: list[tuple[str, float]],
    stats: GlobalStats,
    scorer: ScorerCfg,
    min_match: int = 1,
    scored_terms_limit: int | None = None,
    dfs=None,
) -> dict:
    """``dfs``: per-term df aligned with ``terms_and_boosts`` (from the
    expansion's dictionary read); batch-probed in ONE shot when absent."""
    terms_list = [t for t, _ in terms_and_boosts]
    if dfs is None:
        dfs = stats.term_dfs(field_name, terms_list)
    by_term = {t: int(d) for t, d in zip(terms_list, dfs)}
    if scored_terms_limit is not None and len(terms_and_boosts) > scored_terms_limit:
        # limited_sample_collector analog (SURVEY §2.5): only the top
        # ``scored_terms_limit`` terms by (df desc, term asc) keep scoring
        # stats; the remainder still MATCH — they appear as one
        # ``unscored_terms`` leg whose docs score 0 but count toward
        # min_match occurrence counting
        ranked = sorted(
            terms_and_boosts,
            key=lambda tb: (-by_term[tb[0]], tb[0]),
        )
        scored, unscored = ranked[:scored_terms_limit], ranked[scored_terms_limit:]
        legs = [
            _term_leaf(field_name, t, b, stats, scorer, df=by_term[t])
            for t, b in scored
        ]
        legs.append(
            {
                "op": "unscored_terms",
                "field": field_name,
                "terms": sorted(t for t, _ in unscored),
            }
        )
        return {"op": "union", "children": legs, "min_match": min_match}
    legs = [
        _term_leaf(field_name, t, b, stats, scorer, df=by_term[t])
        for t, b in terms_and_boosts
    ]
    return {"op": "union", "children": legs, "min_match": min_match}


def _prefix_upper(prefix: str) -> str | None:
    """Smallest string greater than every string with this prefix — the
    exclusive upper bound of the dictionary range [prefix, upper).  None
    when no such bound exists (all-max-codepoint prefix)."""
    for i in range(len(prefix) - 1, -1, -1):
        c = ord(prefix[i])
        if c < 0x10FFFF:
            return prefix[:i] + chr(c + 1)
    return None


def _expand_terms(field_name: str, stats: GlobalStats, mask_fn=None, batch=None):
    """(terms, dfs) of dictionary terms passing ``mask_fn`` (per-term) or
    ``batch`` (vectorized list→bool-mask) — streamed scan (lazy stats never
    materialize the vocabulary on the driver)."""

    def batch_fn(terms, _dfs):
        if batch is not None:
            return batch(terms)
        return np.fromiter(
            (mask_fn(t) for t in terms), dtype=bool, count=len(terms)
        )

    return stats.match_terms(field_name, batch_fn)


def expand_phrase_part(part, field_name: str, stats: GlobalStats) -> list[str]:
    """Expand one phrase slot to its term list (ref: by_phrase variadic
    parts — phrase_filter.cpp): a literal/Term stays itself; Prefix /
    Wildcard / Fuzzy expand against the merged dictionary."""
    if isinstance(part, str):
        return [part]
    if isinstance(part, Term):
        return [part.term]
    if isinstance(part, Prefix):
        terms, _ = stats.terms_in_range(field_name, part.prefix, _prefix_upper(part.prefix))
        return list(terms)
    if isinstance(part, Wildcard):
        rx = wildcard_to_regex(part.pattern)
        pfx = wildcard_literal_prefix(part.pattern)
        if pfx:
            cand, _ = stats.terms_in_range(field_name, pfx, _prefix_upper(pfx))
            return [t for t in cand if rx.fullmatch(t)]
        terms, _ = _expand_terms(field_name, stats, lambda t: rx.fullmatch(t) is not None)
        return list(terms)
    if isinstance(part, Fuzzy):
        d = min(int(part.max_distance), 4)
        terms, _ = stats.fuzzy_terms(field_name, part.term, d, part.with_transpositions)
        return list(terms)
    raise TypeError(f"unsupported phrase part {type(part).__name__}")


def _prepare_node(flt: Filter, stats: GlobalStats, scorer: ScorerCfg, boost: float) -> dict:
    boost = boost * flt.boost
    if isinstance(flt, Term):
        return _term_leaf(flt.field, flt.term, boost, stats, scorer)
    if isinstance(flt, Terms):
        if flt.boosts is not None and len(flt.boosts) != len(flt.terms):
            raise ValueError("Terms.boosts must match terms length")
        per = {}
        for i, t in enumerate(flt.terms):
            if t not in per:  # first occurrence wins (dedup like the ref)
                b = flt.boosts[i] if flt.boosts is not None else 1.0
                per[t] = boost * (1.0 if b is None else float(b))
        return _union_of_terms(
            flt.field, list(per.items()), stats, scorer, flt.min_match
        )
    if isinstance(flt, Prefix):
        # range read [prefix, next(prefix)) — row-group-pruned pushdown in
        # lazy-stats mode, never a full-dictionary scan
        terms, dfs = stats.terms_in_range(flt.field, flt.prefix, _prefix_upper(flt.prefix))
        return _union_of_terms(
            flt.field, [(t, boost) for t in terms], stats, scorer,
            scored_terms_limit=flt.scored_terms_limit, dfs=dfs,
        )
    if isinstance(flt, TermRange):
        terms, dfs = stats.terms_in_range(
            flt.field, flt.low, flt.high,
            include_low=flt.include_low, include_high=flt.include_high,
        )
        return _union_of_terms(
            flt.field, [(t, boost) for t in terms], stats, scorer,
            scored_terms_limit=flt.scored_terms_limit, dfs=dfs,
        )
    if isinstance(flt, Wildcard):
        rx = wildcard_to_regex(flt.pattern)
        pfx = wildcard_literal_prefix(flt.pattern)
        if pfx:
            cand, cdfs = stats.terms_in_range(flt.field, pfx, _prefix_upper(pfx))
            keep = np.fromiter(
                (rx.fullmatch(t) is not None for t in cand), dtype=bool, count=len(cand)
            )
            matched, dfs = cand[keep], cdfs[keep]
        else:
            # no literal head: streamed full-field scan (lazy mode holds one
            # record batch + matches, not the vocabulary)
            matched, dfs = _expand_terms(
                flt.field, stats, lambda t: rx.fullmatch(t) is not None
            )
        return _union_of_terms(
            flt.field, [(t, boost) for t in matched], stats, scorer,
            scored_terms_limit=flt.scored_terms_limit, dfs=dfs,
        )
    if isinstance(flt, GranularRange):
        from iresearch_ray.functions.numeric import range_term_bounds

        INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
        lo = INT64_MIN if flt.low is None else int(flt.low) + (0 if flt.include_low else 1)
        hi = INT64_MAX if flt.high is None else int(flt.high) - (0 if flt.include_high else 1)
        matched: list[str] = []
        for lo_t, hi_t in range_term_bounds(lo, hi):
            ts, _ = stats.terms_in_range(
                flt.field, lo_t, hi_t, include_low=True, include_high=True
            )
            matched.extend(ts)
        return {
            "op": "filter_union",
            "field": flt.field,
            "terms": matched,
            "weight": boost,
        }
    if isinstance(flt, GeoDistance):
        from iresearch_ray.functions.geo import covering_cells

        precision, cells = covering_cells(
            flt.lat, flt.lon, flt.radius_km,
            max_cells=int(flt.max_cells),
            max_precision=int(flt.max_precision),
        )
        return {
            "op": "geo",
            "field": flt.field,
            "terms": cells,
            "lat": float(flt.lat),
            "lon": float(flt.lon),
            "radius_km": float(flt.radius_km),
            "weight": boost,
            "score_distance": bool(flt.score_distance),
        }
    if isinstance(flt, Fuzzy):
        d = min(int(flt.max_distance), 4)
        matched, dfs = stats.fuzzy_terms(flt.field, flt.term, d, flt.with_transpositions)
        return _union_of_terms(
            flt.field, [(t, boost) for t in matched], stats, scorer,
            scored_terms_limit=flt.scored_terms_limit, dfs=dfs,
        )
    if isinstance(flt, Phrase):
        N, avg_dl = stats.field(flt.field)
        parts = [expand_phrase_part(p, flt.field, stats) for p in flt.terms]
        slot_terms = [t for slot in parts for t in slot]
        w = boost * sum(
            scorer.idf(int(n), N) for n in stats.term_dfs(flt.field, slot_terms)
        )
        return {
            "op": "phrase",
            "field": flt.field,
            "parts": parts,
            "slop": int(flt.slop),
            "ordered": bool(flt.ordered),
            "weight": w,
            "avg_dl": avg_dl,
        }
    if isinstance(flt, SamePosition):
        N, avg_dl = stats.field(flt.field)
        w = boost * sum(
            scorer.idf(int(n), N) for n in stats.term_dfs(flt.field, list(flt.terms))
        )
        return {
            "op": "same_position",
            "field": flt.field,
            "terms": list(flt.terms),
            "weight": w,
            "avg_dl": avg_dl,
        }
    if isinstance(flt, NgramSimilarity):
        return {
            "op": "ngram_similarity",
            "field": flt.field,
            "terms": list(flt.terms),
            "threshold": float(flt.threshold),
            "weight": boost,
        }
    if isinstance(flt, And):
        return {
            "op": "and",
            "children": [_prepare_node(c, stats, scorer, boost) for c in flt.children],
        }
    if isinstance(flt, Or):
        return {
            "op": "union",
            "children": [_prepare_node(c, stats, scorer, boost) for c in flt.children],
            "min_match": flt.min_match,
        }
    if isinstance(flt, Not):
        return {
            "op": "not",
            "positive": _prepare_node(
                flt.positive if flt.positive is not None else AllDocs(), stats, scorer, boost
            ),
            "negative": _prepare_node(flt.negative, stats, scorer, 1.0),
        }
    if isinstance(flt, Nested):
        if flt.score_merge not in ("sum", "max", "min", "avg", "none"):
            raise ValueError(f"unknown score_merge {flt.score_merge!r}")
        return {
            "op": "nested",
            "child": _prepare_node(flt.child, stats, scorer, 1.0),
            "min_match": int(flt.min_match),
            "score_merge": flt.score_merge,
            "weight": boost,
        }
    if isinstance(flt, AllDocs):
        return {"op": "all", "weight": boost}
    if isinstance(flt, Exists):
        return {"op": "exists", "field": flt.field, "weight": boost}
    if isinstance(flt, Empty):
        return {"op": "empty"}
    raise TypeError(f"unknown filter {type(flt).__name__}")
