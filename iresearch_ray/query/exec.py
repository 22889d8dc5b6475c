"""Per-segment query execution — SURVEY.md §2.5 (the doc_iterator layer).

The reference's pull-based iterator trees (conjunction leapfrog, disjunction
heaps — ref: core/search/conjunction.hpp, disjunction.hpp, exclusion.hpp) are
re-expressed as vectorized numpy set algebra over decoded posting arrays:
union = concat + one ``_sum_by_doc`` aggregation (a dense bincount over the
doc-id space, with leg counting for min_match; ``np.unique`` only when the
id space dwarfs the hits), intersection = the smallest leg probed into each
larger one by ``searchsorted`` (ascending cost, df), exclusion = a
searchsorted membership mask.  Rank-identity is preserved by pinned float64
term-at-a-time accumulation (bincount adds in input order, so sums are the
same as a sort-based reduce) and the (score desc, conv_id, turn_idx) total
order (SURVEY §2.6 tie-break).

Top-k scores the whole plan, then cuts to k in linear time:
``_select`` takes the k-th largest of 8k chunk maxima as a floor under
the k-th largest score, keeps the scores not below it in one pass and
partitions only those (the reference's k-heap threshold, as one
vectorized cut).  A union root is cut straight from its dense doc-id
accumulator, without compacting it first.  ``segment_topk_docs`` returns
doc-id and score arrays; ``segment_topk`` wraps them in a (conv_id,
turn_idx, score) table.
Posting decodes go through the reader's LRU posting cache, so warm queries
reuse decoded postings instead of re-reading varint blocks.  The same
byte-bounded LRU holds each term leg's impacts: the per-posting scoring
factor (BM25 ``tf·(k1+1)/(tf + k1·(1−b+b·dl/avg_dl))``, float64), computed
lazily on a leg's first use and keyed by (term row, avg_dl, scorer name,
k1, b) and a custom scorer's ``tf_factor`` function.  A term leg then
scores with one multiply by its idf weight; a generation with a new
avg_dl misses and recomputes.  Every same-field union of term legs (an
``Or`` of terms, a prefix/wildcard/fuzzy expansion) decodes its missing
rows in one bulk pass (``_term_union_legs``).

Positions are token offsets.  Each reader memoizes ``tok_base =
concat([0], cumsum(dl + 1))``, and a term's occurrences are cached once,
in the same LRU, as the sorted offsets ``tok_base[doc-1] + pos``.  The
``+1`` leaves a separator slot after every doc that no token occupies,
so occupied offsets ``j`` apart always lie in one doc: an exact phrase
keeps the anchors ``a`` with slot j's term at ``a + j`` and never needs a
doc check.  The doc of an offset is ``searchsorted(tok_base, offset,
side="right")``; its position is ``offset - tok_base[doc-1]``.  Each slot
probes the candidates through a scratch bool mask over the offsets, or by
``searchsorted`` when the candidates are much fewer than the slot's
offsets or the mask would outgrow its inputs (``_dense_probe``, one fixed
rule).  Phrase, same-position and ngram legs compute tf per query; their
offsets are cached, their scores are not.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from iresearch_ray.functions.codec import varint_decode
from iresearch_ray.functions.score import SCORERS, bm25_tf_factor
from iresearch_ray.stages.segment import SegmentReader

_EMPTY = (np.empty(0, np.int64), np.empty(0, np.float64))

# Unions aggregate with a dense bincount over the doc-id space (ids are
# 1..n_docs) while that space is at most this many ids or 4x the hits:
# O(hits + n_docs) beats np.unique's O(hits log hits) argsort.  Past it
# (a narrow union over a consolidated mega-segment) the allocation would
# dominate, so ``_sum_by_doc`` falls back to np.unique.
DENSE_UNION_IDS = 1 << 20

# Segment top-k selection (``_select``): the scores split into
# SELECT_CHUNKS_PER_K * k contiguous chunks, and the k-th largest chunk
# max is a floor under the k-th largest score.  Chunks shorter than
# SELECT_MIN_CHUNK would make the floor cost as much as the partition it
# saves, so shorter inputs partition whole.
SELECT_CHUNKS_PER_K = 8
SELECT_MIN_CHUNK = 4


def _member_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in ``sorted_set`` (both int64, set
    sorted+unique) via searchsorted — beats np.isin's internal sort when the
    set is already ordered (always true for posting doc ids / phrase keys)."""
    if sorted_set.size == 0 or values.size == 0:
        return np.zeros(values.size, dtype=bool)
    idx = np.searchsorted(sorted_set, values)
    idx[idx == sorted_set.size] = 0
    return sorted_set[idx] == values


def _accumulate(
    docs: np.ndarray, scores: np.ndarray, min_match: int, n_docs: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The dense union accumulator over doc ids 0..n_docs: (mask of the
    docs that occur at least ``min_match`` times in ``docs``, summed
    scores per doc id), or None when the id space is too sparse for it
    (see ``DENSE_UNION_IDS``).  bincount adds each doc's weights in input
    order."""
    if n_docs > max(DENSE_UNION_IDS, 4 * docs.size):
        return None
    matched = np.bincount(docs, minlength=n_docs + 1) >= max(1, min_match)
    return matched, np.bincount(docs, weights=scores, minlength=n_docs + 1)


def _sum_by_doc(
    docs: np.ndarray, scores: np.ndarray, min_match: int, n_docs: int
) -> tuple[np.ndarray, np.ndarray]:
    """(ascending unique doc ids, summed scores) of the docs that occur at
    least ``min_match`` times in ``docs`` — the aggregation of every union:
    the compacted ``_accumulate``, or np.unique over a sparse id space.
    bincount adds each doc's weights in input order, in both branches."""
    acc = _accumulate(docs, scores, min_match, n_docs)
    if acc is not None:
        matched, summed = acc
        return np.flatnonzero(matched).astype(np.int64), summed[matched]
    uniq, inv = np.unique(docs, return_inverse=True)
    summed = np.bincount(inv, weights=scores, minlength=uniq.size)
    if min_match > 1:
        keep = np.bincount(inv, minlength=uniq.size) >= min_match
        return uniq[keep], summed[keep]
    return uniq, summed


def _select(scores: np.ndarray, k: int) -> np.ndarray:
    """Ascending positions of every score >= the k-th largest (ties kept;
    NaN ranks above every number, as in np.partition) — the segment top-k
    cut, for k >= 1.

    The k-th largest max of ``SELECT_CHUNKS_PER_K * k`` contiguous chunks
    is a floor: k distinct scores reach it, so it is <= the k-th largest
    score.  One pass keeps the scores not below it, and np.partition runs
    on those candidates only.  A -inf floor (an accumulator's unmatched
    padding) keeps the scores above it instead.  Inputs too short for
    ``SELECT_MIN_CHUNK``-long chunks, or with fewer than k candidates,
    partition whole."""
    n = scores.size
    if n <= k:
        return np.arange(n)
    m = SELECT_CHUNKS_PER_K * k
    if n >= SELECT_MIN_CHUNK * m:
        c = n // m
        floor = np.partition(scores[: m * c].reshape(m, c).max(axis=1), m - k)[m - k]
        below = scores <= floor if floor == -np.inf else scores < floor
        cand = np.flatnonzero(~below)
        if cand.size >= k:
            sub = scores[cand]
            kth = np.partition(sub, sub.size - k)[sub.size - k]
            return cand[sub >= kth]
    kth = np.partition(scores, n - k)[n - k]
    return np.flatnonzero(scores >= kth)


def _tf_factor(tfs, dls, avg_dl, scorer):
    name = scorer["name"]
    if name == "tfidf":
        # Lucene-classic with norms folded in (SURVEY §2.6); avg_dl unused
        s = np.sqrt(tfs.astype(np.float64))
        return s / np.sqrt(dls.astype(np.float64))
    if name != "bm25":
        # custom scorer via the registry (SURVEY §2.11 REGISTER_SCORER analog)
        return SCORERS[name]["tf_factor"](
            tfs.astype(np.float64),
            dls.astype(np.float64),
            avg_dl,
            scorer["k1"],
            scorer["b"],
        )
    return bm25_tf_factor(
        tfs.astype(np.float64), dls.astype(np.float64), avg_dl, scorer["k1"], scorer["b"]
    )


def _impacts(
    reader: SegmentReader, field: str, avg_dl: float, scorer: dict,
    rows: list[int], postings: list[tuple],
) -> list[np.ndarray]:
    """The per-posting factor ``_tf_factor(tfs, dls[docs - 1])`` of each
    term row in ``rows`` (``postings`` holds their decoded (docs, tfs)).

    Impacts are cached lazily in the reader's posting LRU, under the
    posting budget, keyed by (term row, avg_dl, scorer name, k1, b) and,
    for a registered custom scorer, its ``tf_factor`` function — a
    re-registration under the same name misses.  The rows that miss are
    scored in one vectorized pass; the factor is elementwise, so the
    split arrays equal per-row ones bit for bit."""
    name = scorer["name"]
    fn = None if name in ("bm25", "tfidf") else SCORERS[name]["tf_factor"]
    keys = [("impact", r, avg_dl, name, scorer["k1"], scorer["b"], fn) for r in rows]
    out = [reader.cached(key) for key in keys]
    miss = [i for i, hit in enumerate(out) if hit is None]
    if miss:
        docs = np.concatenate([postings[i][0] for i in miss])
        tfs = np.concatenate([postings[i][1] for i in miss])
        f = np.asarray(
            _tf_factor(tfs, _field_dls(reader, field)[docs - 1], avg_dl, scorer), np.float64
        )
        parts = np.split(f, np.cumsum([postings[i][0].size for i in miss])[:-1])
        for i, part in zip(miss, parts):
            # a lone miss keeps the whole array; split views would pin it
            out[i] = (part if len(miss) == 1 else part.copy(),)
            reader.cache_put(keys[i], out[i])
    return [o[0] for o in out]


def _field_dls(reader: SegmentReader, field_name: str) -> np.ndarray:
    """Norms: exact integer lengths for the analyzed text field (Norm2
    semantics, SURVEY §2.3 pinned); constant 1 for keyword fields."""
    cfg = reader.meta.get("config", {})
    if field_name == cfg.get("text_field", "text"):
        return reader.dls
    return np.ones(reader.meta["docs_count"], dtype=np.int64)


def _tok_base(reader: SegmentReader, field: str) -> np.ndarray:
    """Token-offset base of every doc of ``field``, memoized per reader:
    ``concat([0], cumsum(dl + 1))``.  Doc d's tokens sit at offsets
    ``tok_base[d-1] .. tok_base[d-1] + dl - 1``, and ``tok_base[d] - 1`` is
    a separator slot that no token occupies, so two offsets ``j`` apart
    that are both occupied always lie in one doc, and the doc of an offset
    is ``searchsorted(tok_base, offset, side="right")``."""
    return reader.memo(
        ("tok_base", field),
        lambda: np.concatenate(([0], np.cumsum(_field_dls(reader, field) + 1))),
    )


class _TermCursor:
    """One term leg of one segment: its decoded (docs, tfs) and, for the
    positional operators, its token offsets.  Both decode lazily and stay
    in the reader's posting LRU."""

    def __init__(self, reader: SegmentReader, node: dict):
        self.reader = reader
        self.field = node["field"]
        self.row = reader.term_row(node["field"], node["term"])

    @property
    def present(self) -> bool:
        return self.row is not None

    def decode_all(self) -> tuple[np.ndarray, np.ndarray]:
        if self.row is None:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        hit = self.reader.cached(self.row)
        return hit if hit is not None else self.reader.bulk_postings([self.row])[self.row]

    def offsets(self) -> np.ndarray:
        """Sorted token offsets ``tok_base[doc-1] + pos`` of every
        occurrence (see ``_tok_base``) — the one positional form every
        phrase, same-position and ngram kernel reads.  The pos stream is one
        self-delimiting varint sequence with per-doc delta resets, so it
        decodes in one pass and rebases per doc with a segmented cumsum.
        One int64 per occurrence, cached per term row under the reader's
        posting-cache budget.  Raises ValueError when a position is not
        below its doc's length (the offsets of two docs would overlap) or
        the field indexed no positions."""
        docs, tfs = self.decode_all()
        if docs.size == 0:
            return np.empty(0, np.int64)

        def _decode():
            pos_blob = self.reader.terms["pos_blob"][self.row].as_py()
            deltas = varint_decode(pos_blob).astype(np.int64)
            if deltas.size != int(tfs.sum()):
                raise ValueError(
                    f"field {self.field!r} has no positions indexed "
                    "(built with IndexConfig(positions=False)?)"
                )
            ends = np.cumsum(tfs)
            cs = np.cumsum(deltas)
            before = cs[ends - tfs] - deltas[ends - tfs]  # running total at doc start
            # positions ascend within a doc: the last one is the largest
            if (cs[ends - 1] - before >= _field_dls(self.reader, self.field)[docs - 1]).any():
                raise ValueError("position not below its doc's length — token offsets invalid")
            base = _tok_base(self.reader, self.field)[docs - 1]
            return (cs + np.repeat(base - before, tfs),)

        return self.reader.cached_postings(("off", self.row), _decode)[0]

    def flat_positions(self, sel_docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(doc id, position) of every occurrence in the selected (sorted)
        docs — the split form ngram similarity loops over per candidate."""
        docs, tfs = self.decode_all()
        off = self.offsets()
        if off.size == 0 or sel_docs.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        off = off[np.repeat(_member_sorted(docs, sel_docs), tfs)]
        base = _tok_base(self.reader, self.field)
        doc = np.searchsorted(base, off, side="right")
        return doc, off - base[doc - 1]


def _present_rows(reader: SegmentReader, field: str, terms: list[str]) -> list[int]:
    """Term rows for the subset of ``terms`` present in this segment —
    one vectorized searchsorted over the sorted dictionary."""
    dict_terms, idx = reader.field_terms(field)
    if dict_terms.size == 0 or not terms:
        return []
    q = np.array(terms, dtype=object)
    pos = np.searchsorted(dict_terms, q)
    pos_c = np.minimum(pos, dict_terms.size - 1)
    ok = dict_terms[pos_c] == q
    return [int(idx[p]) for p, o in zip(pos_c, ok) if o]


def _term_union_legs(
    reader: SegmentReader, children: list[dict], scorer: dict
) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated (docs, scores) legs of a same-field union of term
    legs — an ``Or`` of terms or a prefix/wildcard/fuzzy expansion:
    resolve all term rows with one searchsorted, decode the uncached ones
    in one varint pass and score all legs with one multiply.  Scores
    equal a per-leg evaluation bit for bit: both multiply ``weight *
    impact`` elementwise and concatenate the legs in children order."""
    field = children[0]["field"]
    dict_terms, idx = reader.field_terms(field)
    if dict_terms.size == 0:
        return _EMPTY
    q = np.array([c["term"] for c in children], dtype=object)
    pos = np.searchsorted(dict_terms, q)
    pos_c = np.minimum(pos, dict_terms.size - 1)
    ok = dict_terms[pos_c] == q
    if not ok.any():
        return _EMPTY
    rows = [int(r) for r in idx[pos_c[ok]]]
    kept = [c for c, o in zip(children, ok) if o]
    decoded = reader.bulk_postings(rows)
    legs = [(c, r) for c, r in zip(kept, rows) if decoded[r][0].size]
    if not legs:
        return _EMPTY
    impacts = _impacts(
        reader, field, legs[0][0]["avg_dl"], scorer,
        [r for _, r in legs], [decoded[r] for _, r in legs],
    )
    docs = np.concatenate([decoded[r][0] for _, r in legs])
    weights = [c["weight"] for c, _ in legs]
    if len(legs) * 1024 <= docs.size:
        # long legs (an Or of common terms): one multiply per leg, then the
        # concat — no extra full-length pass for the repeated weights
        scores = np.concatenate([w * imp for w, imp in zip(weights, impacts)])
    else:
        # many short legs (wide expansions): one multiply in all, not 100+
        # tiny numpy calls per segment
        scores = np.repeat(np.asarray(weights, np.float64), [i.size for i in impacts])
        scores *= np.concatenate(impacts)
    return docs, scores


def _union_legs(
    reader: SegmentReader, node: dict, scorer: dict, deleted: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated (docs, scores) of a union's non-empty legs, in
    children order — the input of its aggregation."""
    children = node["children"]
    if (
        children
        and all(c["op"] == "term" for c in children)
        and len({c["field"] for c in children}) == 1
    ):
        return _term_union_legs(reader, children, scorer)
    legs = [eval_node(reader, c, scorer, deleted) for c in children]
    legs = [(d, s) for d, s in legs if d.size]
    if not legs:
        return _EMPTY
    return np.concatenate([d for d, _ in legs]), np.concatenate([s for _, s in legs])


def _geo_column(reader: SegmentReader, field: str):
    """Parsed (lat, lon) float64 arrays of a stored geopoint column,
    memoized per reader (parse once per segment per serving actor)."""
    from iresearch_ray.functions.geo import parse_latlon

    if field not in reader.docs_schema.names:
        raise ValueError(
            f"geo field {field!r} has no stored column (build with "
            f"IndexConfig(geo_fields=({field!r},)))"
        )
    return reader.memo(
        ("geo", field), lambda: parse_latlon(reader.doc_column(field).to_pylist())
    )


def eval_node(
    reader: SegmentReader, node: dict, scorer: dict, deleted: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    op = node["op"]
    if op == "term":
        cur = _TermCursor(reader, node)
        docs, tfs = cur.decode_all()
        if docs.size == 0:
            return _EMPTY
        (impact,) = _impacts(
            reader, node["field"], node["avg_dl"], scorer, [cur.row], [(docs, tfs)]
        )
        return docs, node["weight"] * impact

    if op == "union":
        docs, scores = _union_legs(reader, node, scorer, deleted)
        if docs.size == 0:
            return _EMPTY
        return _sum_by_doc(
            docs, scores, int(node.get("min_match", 1)), reader.meta["docs_count"]
        )

    if op == "and":
        if not node["children"]:
            return _EMPTY  # empty conjunction matches nothing (pinned)
        legs = [eval_node(reader, c, scorer, deleted) for c in node["children"]]
        # leapfrog order: ascending cost == ascending posting length (§2.5);
        # the survivors probe each larger (sorted, unique) leg by binary
        # search — no concat + argsort of both sides
        legs.sort(key=lambda ds: ds[0].size)
        docs, scores = legs[0]
        for d2, s2 in legs[1:]:
            if docs.size == 0 or d2.size == 0:
                return _EMPTY
            idx = np.searchsorted(d2, docs)
            idx[idx == d2.size] = 0
            hit = d2[idx] == docs
            docs, scores = docs[hit], scores[hit] + s2[idx[hit]]
        if docs.size == 0:
            return _EMPTY
        return docs, scores

    if op == "not":
        pos_d, pos_s = eval_node(reader, node["positive"], scorer, deleted)
        neg_d, _ = eval_node(reader, node["negative"], scorer, deleted)
        keep = ~_member_sorted(pos_d, neg_d)
        return pos_d[keep], pos_s[keep]

    if op == "unscored_terms":
        # limited_sample_collector analog (SURVEY §2.5): terms beyond the
        # scored_terms_limit cap still match with score 0.  Docs are returned
        # CONCATENATED (one entry per matched term, unique within a term) so
        # the parent union's occurrence counting sees each matched term —
        # min_match semantics are preserved
        rows = _present_rows(reader, node["field"], node["terms"])
        if not rows:
            return _EMPTY
        decoded = reader.bulk_postings(rows)
        docs = np.concatenate([decoded[r][0] for r in rows])
        return docs, np.zeros(docs.size, dtype=np.float64)

    if op == "filter_union":
        # constant-score disjoint union (granular numeric range): decode doc
        # lists only, score = weight for every matching doc
        docs_list = []
        for t in node["terms"]:
            cur = _TermCursor(reader, {"field": node["field"], "term": t})
            if cur.present:
                docs_list.append(cur.decode_all()[0])
        if not docs_list:
            return _EMPTY
        docs = np.concatenate(docs_list)
        # intervals are disjoint over VALUES, but a multi-valued doc (dynamic
        # json array field, SURVEY §1.1 [*] semantics) can hold values in
        # several intervals — unique, not just sort
        docs = np.unique(docs)
        return docs, np.full(docs.size, float(node["weight"]), dtype=np.float64)

    if op == "geo":
        # covering-cell candidates (constant-score term union), then the
        # exact vectorized haversine refine over the STORED geopoint
        # column — work is proportional to the circle, not the corpus
        docs_list = []
        for t in node["terms"]:
            cur = _TermCursor(reader, {"field": node["field"], "term": t})
            if cur.present:
                docs_list.append(cur.decode_all()[0])
        if not docs_list:
            return _EMPTY
        docs = np.unique(np.concatenate(docs_list))
        lat, lon = _geo_column(reader, node["field"])
        plat = lat[docs - 1]
        plon = lon[docs - 1]
        from iresearch_ray.functions.geo import haversine_km

        ok = ~np.isnan(plat)
        dist = haversine_km(plat[ok], plon[ok], node["lat"], node["lon"])
        inside = dist <= node["radius_km"]
        ok[ok] = inside
        docs = docs[ok]
        if node.get("score_distance"):
            # nearest-first: boost * (radius - dist), non-negative
            scores = float(node["weight"]) \
                * (node["radius_km"] - dist[inside])
            return docs, scores.astype(np.float64)
        return docs, np.full(docs.size, float(node["weight"]),
                             dtype=np.float64)

    if op == "phrase":
        return _eval_phrase(reader, node, scorer)

    if op == "same_position":
        return _eval_same_position(reader, node, scorer)

    if op == "ngram_similarity":
        return _eval_ngram_similarity(reader, node, scorer)

    if op == "nested":
        # parent/child join (ref: nested_filter.cpp) — children are turns,
        # parents are conversations.  Child docs arrive sorted, and doc
        # order == (conv_id, turn_idx) order, so conversations are
        # contiguous runs; one reduceat per run merges child scores.  The
        # parent is represented by its first matching child doc id, so the
        # existing doc→(conv, turn) key conversion applies unchanged.
        child_docs, child_scores = eval_node(reader, node["child"], scorer, deleted)
        if deleted is not None and child_docs.size:
            live = ~deleted[child_docs - 1]
            child_docs, child_scores = child_docs[live], child_scores[live]
        if child_docs.size == 0:
            return _EMPTY
        conv_all, _turn_all = reader.doc_keys
        labels = conv_all[child_docs - 1]
        new = np.concatenate(([True], labels[1:] != labels[:-1]))
        starts = np.flatnonzero(new)
        counts = np.diff(np.concatenate((starts, [child_docs.size])))
        merge = node.get("score_merge", "sum")
        if merge == "sum":
            merged = np.add.reduceat(child_scores, starts)
        elif merge == "max":
            merged = np.maximum.reduceat(child_scores, starts)
        elif merge == "min":
            merged = np.minimum.reduceat(child_scores, starts)
        elif merge == "avg":
            merged = np.add.reduceat(child_scores, starts) / counts
        else:  # "none" — constant score, reference's kNone
            merged = np.ones(starts.size, dtype=np.float64)
        keep = counts >= int(node.get("min_match", 1))
        if not keep.any():
            return _EMPTY
        return child_docs[starts][keep], float(node["weight"]) * merged[keep]

    if op == "all":
        n = reader.meta["docs_count"]
        return (
            np.arange(1, n + 1, dtype=np.int64),
            np.full(n, float(node["weight"]), dtype=np.float64),
        )

    if op == "exists":
        f = node["field"]
        cfg = reader.meta.get("config", {})
        if f == cfg.get("text_field", "text"):
            mask = reader.dls > 0
        elif f in reader.docs_schema.names:
            mask = reader.doc_column(f).is_valid().to_numpy(zero_copy_only=False)
        else:
            # dynamic field (json_fields leaf): not a stored doc column —
            # existence = union of the field's posting lists (constant score)
            dict_terms, idx = reader.field_terms(f)
            if dict_terms.size:
                decoded = reader.bulk_postings([int(r) for r in idx])
                docs = np.unique(
                    np.concatenate([decoded[int(r)][0] for r in idx])
                )
                return docs, np.full(
                    docs.size, float(node["weight"]), dtype=np.float64
                )
            mask = np.zeros(reader.meta["docs_count"], dtype=bool)
        docs = np.flatnonzero(mask).astype(np.int64) + 1
        return docs, np.full(docs.size, float(node["weight"]), dtype=np.float64)

    if op == "empty":
        return _EMPTY

    raise ValueError(f"unknown plan op {op!r}")


def _kuhn_match(cand: list[np.ndarray], skip_slot: int, banned: int) -> bool:
    """Perfect bipartite matching (Kuhn augmenting paths) of every slot
    except ``skip_slot`` onto distinct positions, none equal to ``banned``.
    Slot counts are phrase lengths (tiny), windows are ≤ n+slop wide."""
    match: dict[int, int] = {}

    def try_slot(j: int, seen: set[int]) -> bool:
        for pos in cand[j]:
            p = int(pos)
            if p == banned or p in seen:
                continue
            seen.add(p)
            if p not in match or try_slot(match[p], seen):
                match[p] = j
                return True
        return False

    for j in range(len(cand)):
        if j == skip_slot:
            continue
        if not try_slot(j, set()):
            return False
    return True


def _unordered_tf(pos_lists: list[np.ndarray], slop: int) -> int:
    """tf for the pinned unordered-window semantics: number of distinct
    anchors p such that every slot can take a DISTINCT position within
    [p, p + n-1+slop] with min position p (i.e. p itself is used)."""
    n = len(pos_lists)
    w = n + slop  # window width: n-1+slop offsets past the anchor, inclusive
    anchors = np.unique(np.concatenate(pos_lists))
    tf = 0
    for p in anchors:
        cand = [pl[(pl >= p) & (pl <= p + w - 1)] for pl in pos_lists]
        if any(c.size == 0 for c in cand):
            continue
        # p must be used by some slot; match the remaining slots off p
        for j in range(n):
            if p in cand[j] and _kuhn_match(cand, skip_slot=j, banned=int(p)):
                tf += 1
                break
    return tf


def _dense_probe(n_cand: int, n_slot: int, universe: int) -> bool:
    """Probe candidates against a slot through a bool mask over the token
    offsets, or by binary search?  The mask pays O(universe + slot) and
    wins unless the candidates are much fewer than the slot's offsets
    (searchsorted: O(cand log slot)).  Its size is bounded like
    ``_sum_by_doc``'s dense branch, so a consolidated mega-segment's token
    count never sets the allocation for a narrow probe."""
    return 16 * n_cand >= n_slot and universe <= max(DENSE_UNION_IDS, 4 * (n_cand + n_slot))


def _anchors(slots: list[list[_TermCursor]], shifts: list[int], universe: int) -> np.ndarray:
    """Sorted anchors ``a`` such that, for every slot j, ``a + shifts[j]``
    is an offset of one of slot j's terms.  The slot with the fewest
    occurrences seeds the candidates; each other slot, fewest first, keeps
    the candidates it holds — marked in a scratch bool mask (cleared after
    each slot) or probed by ``_member_sorted``, per ``_dense_probe``.  A
    slot's offsets decode only when it is reached.  Offsets all lie below
    ``universe``."""
    sizes = [sum(int(c.decode_all()[1].sum()) for c in cursors) for cursors in slots]
    order = sorted(range(len(slots)), key=sizes.__getitem__)
    seed = [c.offsets() for c in slots[order[0]]]
    cand = (seed[0] if len(seed) == 1 else np.unique(np.concatenate(seed))) - shifts[order[0]]
    if shifts[order[0]]:
        cand = cand[cand >= 0]
    mask = None
    for j in order[1:]:
        if cand.size == 0:
            break
        probe = cand + shifts[j]
        arrays = [c.offsets() for c in slots[j]]
        if _dense_probe(cand.size, sizes[j], universe):
            if mask is None:
                mask = np.zeros(universe + max(shifts) + 1, dtype=bool)
            for arr in arrays:
                mask[arr] = True
            hit = mask[probe]
            for arr in arrays:
                mask[arr] = False
        else:
            hit = _member_sorted(probe, arrays[0])
            for arr in arrays[1:]:
                hit |= _member_sorted(probe, arr)
        cand = cand[hit]
    return cand


def _hits_per_doc(tok_base: np.ndarray, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending doc ids, hits per doc) of sorted token offsets: one
    searchsorted against the doc bases, then run boundaries."""
    doc = np.searchsorted(tok_base, hits, side="right")
    start = np.flatnonzero(np.concatenate(([True], doc[1:] != doc[:-1])))
    return doc[start], np.diff(np.append(start, doc.size))


def _tf_scores(reader, node, scorer, docs, tf) -> tuple[np.ndarray, np.ndarray]:
    """(docs, weight × tf factor) of a positional leg's per-doc tf."""
    dls = _field_dls(reader, node["field"])[docs - 1]
    scores = node["weight"] * _tf_factor(tf, dls, node["avg_dl"], scorer)
    return docs, scores.astype(np.float64)


def _eval_phrase(reader: SegmentReader, node: dict, scorer: dict) -> tuple[np.ndarray, np.ndarray]:
    parts: list[list[str]] = node.get("parts")
    if parts is None:
        parts = [[t] for t in node.get("terms", ())]
    if not parts:
        return _EMPTY  # empty phrase matches nothing (pinned; oracle agrees)
    # each slot = union of its expansion terms' postings (variadic parts,
    # ref: phrase_filter.cpp); a slot with no present term kills the phrase
    slots: list[list[_TermCursor]] = []
    for slot_terms in parts:
        cursors = [_TermCursor(reader, {**node, "term": t}) for t in slot_terms]
        cursors = [c for c in cursors if c.present]
        if not cursors:
            return _EMPTY
        slots.append(cursors)
    tok_base = _tok_base(reader, node["field"])
    slop = int(node.get("slop", 0))
    ordered = bool(node.get("ordered", True))
    n_slots = len(slots)

    if ordered and slop == 0:
        # exact phrase: anchors a with slot j's term at a + j
        hits = _anchors(slots, list(range(n_slots)), int(tok_base[-1]))
        if hits.size == 0:
            return _EMPTY
        return _tf_scores(reader, node, scorer, *_hits_per_doc(tok_base, hits))

    def slot_offsets(j: int) -> np.ndarray:
        arrays = [c.offsets() for c in slots[j]]
        return arrays[0] if len(arrays) == 1 else np.unique(np.concatenate(arrays))

    if not ordered and slop >= 0 and n_slots > 1:
        # unordered window (transposition-tolerant): per-candidate-doc
        # matching over the docs every slot occurs in
        inter = None
        for cursors in slots:
            d = [c.decode_all()[0] for c in cursors]
            d = d[0] if len(d) == 1 else np.unique(np.concatenate(d))
            inter = d if inter is None else inter[_member_sorted(inter, d)]
        if inter.size == 0:
            return _EMPTY
        lo_base, hi_base = tok_base[inter - 1], tok_base[inter]
        keys = [slot_offsets(j) for j in range(n_slots)]
        bounds = [(np.searchsorted(k, lo_base), np.searchsorted(k, hi_base)) for k in keys]
        tf_out = np.zeros(inter.size, dtype=np.int64)
        for i in range(inter.size):
            pls = [k[lo[i]:hi[i]] - lo_base[i] for k, (lo, hi) in zip(keys, bounds)]
            tf_out[i] = _unordered_tf(pls, slop)
        keep = tf_out > 0
        if not keep.any():
            return _EMPTY
        return _tf_scores(reader, node, scorer, inter[keep], tf_out[keep])

    # greedy ordered-window chain: advance each candidate to the SMALLEST
    # next-slot offset in (prev, prev+1+slop] within its doc.  Greedy
    # earliest-advance IS the pinned slop semantics (a documented divergence
    # from Lucene move-count slop — see Phrase docstring); it does NOT claim
    # to keep every completable window chain.  One searchsorted pass per slot.
    cand = slot_offsets(0)
    for j in range(1, n_slots):
        if cand.size == 0:
            return _EMPTY
        keys_j = slot_offsets(j)
        lo = np.searchsorted(keys_j, cand + 1, side="left")
        ok = lo < keys_j.size
        nxt = keys_j[np.minimum(lo, keys_j.size - 1)]
        ok &= nxt <= cand + 1 + slop
        # same doc: below the next doc's base (nxt > cand)
        ok &= nxt < tok_base[np.searchsorted(tok_base, cand, side="right")]
        # cand ascends and searchsorted is monotone, so nxt[ok] never
        # descends: dropping adjacent repeats leaves it sorted and unique
        cand = nxt[ok]
        if cand.size:
            cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
    if cand.size == 0:
        return _EMPTY
    return _tf_scores(reader, node, scorer, *_hits_per_doc(tok_base, cand))


def _eval_same_position(reader: SegmentReader, node: dict, scorer: dict) -> tuple[np.ndarray, np.ndarray]:
    """Same-position co-occurrence: the exact-phrase kernel with every
    slot at shift 0 — the offsets all terms share (SURVEY §2.4 phase-3)."""
    cursors = [_TermCursor(reader, {**node, "term": t}) for t in node["terms"]]
    if not cursors or any(not c.present for c in cursors):
        return _EMPTY
    tok_base = _tok_base(reader, node["field"])
    hits = _anchors([[c] for c in cursors], [0] * len(cursors), int(tok_base[-1]))
    if hits.size == 0:
        return _EMPTY
    return _tf_scores(reader, node, scorer, *_hits_per_doc(tok_base, hits))


def _eval_ngram_similarity(reader: SegmentReader, node: dict, scorer: dict) -> tuple[np.ndarray, np.ndarray]:
    """In-order match ratio (LCS over positions / n query terms) ≥ threshold
    (SURVEY §2.4 phase-3).  Candidates come from a counting union with
    min_match = ceil(threshold · n); the per-candidate LCS is a python loop —
    candidate sets are already thresholded small."""
    terms = node["terms"]
    n = len(terms)
    thr = node["threshold"]
    import math as _math

    mm = max(1, int(_math.ceil(thr * n)))
    first_idx = {}
    for j, t in enumerate(terms):
        first_idx.setdefault(t, j)
    cursors = [_TermCursor(reader, {**node, "term": t}) for t in terms]
    # duplicate query terms: only the FIRST slot of a term emits events —
    # one occurrence must not satisfy several identical slots (pinned,
    # mirrors the reference lcs mapping each position to q.index(t))
    present = [
        (j, c) for j, c in enumerate(cursors) if c.present and first_idx[terms[j]] == j
    ]
    if len(present) < mm:
        return _EMPTY
    legs = [(j, c.decode_all()[0]) for j, c in present]
    all_docs = np.concatenate([d for _, d in legs])
    uniq, counts = np.unique(all_docs, return_counts=True)
    cand = uniq[counts >= mm]
    if cand.size == 0:
        return _EMPTY
    # per-candidate in-order LCS between the query term sequence and the
    # doc's (position-sorted) matched-term sequence
    pos_maps = {}
    for j, c in present:
        dlab, p = c.flat_positions(cand)
        pos_maps[j] = (dlab, p)
    out_docs, out_ratio = [], []
    for doc in cand:
        events = []  # (position, query_term_index)
        for j, (dlab, p) in pos_maps.items():
            sel = p[dlab == doc]
            events.extend((int(x), j) for x in sel)
        events.sort()
        seq = [j for _, j in events]
        # exact LCS(query term sequence 0..n-1, doc's matched-term sequence):
        # classic O(len(seq)·n) DP
        prev_row = [0] * (n + 1)
        for x in seq:
            cur = prev_row[:]
            for q in range(1, n + 1):
                if x == q - 1:
                    cur[q] = max(cur[q], prev_row[q - 1] + 1)
                cur[q] = max(cur[q], cur[q - 1], prev_row[q])
            prev_row = cur
        lcs = prev_row[n]
        ratio = lcs / n
        if ratio >= thr:
            out_docs.append(int(doc))
            out_ratio.append(ratio)
    if not out_docs:
        return _EMPTY
    docs = np.array(out_docs, dtype=np.int64)
    scores = node["weight"] * np.array(out_ratio, dtype=np.float64)
    return docs, scores


def segment_topk_docs(
    reader: SegmentReader,
    plan: dict,
    k: int,
    deleted: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one prepared plan over one segment → its local top-k as
    (doc id array, float64 score array) under the pinned total order.

    ``deleted`` is the document-mask side file applied at query time
    (SURVEY §2.3): True at doc_id-1 excludes the doc from results.

    Every doc tied with the k-th largest score survives ``_select``, so
    the value-based tie-break below stays exact.  A union root selects
    straight from its dense accumulator: the deleted docs leave the
    matched mask, the unmatched ids score -inf, and the doc ids are the
    selected positions — no compaction of the accumulator first.  Any
    other root (or a union over a sparse id space) is evaluated, filtered
    by the mask, then selected."""
    if k <= 0:
        return _EMPTY
    root, scorer = plan["root"], plan["scorer"]
    acc = None
    if root["op"] == "union":
        docs, scores = _union_legs(reader, root, scorer, deleted)
        if docs.size:
            mm, n_docs = int(root.get("min_match", 1)), reader.meta["docs_count"]
            acc = _accumulate(docs, scores, mm, n_docs)
            if acc is None:
                docs, scores = _sum_by_doc(docs, scores, mm, n_docs)
    else:
        docs, scores = eval_node(reader, root, scorer, deleted)
    if acc is not None:
        matched, summed = acc
        if deleted is not None:
            matched[1:] &= ~deleted
        if np.count_nonzero(matched) > k:
            docs = _select(np.where(matched, summed, -np.inf), k)
        else:
            docs = np.flatnonzero(matched)
        scores = summed[docs]
    else:
        if deleted is not None and docs.size:
            keep = ~deleted[docs - 1]
            docs, scores = docs[keep], scores[keep]
        sel = _select(scores, k)
        docs, scores = docs[sel], scores[sel]
    if docs.size == 0:
        return _EMPTY
    conv_all, turn_all = reader.doc_keys
    # pinned total order (SURVEY §2.6): score desc, then (conv_id, turn_idx)
    # asc BY VALUE — doc-id order equals it for freshly built segments but
    # not for concat-merged ones, so always tie-break on the values
    order = np.lexsort((turn_all[docs - 1], conv_all[docs - 1], -scores))[:k]
    return docs[order], scores[order]


def doc_keys_of(reader: SegmentReader, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(conv_id object array, turn_idx array) of the doc ids ``docs``."""
    if docs.size == 0:
        return np.empty(0, object), np.empty(0, np.int32)
    conv_all, turn_all = reader.doc_keys
    return conv_all[docs - 1], turn_all[docs - 1]


def segment_topk(
    reader: SegmentReader,
    plan: dict,
    k: int,
    wand: bool = True,
    deleted: np.ndarray | None = None,
) -> pa.Table:
    """``segment_topk_docs`` as a (conv_id, turn_idx, score) table.

    ``wand`` is ignored: there is one evaluation path; the parameter is
    kept until perfbench drops it (ROADMAP F12)."""
    docs, score = segment_topk_docs(reader, plan, k, deleted)
    conv, turn = doc_keys_of(reader, docs)
    return pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turn, reader.docs_schema.field("turn_idx").type),
            "score": pa.array(score, pa.float64()),
        }
    )


def segment_count(reader: SegmentReader, plan: dict, deleted: np.ndarray | None = None) -> int:
    """Scoreless hit count for one segment (the COUNT collector analog —
    ArangoSearch `COUNT`): full boolean evaluation of the prepared plan,
    no top-k reduction, no doc-key gather, mask applied.  Same matching
    semantics as segment_topk."""
    docs, _ = eval_node(reader, plan["root"], plan["scorer"], deleted)
    if deleted is not None and docs.size:
        docs = docs[~deleted[docs - 1]]
    return int(docs.size)
