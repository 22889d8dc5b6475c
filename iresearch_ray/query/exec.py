"""Per-segment query execution — SURVEY.md §2.5 (the doc_iterator layer).

The reference's pull-based iterator trees (conjunction leapfrog, disjunction
heaps — ref: core/search/conjunction.hpp, disjunction.hpp, exclusion.hpp) are
re-expressed as vectorized numpy set algebra over decoded posting arrays:
union = concat + unique + bincount-sum (with leg counting for min_match),
intersection = successive ``np.intersect1d`` ordered by ascending cost (df),
exclusion = a searchsorted membership mask.  Rank-identity is preserved by pinned float64
term-at-a-time accumulation and the (score desc, conv_id, turn_idx) total
order (SURVEY §2.6 tie-break).

Top-k is exhaustive: ``segment_topk`` scores the whole plan, then cuts to k.
Posting decodes go through the reader's LRU posting cache, so warm queries
reuse decoded postings instead of re-reading varint blocks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from iresearch_ray.functions.codec import (
    decode_positions,
    decode_postings,
    varint_decode,
)
from iresearch_ray.functions.score import bm25_tf_factor
from iresearch_ray.stages.segment import SegmentReader

_EMPTY = (np.empty(0, np.int64), np.empty(0, np.float64))


def _member_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in ``sorted_set`` (both int64, set
    sorted+unique) via searchsorted — beats np.isin's internal sort when the
    set is already ordered (always true for posting doc ids / phrase keys)."""
    if sorted_set.size == 0 or values.size == 0:
        return np.zeros(values.size, dtype=bool)
    idx = np.searchsorted(sorted_set, values)
    idx[idx == sorted_set.size] = 0
    return sorted_set[idx] == values


def _tf_factor(tfs, dls, avg_dl, scorer):
    name = scorer["name"]
    if name == "tfidf":
        # Lucene-classic with norms folded in (SURVEY §2.6); avg_dl unused
        s = np.sqrt(tfs.astype(np.float64))
        return s / np.sqrt(dls.astype(np.float64))
    if name != "bm25":
        # custom scorer via the registry (SURVEY §2.11 REGISTER_SCORER analog)
        from iresearch_ray.functions.score import SCORERS

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


def _field_dls(reader: SegmentReader, field_name: str) -> np.ndarray:
    """Norms: exact integer lengths for the analyzed text field (Norm2
    semantics, SURVEY §2.3 pinned); constant 1 for keyword fields."""
    cfg = reader.meta.get("config", {})
    if field_name == cfg.get("text_field", "text"):
        return reader.dls
    return np.ones(reader.meta["docs_count"], dtype=np.int64)


class _TermCursor:
    """One leg's decoded state (lazy)."""

    def __init__(self, reader: SegmentReader, node: dict):
        self.reader = reader
        self.row = reader.term_row(node["field"], node["term"])

    @property
    def present(self) -> bool:
        return self.row is not None

    def df(self) -> int:
        if self.row is None:
            return 0
        return int(self.reader.terms["df"][self.row].as_py())

    def _col(self, name: str):
        return self.reader.terms[name][self.row].as_py()

    def decode_all(self) -> tuple[np.ndarray, np.ndarray]:
        if self.row is None:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return self.reader.cached_postings(
            self.row,
            lambda: decode_postings(
                self._col("doc_blob"),
                np.asarray(self._col("block_doc_count"), dtype=np.int64),
            ),
        )

    def packed_keys(self, sel_docs: np.ndarray) -> np.ndarray:
        """Sorted packed ``doc<<21 | pos`` keys for the selected (sorted)
        docs — fully vectorized: the whole pos stream is one self-delimiting
        varint sequence with per-doc delta resets, so it decodes in one pass
        and segments by doc with a segmented cumsum (no per-doc python
        loop).  The PACKED array (one int64 per occurrence — half the bytes
        of separate label/pos arrays, and exactly what phrase intersection
        consumes) is cached per term row under the reader's posting-cache
        budget; re-queries skip both the decode and the per-query pack.
        When the selection covers every doc (stopword slots — the expensive
        case), the cached array is returned ZERO-COPY."""
        all_docs, all_tfs = self.decode_all()
        if all_docs.size == 0 or sel_docs.size == 0:
            return np.empty(0, np.int64)

        def _decode():
            deltas = varint_decode(self._col("pos_blob")).astype(np.int64)
            # segmented cumsum: absolute positions within each doc's slice
            starts = np.concatenate(([0], np.cumsum(all_tfs)[:-1]))
            cs = np.cumsum(deltas)
            base = np.repeat(cs[starts] - deltas[starts], all_tfs)
            pos = cs - base
            if pos.size and int(pos.max()) >= (1 << 21):
                raise ValueError("position exceeds 2^21 — phrase key packing invalid")
            return ((np.repeat(all_docs, all_tfs) << np.int64(21)) | pos,)

        (packed,) = self.reader.cached_postings(("pos", self.row), _decode)
        if sel_docs is all_docs:
            return packed  # unrestricted selection: skip the membership pass
        member = _member_sorted(all_docs, sel_docs)
        if member.all():
            return packed
        return packed[np.repeat(member, all_tfs)]

    def flat_positions(self, sel_docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(doc_label, position) flat arrays for the selected (sorted) docs —
        unpacked view of ``packed_keys`` (callers that loop per candidate
        doc, e.g. ngram similarity, want the split form; phrase/same-position
        consume the packed keys directly)."""
        keys = self.packed_keys(sel_docs)
        return keys >> np.int64(21), keys & np.int64((1 << 21) - 1)


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


def _eval_term_union_bulk(
    reader: SegmentReader, node: dict, scorer: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Wide multiterm union (prefix/wildcard/fuzzy expansions): resolve all
    term rows with one searchsorted, decode all blobs with one bulk Arrow
    take, then the usual counting merge — replaces per-leg _TermCursor
    cell access, which dominates wall time past ~100 legs."""
    children = node["children"]
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
    rows = idx[pos_c[ok]].astype(np.int64)
    kept = [c for c, o in zip(children, ok) if o]
    decoded = reader.bulk_postings([int(r) for r in rows])
    dls_all = _field_dls(reader, field)
    avg_dl = kept[0]["avg_dl"]
    # ONE scoring pass for the whole expansion (r5): the old per-term loop
    # called _tf_factor once per term — 100+ tiny numpy calls per segment
    # dominated wide prefix/wildcard latency (p95 profile).  Concatenate
    # every leg's postings, repeat the per-term weights over the leg
    # lengths, score in a single vectorized kernel.
    doc_arrays, tf_arrays, weights, lens = [], [], [], []
    for c, r in zip(kept, rows):
        docs, tfs = decoded[int(r)]
        if docs.size == 0:
            continue
        doc_arrays.append(docs)
        tf_arrays.append(tfs)
        weights.append(c["weight"])
        lens.append(docs.size)
    if not doc_arrays:
        return _EMPTY
    docs = np.concatenate(doc_arrays)
    tfs = np.concatenate(tf_arrays)
    wrep = np.repeat(np.asarray(weights, np.float64), np.asarray(lens))
    scores = (wrep * _tf_factor(tfs, dls_all[docs - 1], avg_dl, scorer)).astype(
        np.float64
    )
    mm = int(node.get("min_match", 1))
    n_docs = dls_all.size
    # dense aggregation: doc ids are 1..n_docs, so bincount over the raw
    # ids is O(N + n_docs) vs np.unique's O(N log N) argsort.  Guard the
    # allocation for the sparse case (tiny expansion over a consolidated
    # mega-segment): fall back to unique when the id space dwarfs N.
    if n_docs <= max(1 << 20, 4 * docs.size):
        summed = np.bincount(docs, weights=scores, minlength=n_docs + 1)
        counts = np.bincount(docs, minlength=n_docs + 1)
        keep = counts >= mm
        uniq = np.flatnonzero(keep).astype(np.int64)
        return uniq, summed[keep]
    uniq, inv = np.unique(docs, return_inverse=True)
    summed = np.bincount(inv, weights=scores, minlength=uniq.size)
    if mm > 1:
        counts = np.bincount(inv, minlength=uniq.size)
        keep = counts >= mm
        return uniq[keep], summed[keep]
    return uniq, summed


def _geo_column(reader: SegmentReader, field: str):
    """Parsed (lat, lon) float64 arrays of a stored geopoint column,
    memoized per reader (parse once per segment per serving actor)."""
    memo = getattr(reader, "_geo_cols", None)
    if memo is None:
        memo = reader._geo_cols = {}
    hit = memo.get(field)
    if hit is None:
        from iresearch_ray.functions.geo import parse_latlon

        if field not in reader.docs.column_names:
            raise ValueError(
                f"geo field {field!r} has no stored column (build with "
                f"IndexConfig(geo_fields=({field!r},)))"
            )
        hit = memo[field] = parse_latlon(reader.docs[field].to_pylist())
    return hit


def eval_node(
    reader: SegmentReader, node: dict, scorer: dict, deleted: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    op = node["op"]
    if op == "term":
        cur = _TermCursor(reader, node)
        docs, tfs = cur.decode_all()
        if docs.size == 0:
            return _EMPTY
        dls = _field_dls(reader, node["field"])[docs - 1]
        scores = node["weight"] * _tf_factor(tfs, dls, node["avg_dl"], scorer)
        return docs, scores.astype(np.float64)

    if op == "union":
        children = node["children"]
        if (
            len(children) > 8
            and all(c["op"] == "term" for c in children)
            and len({c["field"] for c in children}) == 1
        ):
            return _eval_term_union_bulk(reader, node, scorer)
        legs = [eval_node(reader, c, scorer, deleted) for c in children]
        legs = [(d, s) for d, s in legs if d.size]
        if not legs:
            return _EMPTY
        docs = np.concatenate([d for d, _ in legs])
        scores = np.concatenate([s for _, s in legs])
        uniq, inv = np.unique(docs, return_inverse=True)
        summed = np.bincount(inv, weights=scores, minlength=uniq.size)
        mm = int(node.get("min_match", 1))
        if mm > 1:
            counts = np.bincount(inv, minlength=uniq.size)
            keep = counts >= mm
            return uniq[keep], summed[keep]
        return uniq, summed

    if op == "and":
        if not node["children"]:
            return _EMPTY  # empty conjunction matches nothing (pinned)
        legs = [eval_node(reader, c, scorer, deleted) for c in node["children"]]
        # leapfrog order: ascending cost == ascending posting length (§2.5)
        legs.sort(key=lambda ds: ds[0].size)
        docs, scores = legs[0]
        for d2, s2 in legs[1:]:
            docs, ia, ib = np.intersect1d(docs, d2, assume_unique=True, return_indices=True)
            scores = scores[ia] + s2[ib]
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
        elif f in reader.docs.column_names:
            mask = reader.docs[f].is_valid().to_numpy(zero_copy_only=False)
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
    slot_doc_sets = []
    for cursors in slots:
        if len(cursors) == 1:
            slot_doc_sets.append(cursors[0].decode_all()[0])
        else:
            slot_doc_sets.append(np.unique(np.concatenate([c.decode_all()[0] for c in cursors])))
    inter = slot_doc_sets[0]
    for d in slot_doc_sets[1:]:
        # both sides sorted+unique: membership searchsorted beats
        # intersect1d's concat+argsort
        inter = inter[_member_sorted(inter, d)]
        if inter.size == 0:
            return _EMPTY
    # flat (doc, pos) keys: key = doc<<21 | pos (positions < 2^21 per doc —
    # enforced at encode time by dl bounds); one membership pass per slot
    SHIFT = np.int64(21)

    def slot_keys(j: int, restrict: bool = True) -> np.ndarray:
        # Restricting a slot's keys to the intersected docs pays only when
        # the intersection is SELECTIVE; for stopword slots inter ≈ the
        # slot's own doc set and the restriction costs two extra passes
        # over the largest arrays (a member searchsorted + a masked copy).
        # Passing the slot's own doc set returns the cached packed array
        # ZERO-COPY instead.  Correctness is unchanged either way for the
        # ordered chain: a key can only survive the chain if its doc has a
        # key in EVERY slot, i.e. is in `inter`.
        arrays = []
        for c in slots[j]:
            own = c.decode_all()[0]
            sel = inter if (restrict or inter.size * 2 < own.size) else own
            arrays.append(c.packed_keys(sel))
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays))

    slop = int(node.get("slop", 0))
    ordered = bool(node.get("ordered", True))
    n_slots = len(slots)

    if not ordered and slop >= 0 and n_slots > 1:
        # unordered window (transposition-tolerant): per-candidate-doc
        # matching — candidate sets are already slot-intersected small
        keys = [slot_keys(j) for j in range(n_slots)]
        tf_out = np.zeros(inter.size, dtype=np.int64)
        mask = np.int64((1 << 21) - 1)
        for i, doc in enumerate(inter):
            pls = []
            base = np.int64(doc) << SHIFT
            for kj in keys:
                lo = np.searchsorted(kj, base)
                hi = np.searchsorted(kj, base + (np.int64(1) << SHIFT))
                pls.append((kj[lo:hi] & mask).astype(np.int64))
            tf_out[i] = _unordered_tf(pls, slop)
        keep = tf_out > 0
        docs = inter[keep]
        if docs.size == 0:
            return _EMPTY
        dls = _field_dls(reader, node["field"])[docs - 1]
        scores = node["weight"] * _tf_factor(tf_out[keep], dls, node["avg_dl"], scorer)
        return docs, scores.astype(np.float64)

    cand_keys = slot_keys(0, restrict=False)
    if slop == 0:
        for j in range(1, n_slots):
            if cand_keys.size == 0:
                return _EMPTY
            keys_j = slot_keys(j, restrict=False)
            # merge-intersect two sorted UNIQUE key arrays: radix ('stable')
            # sort of the concat + adjacent-equal scan beats per-element
            # binary search ~1.5× (sequential passes, no random probes).
            # Each matched value appears exactly twice, so the dup scan IS
            # the intersection; candidates stay anchored at slot 0 (−j).
            c = np.concatenate([cand_keys + j, keys_j])
            c.sort(kind="stable")
            cand_keys = c[:-1][c[1:] == c[:-1]] - j
    else:
        # greedy ordered-window chain: advance each candidate to the SMALLEST
        # next-slot position in (prev, prev+1+slop].  Greedy earliest-advance
        # IS the pinned slop semantics (a documented divergence from Lucene
        # move-count slop — see Phrase docstring); it does NOT claim to keep
        # every completable window chain.  One searchsorted pass per slot.
        for j in range(1, n_slots):
            if cand_keys.size == 0:
                return _EMPTY
            keys_j = slot_keys(j, restrict=False)
            lo = np.searchsorted(keys_j, cand_keys + 1, side="left")
            ok = lo < keys_j.size
            nxt = keys_j[np.minimum(lo, keys_j.size - 1)]
            ok &= nxt <= cand_keys + 1 + slop  # same doc guaranteed: key gap
            ok &= (nxt >> SHIFT) == (cand_keys >> SHIFT)
            cand_keys = np.unique(nxt[ok])
    if cand_keys.size == 0:
        return _EMPTY
    hit_docs = cand_keys >> SHIFT
    pos_in_inter = np.searchsorted(inter, hit_docs)
    tf_out = np.bincount(pos_in_inter, minlength=inter.size).astype(np.int64)
    keep = tf_out > 0
    docs = inter[keep]
    if docs.size == 0:
        return _EMPTY
    dls = _field_dls(reader, node["field"])[docs - 1]
    scores = node["weight"] * _tf_factor(tf_out[keep], dls, node["avg_dl"], scorer)
    return docs, scores.astype(np.float64)


def _eval_same_position(reader: SegmentReader, node: dict, scorer: dict) -> tuple[np.ndarray, np.ndarray]:
    """Same-position co-occurrence: phrase machinery with offset 0 — one
    vectorized key intersection per extra term (SURVEY §2.4 phase-3)."""
    cursors = [_TermCursor(reader, {**node, "term": t}) for t in node["terms"]]
    if any(not c.present for c in cursors):
        return _EMPTY
    doc_sets = [c.decode_all()[0] for c in cursors]
    inter = doc_sets[0]
    for d in doc_sets[1:]:
        inter = np.intersect1d(inter, d, assume_unique=True)
        if inter.size == 0:
            return _EMPTY
    SHIFT = np.int64(21)
    cand_keys = cursors[0].packed_keys(inter)
    for j in range(1, len(cursors)):
        if cand_keys.size == 0:
            return _EMPTY
        cand_keys = cand_keys[_member_sorted(cand_keys, cursors[j].packed_keys(inter))]
    if cand_keys.size == 0:
        return _EMPTY
    hit_docs = cand_keys >> SHIFT
    tf = np.bincount(np.searchsorted(inter, hit_docs), minlength=inter.size).astype(np.int64)
    keep = tf > 0
    docs = inter[keep]
    dls = _field_dls(reader, node["field"])[docs - 1]
    scores = node["weight"] * _tf_factor(tf[keep], dls, node["avg_dl"], scorer)
    return docs, scores.astype(np.float64)


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


def segment_topk(
    reader: SegmentReader,
    plan: dict,
    k: int,
    wand: bool = True,
    deleted: np.ndarray | None = None,
) -> pa.Table:
    """Evaluate one prepared plan over one segment → local top-k table
    (conv_id, turn_idx, score) under the pinned total order.

    ``deleted`` is the document-mask side file applied at query time
    (SURVEY §2.3): True at doc_id-1 excludes the doc from results.

    ``wand`` is ignored: there is one evaluation path; the parameter is
    kept until perfbench drops it (ROADMAP F12)."""
    docs, scores = _EMPTY
    if k > 0:
        docs, scores = eval_node(reader, plan["root"], plan["scorer"], deleted)
        if deleted is not None and docs.size:
            keep = ~deleted[docs - 1]
            docs, scores = docs[keep], scores[keep]
    if docs.size == 0:
        return pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "turn_idx": pa.array([], pa.int32()),
                "score": pa.array([], pa.float64()),
            }
        )
    if docs.size > k:
        # keep every doc tied with the k-th largest score so the value-based
        # tie-break below stays exact, then order the reduced set
        kth = np.partition(scores, docs.size - k)[docs.size - k]
        sel = np.flatnonzero(scores >= kth)
        docs_s, scores_s = docs[sel], scores[sel]
    else:
        docs_s, scores_s = docs, scores
    conv_all, turn_all = reader.doc_keys
    conv = conv_all[docs_s - 1]
    turn = turn_all[docs_s - 1]
    # pinned total order (SURVEY §2.6): score desc, then (conv_id, turn_idx)
    # asc BY VALUE — doc-id order equals it for freshly built segments but
    # not for concat-merged ones, so always tie-break on the values
    order = np.lexsort((turn, conv, -scores_s))[:k]
    return pa.table(
        {
            "conv_id": pa.array(conv[order], pa.string()),
            "turn_idx": pa.array(turn[order]).cast(reader.docs["turn_idx"].type),
            "score": pa.array(scores_s[order], pa.float64()),
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
