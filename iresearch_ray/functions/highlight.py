"""Highlighting — character offsets for matched query terms (SURVEY §2.1
token attributes [U core/analysis/token_attributes.hpp — offset]).

Two sources, same output:

- ``source="stored"`` (default): offsets are recomputed at highlight time
  from the stored ``text`` column (present anyway for per-turn equality
  verification, IndexConfig.store_text) by re-running the pinned tokenizer
  with span tracking.  100 TB rationale: storing start/end alongside every
  position roughly doubles the positions blob across the whole index for a
  feature that only ever touches the k documents a user actually views;
  recompute is O(doc length) per displayed doc and exactly consistent with
  the indexed positions because it IS the same tokenizer.
- ``source="index"``: offsets are read straight from the postings — the
  reference's ``offs`` index feature.  Requires the index built with
  ``IndexConfig(offsets=True)``; pays the bigger index for O(block) span
  reads with no stored text needed (the right trade when text is NOT
  stored, or when highlight volume is high enough that re-tokenization
  dominates).  Both sources are span-identical on the same index (asserted
  in tests/test_offsets.py).

Offsets are exact for ASCII text (where NFC + lower are length-preserving —
the §2.1.1 pinned regime); for non-ASCII input the spans index the
normalized string.
"""

from __future__ import annotations

import pandas as pd

from iresearch_ray.functions.analysis import _WORD_RE, _nfc_lower


def token_spans(text: str | None) -> list[tuple[int, int, str]]:
    """(start, end, normalized_token) for every token of the pinned `text`
    analyzer, in position order — span i corresponds to position i."""
    if text is None:
        return []
    return [(m.start(), m.end(), m.group()) for m in _WORD_RE.finditer(_nfc_lower(text))]


def plan_terms(node: dict, field: str) -> set[str]:
    """Collect every term of a prepared plan that touches ``field`` —
    term leaves, unscored multiterm remainders, granular-range trie terms,
    phrase/same-position parts."""
    out: set[str] = set()
    op = node.get("op")
    if op == "term" and node.get("field") == field:
        out.add(node["term"])
    elif op in ("unscored_terms", "filter_union", "same_position") and node.get("field") == field:
        out.update(node.get("terms", ()))
    elif op == "phrase" and node.get("field") == field:
        for slot in node.get("parts") or [[t] for t in node.get("terms", ())]:
            out.update(slot)
    elif op == "ngram_similarity" and node.get("field") == field:
        out.update(node.get("terms", ()))
    elif op == "union" or op == "and":
        for c in node.get("children", ()):
            out |= plan_terms(c, field)
    elif op == "not":
        # only the positive side produces visible matches
        out |= plan_terms(node.get("positive", {}), field)
    elif op == "nested":
        out |= plan_terms(node.get("child", {}), field)
    return out


def highlight_text(text: str | None, terms: set[str]) -> list[tuple[int, int]]:
    """Character (start, end) spans of tokens whose normalized form is in
    ``terms``, in document order."""
    return [(s, e) for s, e, t in token_spans(text) if t in terms]


def _index_doc_spans(reader, row: int, doc_id: int) -> list[tuple[int, int]]:
    """One term's (start, end) spans in one doc, read from the indexed
    offset stream: locate the doc's block via the skip table, decode only
    that block's offsets, slice the doc's occurrences."""
    import numpy as np

    from iresearch_ray.functions.codec import decode_offsets

    t = reader.terms
    docs_all, tfs_all = reader.bulk_postings([row])[row]
    i = int(np.searchsorted(docs_all, doc_id))
    if i >= docs_all.size or docs_all[i] != doc_id:
        return []
    off_blob = t["off_blob"][row].as_py()
    if not off_blob:
        raise ValueError(
            "highlights(source='index') needs the index built with "
            "IndexConfig(offsets=True)"
        )
    block_cnt = np.asarray(t["block_doc_count"][row].as_py(), dtype=np.int64)
    off_off = np.asarray(t["off_off"][row].as_py(), dtype=np.int64)
    cum = np.cumsum(block_cnt)
    b = int(np.searchsorted(cum, i, side="right"))
    starts, ends = decode_offsets(
        off_blob, off_off, tfs_all, b, block_cnt.size, block_cnt
    )
    s_doc = int(cum[b - 1]) if b > 0 else 0
    occ_lo = int(tfs_all[s_doc:i].sum())
    occ_hi = occ_lo + int(tfs_all[i])
    return list(zip(starts[occ_lo:occ_hi].tolist(), ends[occ_lo:occ_hi].tolist()))


def spans_for_hits(
    reader,
    docs,
    terms: set[str] | list[str],
    field: str,
    source: str = "stored",
) -> tuple[list, list]:
    """(texts, spans) for the hit doc ids ``docs`` of ``reader`` — the
    per-segment kernel of ``Shard.highlight``."""
    term_rows = (
        {t: reader.term_row(field, t) for t in sorted(terms)}
        if source == "index"
        else None
    )
    texts: list[str | None] = []
    spans: list[list[tuple[int, int]]] = []
    stored = field in reader.docs_schema.names
    for pos in (docs - 1).tolist():
        text = reader.doc_column(field)[pos].as_py() if stored else None
        texts.append(text)
        if source == "index":
            doc_spans: list[tuple[int, int]] = []
            for tm, trow in term_rows.items():
                if trow is not None:
                    doc_spans += _index_doc_spans(reader, trow, pos + 1)
            spans.append(sorted(doc_spans))
        else:
            spans.append(highlight_text(text, set(terms)))
    return texts, spans


def highlights(
    searcher,
    flt,
    k: int = 10,
    scorer=None,
    field: str = "text",
    source: str = "stored",
) -> pd.DataFrame:
    """Top-k search + per-hit highlight spans:
    (conv_id, turn_idx, score, text, spans) where spans = [(start, end), …]
    for every token matching a query term of ``field``.

    ``source="stored"`` re-tokenizes the stored text column (needs
    store_text=True); ``source="index"`` reads the indexed offset stream
    (needs offsets=True) — span-identical outputs (see module docstring)."""
    return searcher.highlights(flt, k=k, scorer=scorer, field=field, source=source)
