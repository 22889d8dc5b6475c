"""Segment build + read — SURVEY.md §2.3 / §3.1 (the field_data + flush analog).

A segment is an immutable directory of Arrow/Parquet artifacts (SURVEY §1.2):

    seg-<name>/
      terms.parquet   term-ordered: field, term, df, cf, doc_blob, pos_blob,
                      block_last_doc[], block_off[], pos_off[],
                      block_doc_count[] (+ off/pay streams, see TERMS_SCHEMA)
      docs.parquet    docid-ordered: doc_id, conv_id, turn_idx, role, tool,
                      ts, dl (+ text when cfg.store_text)
      meta.json       name, docs_count, per-field stats, lineage, metrics

Either table may instead be a DIRECTORY of ordered part files
(``terms/part-00000.parquet`` …): the wide shuffle merge writes term-range
partitions and doc-rank partitions directly from its Ray tasks, so the
final segment never funnels through one process (SURVEY §3.3/§4.1).
Parts concatenated in filename order are exactly the single-file table
(term-sorted / doc-id-sorted); ``terms_paths``/``docs_paths`` are the one
place that resolves the layout.

Doc ids are segment-local, dense, starting at 1 (ref: type_limits.hpp
doc_limits::min()==1).  Rows are always sorted by (conv_id, turn_idx) before
id assignment — the primary-sort invariant (SURVEY §2.3 "primary-sort build")
that makes ids deterministic and global doc order = (segment, conv, turn).

Posting accumulation (ref: core/index/field_data.cpp byte_block_pool, which
appends each occurrence to its term's stream in arrival order) is
re-expressed over numpy occurrence arrays (term code, doc, position) that
arrive in (doc, pos) order: one stable radix sort on the term codes groups
them without disturbing that order, and one bulk varint pass encodes every
term — no per-row python dict in the hot path.  Term codes come from Arrow
kernels for the plain `text` analyzer on ASCII text (a byte map plus a
whitespace split) and for string keyword fields (``dictionary_encode``).
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray.functions.analysis import TextAnalyzer, explode_text_arrow, get_analyzer
from iresearch_ray.functions.numeric import trie_terms as numeric_trie_terms
from iresearch_ray.functions.codec import PostingColumns, decode_postings_bulk, encode_postings

TERMS_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("doc_blob", pa.large_binary()),
        ("pos_blob", pa.large_binary()),
        ("block_last_doc", pa.list_(pa.int64())),
        ("block_off", pa.list_(pa.int64())),
        ("pos_off", pa.list_(pa.int64())),
        ("block_doc_count", pa.list_(pa.int64())),
        # per-occurrence character offsets (the `offs` token attribute),
        # present only when built with IndexConfig(offsets=True); empty
        # blob / empty list otherwise so every segment shares one schema
        ("off_blob", pa.large_binary()),
        ("off_off", pa.list_(pa.int64())),
        # per-occurrence payload bytes (the `payload` token attribute),
        # present only with IndexConfig(payloads=True)
        ("pay_blob", pa.large_binary()),
        ("pay_off", pa.list_(pa.int64())),
    ]
)


# staging-name uniqueness: pid alone is not enough — same-process
# concurrent writers to one target would share (and interleave in) a
# pid-only staging path; see state/manifest.py:_atomic_write_json
_STAGE_SEQ = itertools.count()


@dataclass
class IndexConfig:
    """What gets indexed and how (the ArangoSearch view-link config analog,
    SURVEY §2.11)."""

    text_field: str = "text"
    keyword_fields: tuple[str, ...] = ("role", "tool")
    numeric_fields: tuple[str, ...] = ()  # precision-trie indexed (SURVEY §2.1 numeric)
    # columns holding a JSON document per row; every leaf becomes a dynamic
    # field "<col>.<path>" (SURVEY §1.1 dynamic schema / ArangoDB flattening)
    json_fields: tuple[str, ...] = ()
    # columns holding "lat,lon" geopoints: indexed as geohash prefix terms
    # at precisions 1..geo_precision (functions/geo.py — the ArangoSearch
    # geo-analyzer architecture on geohash cells) and STORED so the
    # GeoDistance filter can haversine-refine candidates exactly
    geo_fields: tuple[str, ...] = ()
    geo_precision: int = 7
    analyzer: str = "text"
    analyzer_opts: dict = field(default_factory=dict)
    positions: bool = True      # needed for phrase (SURVEY §2.5)
    # index per-occurrence character offsets of the text field (the `offs`
    # token attribute, ref: token_attributes.hpp) — serves highlights
    # straight from the postings without re-tokenizing stored text, at the
    # cost of a second position-sized stream.  Requires the `text` analyzer
    # (span tracking); other analyzers raise at build.
    offsets: bool = False
    # index per-occurrence payload bytes of the text field (the `payload`
    # token attribute).  Requires an analyzer exposing with_payloads()
    # (`delimited_payload`); read back via SegmentReader/exec payload
    # accessors and the payload_sum scoring helper.
    payloads: bool = False
    store_text: bool = True     # per-turn text equality verification (B input_hint)
    scorer: str = "bm25"

    def make_analyzer(self):
        return get_analyzer(self.analyzer, **self.analyzer_opts)

    def to_json(self) -> dict:
        return {
            "text_field": self.text_field,
            "keyword_fields": list(self.keyword_fields),
            "numeric_fields": list(self.numeric_fields),
            "json_fields": list(self.json_fields),
            "geo_fields": list(self.geo_fields),
            "geo_precision": self.geo_precision,
            "analyzer": self.analyzer,
            "analyzer_opts": self.analyzer_opts,
            "positions": self.positions,
            "offsets": self.offsets,
            "payloads": self.payloads,
            "store_text": self.store_text,
            "scorer": self.scorer,
        }

    @staticmethod
    def from_json(d: dict) -> "IndexConfig":
        d = dict(d)
        d["keyword_fields"] = tuple(d.get("keyword_fields", ()))
        d["numeric_fields"] = tuple(d.get("numeric_fields", ()))
        d["json_fields"] = tuple(d.get("json_fields", ()))
        d["geo_fields"] = tuple(d.get("geo_fields", ()))
        return IndexConfig(**d)


class _CpuLaps:
    """Process CPU seconds per build layer: each ``lap(layer)`` charges the
    CPU used since the previous lap (or since construction) to ``layer``;
    ``add(layer, secs)`` records a sub-layer of the open lap."""

    def __init__(self):
        self.secs: dict[str, float] = {}
        self._t = time.process_time()

    def lap(self, layer: str) -> None:
        t = time.process_time()
        self.add(layer, t - self._t)
        self._t = t

    def add(self, layer: str, secs: float) -> None:
        self.secs[layer] = self.secs.get(layer, 0.0) + secs


def _positions(lens: np.ndarray) -> np.ndarray:
    """Position of each occurrence within its doc, for docs of ``lens``
    occurrences laid out back to back."""
    starts = np.cumsum(lens) - lens
    return np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens)


def _occurrences(
    term_lists: list[list[str]], doc_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Occurrence stream of per-doc token lists, in (doc, pos) order:
    sorted-term codes, the sorted terms, each occurrence's doc id and its
    position within the doc."""
    lens = np.fromiter((len(t) for t in term_lists), dtype=np.int64, count=len(term_lists))
    flat = [t for toks in term_lists for t in toks]
    codes, uniques = pd.factorize(np.asarray(flat, dtype=object), sort=True)
    return codes, uniques, np.repeat(doc_ids, lens), _positions(lens)


def _sorted_codes(values: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Codes into the sorted distinct values of a non-null string array
    (the ``pd.factorize(sort=True)`` contract, in Arrow's hash kernel)."""
    enc = values.dictionary_encode()
    codes = enc.indices.to_numpy()
    uniq = enc.dictionary.to_numpy(zero_copy_only=False)
    # remap first-seen dictionary order to sorted-term codes
    sort_order = np.argsort(uniq, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[sort_order] = np.arange(uniq.size)
    return rank[codes], uniq[sort_order]


def _term_order(codes: np.ndarray, n_terms: int) -> np.ndarray:
    """Stable permutation grouping occurrences by term code.  Occurrences
    arrive in (doc, pos) order, so stability alone keeps each term's run
    sorted by (doc, pos): the (term, doc, pos) order without a 3-key
    lexsort.  On uint16 keys numpy's stable sort is a radix sort; a wider
    vocabulary takes two stable 16-bit passes, low half then high half."""
    if n_terms <= 1 << 16:
        return np.argsort(codes.astype(np.uint16), kind="stable")
    lo = np.argsort((codes & 0xFFFF).astype(np.uint16), kind="stable")
    return lo[np.argsort((codes[lo] >> 16).astype(np.uint16), kind="stable")]


def _postings_from_codes(
    field_name: str,
    codes: np.ndarray,
    uniques,
    doc_rep: np.ndarray,
    pos: np.ndarray,
    with_positions: bool,
    offs: tuple[np.ndarray, np.ndarray] | None = None,
    pays: np.ndarray | None = None,
    clock: _CpuLaps | None = None,
) -> pa.Table:
    """Grouping + encode tail shared by the python and arrow tokenize paths:
    ``codes`` are sorted-term integer codes per occurrence, ``uniques`` the
    sorted term strings.  Occurrences must arrive in (doc, pos) order —
    every tokenize path emits them so — because the grouping sort keys on
    the term code alone (``_term_order``).  ``clock``, when given, is
    charged the CPU of the bulk posting encode as layer ``encode``."""
    total = codes.size
    order = _term_order(codes, len(uniques))
    codes_s, docs_s, pos_s = codes[order], doc_rep[order], pos[order]
    offs_s = (offs[0][order], offs[1][order]) if offs is not None else None
    pays_s = pays[order] if pays is not None else None
    # (term, doc) run boundaries
    new_pair = np.empty(total, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (codes_s[1:] != codes_s[:-1]) | (docs_s[1:] != docs_s[:-1])
    pair_starts = np.flatnonzero(new_pair)
    tf = np.diff(np.append(pair_starts, total))
    pair_term = codes_s[pair_starts]
    pair_doc = docs_s[pair_starts]
    # term run boundaries over pairs
    new_term = np.empty(pair_term.size, dtype=bool)
    new_term[0] = True
    new_term[1:] = pair_term[1:] != pair_term[:-1]
    term_starts = np.flatnonzero(new_term)
    term_ends = np.append(term_starts[1:], pair_term.size)
    occ_ends = np.cumsum(tf)
    occ_starts = occ_ends - tf

    if offs is None and pays_s is None:
        # default-config fast path: ONE bulk varint pass for every term of
        # the field (codec.encode_postings_bulk) and DIRECT Arrow column
        # assembly from the flat outputs — no per-term encode loop, no
        # python dicts, no from_pylist (byte-parity asserted in test_codec)
        from iresearch_ray.functions.codec import encode_postings_bulk

        c0 = time.process_time()
        enc = encode_postings_bulk(
            pair_doc, tf, term_starts, term_ends,
            pos_s if with_positions else None,
        )
        if clock is not None:
            clock.add("encode", time.process_time() - c0)
        n_terms = term_starts.size
        n_blocks = int(enc["blk_bounds"][-1])
        has_pos = with_positions and len(enc["pos_blob"]) > 0

        def lbin(blob: bytes, bounds: np.ndarray) -> pa.Array:
            return pa.LargeBinaryArray.from_buffers(
                pa.large_binary(),
                n_terms,
                [None,
                 pa.py_buffer(np.ascontiguousarray(bounds, dtype=np.int64).tobytes()),
                 pa.py_buffer(blob)],
            )

        blk32 = pa.array(enc["blk_bounds"].astype(np.int32))

        def ilist(flat: np.ndarray) -> pa.Array:
            return pa.ListArray.from_arrays(blk32, pa.array(flat, pa.int64()))

        zero_bounds = np.zeros(n_terms + 1, dtype=np.int64)
        empty_list = pa.ListArray.from_arrays(
            pa.array(np.zeros(n_terms + 1, np.int32)), pa.array([], pa.int64())
        )
        return pa.table(
            {
                "field": pa.array([field_name] * n_terms, pa.string()),
                "term": pa.array(uniques[pair_term[term_starts]], pa.string()),
                "df": pa.array(enc["df"], pa.int64()),
                "cf": pa.array(enc["cf"], pa.int64()),
                "doc_blob": lbin(enc["doc_blob"], enc["term_doc_bounds"]),
                "pos_blob": (
                    lbin(enc["pos_blob"], enc["term_pos_bounds"])
                    if has_pos
                    else lbin(b"", zero_bounds)
                ),
                "block_last_doc": ilist(enc["block_last_doc"]),
                "block_off": ilist(enc["block_off"]),
                "pos_off": ilist(
                    enc["pos_off"] if has_pos else np.zeros(n_blocks, np.int64)
                ),
                "block_doc_count": ilist(enc["block_doc_count"]),
                "off_blob": lbin(b"", zero_bounds),
                "off_off": empty_list,
                "pay_blob": lbin(b"", zero_bounds),
                "pay_off": empty_list,
            }
        ).cast(TERMS_SCHEMA)

    rows = []
    for ts_i, te_i in zip(term_starts, term_ends):
        t_docs = pair_doc[ts_i:te_i]
        t_tfs = tf[ts_i:te_i]
        t_pos = (
            pos_s[occ_starts[ts_i]: occ_ends[te_i - 1]] if with_positions else None
        )
        t_offs = (
            (
                offs_s[0][occ_starts[ts_i]: occ_ends[te_i - 1]],
                offs_s[1][occ_starts[ts_i]: occ_ends[te_i - 1]],
            )
            if offs_s is not None
            else None
        )
        t_pays = (
            list(pays_s[occ_starts[ts_i]: occ_ends[te_i - 1]])
            if pays_s is not None
            else None
        )
        blob = encode_postings(t_docs, t_tfs, t_pos, t_offs, t_pays)
        rows.append(
            {
                "field": field_name,
                "term": str(uniques[pair_term[ts_i]]),
                "df": int(t_docs.size),
                "cf": int(t_tfs.sum()),
                "doc_blob": blob.doc_blob,
                "pos_blob": blob.pos_blob,
                "block_last_doc": blob.block_last_doc.tolist(),
                "block_off": blob.block_off.tolist(),
                "pos_off": blob.pos_off.tolist(),
                "block_doc_count": blob.block_doc_count.tolist(),
                "off_blob": blob.off_blob,
                "off_off": blob.off_off.tolist() if blob.off_off is not None else [],
                "pay_blob": blob.pay_blob,
                "pay_off": blob.pay_off.tolist() if blob.pay_off is not None else [],
            }
        )
    return pa.Table.from_pylist(rows, schema=TERMS_SCHEMA)


def build_segment_tables(
    rows: pa.Table, cfg: IndexConfig, cpu: dict | None = None
) -> tuple[pa.Table, pa.Table, dict]:
    """Build (terms, docs, field_stats) for one partition's rows.

    ``rows`` must contain conv_id, turn_idx and the configured fields; they
    are sorted by (conv_id, turn_idx) here for stable dense doc ids 1..n.
    Key columns are normalized to the pinned transcript types (conv_id
    string, turn_idx int32) so every segment of an index shares one doc
    schema — mixed-width keys from ad-hoc update batches would otherwise
    break cross-segment result concat.

    Every field becomes an occurrence stream in (doc, pos) order — sorted
    term codes, doc ids, positions — and ``_postings_from_codes`` groups
    and encodes it.  The plain `text` analyzer on ASCII text and string
    keyword fields get their codes from Arrow kernels
    (``explode_text_arrow``, ``dictionary_encode``); other analyzers and
    field kinds tokenize in python and factorize.  ``cpu``, when given,
    receives the process CPU seconds of the two layers: ``analyze``
    (sort, tokenize, term codes) and ``group_encode`` (grouping, posting
    encode, terms/docs table assembly), plus ``encode``, the part of
    ``group_encode`` spent in ``codec.encode_postings_bulk`` (absent when
    every field takes the per-term offsets/payloads encode).
    """
    clock = _CpuLaps()
    i = rows.schema.get_field_index("turn_idx")
    if rows.schema.field(i).type != pa.int32():
        rows = rows.set_column(i, "turn_idx", rows["turn_idx"].cast(pa.int32()))
    i = rows.schema.get_field_index("conv_id")
    if rows.schema.field(i).type != pa.string():
        rows = rows.set_column(i, "conv_id", rows["conv_id"].cast(pa.string()))
    rows = rows.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    n = rows.num_rows
    doc_ids = np.arange(1, n + 1, dtype=np.int64)
    analyzer = cfg.make_analyzer()

    term_tables: list[pa.Table] = []
    field_stats: dict[str, dict] = {}

    def add(field_name, codes, uniques, doc_rep, pos, with_positions=False,
            offs=None, pays=None):
        clock.lap("analyze")
        if codes.size:
            term_tables.append(_postings_from_codes(
                field_name, codes, uniques, doc_rep, pos, with_positions, offs, pays,
                clock,
            ))
        clock.lap("group_encode")

    # arrow-native tokenize fast path (C++ kernels) for the plain pinned
    # analyzer on ASCII batches — token-identical to the python path
    # (tests/test_analysis.py asserts parity); python fallback otherwise
    exploded = None
    if (
        cfg.analyzer == "text"
        and isinstance(analyzer, TextAnalyzer)
        and not analyzer.stopwords
        and analyzer.stem is None
    ):
        exploded = explode_text_arrow(rows[cfg.text_field])

    if cfg.offsets and not isinstance(analyzer, TextAnalyzer):
        raise ValueError(
            f"offsets=True needs a span-tracking analyzer; {cfg.analyzer!r} "
            "does not expose the offs attribute (only `text` does)"
        )
    if cfg.payloads and not hasattr(analyzer, "with_payloads"):
        raise ValueError(
            f"payloads=True needs a payload-emitting analyzer; {cfg.analyzer!r} "
            "does not expose the payload attribute (use `delimited_payload`)"
        )

    if exploded is not None:
        flat, parent, dls = exploded
        offs = None
        if cfg.offsets:
            from iresearch_ray.functions.analysis import token_spans_ascii

            # explode_text_arrow succeeded ⇒ all-ASCII, so the vectorized
            # byte-run span pass is token-parallel to `flat`
            offs = token_spans_ascii(rows[cfg.text_field])
        add(cfg.text_field, *_sorted_codes(flat), doc_ids[parent], _positions(dls),
            cfg.positions, offs)
    else:
        texts = rows[cfg.text_field].to_pylist()
        pays = None
        offs = None
        if cfg.payloads:
            tp_lists = analyzer.with_payloads(texts)
            token_lists = [[t for t, _ in tp] for tp in tp_lists]
            pays = np.array(
                [p for tp in tp_lists for _, p in tp], dtype=object
            )
        elif cfg.offsets:
            span_lists = analyzer.tokenize_with_spans(texts)
            token_lists = [[t for t, _, _ in sp] for sp in span_lists]
            o_start = np.fromiter(
                (s for sp in span_lists for _, s, _ in sp), dtype=np.int64
            )
            o_end = np.fromiter(
                (e for sp in span_lists for _, _, e in sp), dtype=np.int64
            )
            offs = (o_start, o_end)
        else:
            token_lists = analyzer(texts)
        dls = np.fromiter((len(t) for t in token_lists), dtype=np.int64, count=n)
        add(cfg.text_field, *_occurrences(token_lists, doc_ids), cfg.positions,
            offs, pays)
    field_stats[cfg.text_field] = {
        # docs_with_field counts docs producing >=1 token (null/empty text has
        # no tokens => field absent, matching the reference's field semantics)
        "docs_with_field": int((dls > 0).sum()),
        "total_term_freq": int(dls.sum()),
    }

    kw = get_analyzer("keyword")
    for f in cfg.keyword_fields:
        if f not in rows.column_names:
            continue
        col = rows[f].combine_chunks()
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            # the keyword analyzer's one token per non-null value, "" included
            valid = col.is_valid().to_numpy(zero_copy_only=False)
            kw_dls = valid.astype(np.int64)
            add(f, *_sorted_codes(col.drop_null()), doc_ids[valid],
                np.zeros(int(kw_dls.sum()), np.int64))
        else:
            kw_lists = kw(col.to_pylist())
            kw_dls = np.fromiter((len(t) for t in kw_lists), dtype=np.int64, count=n)
            add(f, *_occurrences(kw_lists, doc_ids))
        field_stats[f] = {
            "docs_with_field": int((kw_dls > 0).sum()),
            "total_term_freq": int(kw_dls.sum()),
        }

    for f in cfg.numeric_fields:
        if f not in rows.column_names:
            continue
        col = rows[f]
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        vals = np.where(valid, col.to_numpy(zero_copy_only=False), 0).astype(np.int64)
        all_terms = numeric_trie_terms(vals)
        num_lists = [t if ok else [] for t, ok in zip(all_terms, valid)]
        add(f, *_occurrences(num_lists, doc_ids))
        field_stats[f] = {
            "docs_with_field": int(valid.sum()),
            "total_term_freq": int(valid.sum()),
        }

    for f in cfg.geo_fields:
        if f not in rows.column_names:
            continue
        from iresearch_ray.functions.geo import GeoPointAnalyzer

        geo_lists = GeoPointAnalyzer(cfg.geo_precision)(rows[f].to_pylist())
        geo_dls = np.fromiter(
            (1 if t else 0 for t in geo_lists), dtype=np.int64, count=n
        )  # one point per doc regardless of prefix fan-out
        add(f, *_occurrences(geo_lists, doc_ids))
        field_stats[f] = {
            "docs_with_field": int(geo_dls.sum()),
            "total_term_freq": int(geo_dls.sum()),
        }

    for f in cfg.json_fields:
        if f not in rows.column_names:
            continue
        from iresearch_ray.functions.dynamic import (
            dynamic_postings,
            numeric_token_lists,
        )

        kw_fields, num_fields = dynamic_postings(f, rows[f].to_pylist(), n)
        for dyn, lists in sorted(kw_fields.items()):
            d_dls = np.fromiter((len(t) for t in lists), dtype=np.int64, count=n)
            add(dyn, *_occurrences(lists, doc_ids))
            field_stats[dyn] = {
                "docs_with_field": int((d_dls > 0).sum()),
                "total_term_freq": int(d_dls.sum()),
            }
        for dyn, (occ_rows, occ_vals) in sorted(num_fields.items()):
            lists = numeric_token_lists(occ_rows, occ_vals, n)
            d_dls = np.bincount(occ_rows, minlength=n).astype(np.int64)
            add(dyn, *_occurrences(lists, doc_ids))
            stats = field_stats.setdefault(
                dyn, {"docs_with_field": 0, "total_term_freq": 0}
            )  # a path can be string in one doc, number in another
            stats["docs_with_field"] += int((d_dls > 0).sum())
            stats["total_term_freq"] += int(occ_rows.size)

    term_tables = [t for t in term_tables if t.num_rows]
    if term_tables:
        cat = pa.concat_tables(term_tables)
        # stable (field, term) order with insertion-order tiebreak — exactly
        # the old python list.sort(); two dynamic-JSON passes can emit the
        # same field name, so the tiebreak pins a deterministic layout
        cat = cat.append_column(
            "__seq", pa.array(np.arange(cat.num_rows, dtype=np.int64))
        )
        cat = cat.sort_by(
            [("field", "ascending"), ("term", "ascending"), ("__seq", "ascending")]
        )
        terms = cat.drop_columns(["__seq"])
    else:
        terms = TERMS_SCHEMA.empty_table()

    doc_cols: dict[str, pa.Array | pa.ChunkedArray] = {
        "doc_id": pa.array(doc_ids, pa.int64()),
        "conv_id": rows["conv_id"],
        "turn_idx": rows["turn_idx"],
        "dl": pa.array(dls, pa.int64()),
    }
    for extra in (*cfg.keyword_fields, *cfg.numeric_fields,
                  *cfg.json_fields, *cfg.geo_fields, "ts"):
        if extra in rows.column_names:
            doc_cols[extra] = rows[extra]
    if cfg.store_text:
        doc_cols[cfg.text_field] = rows[cfg.text_field]
    docs = pa.table(doc_cols)
    clock.lap("group_encode")
    if cpu is not None:
        cpu.update(clock.secs)
    return terms, docs, field_stats


def segment_content_key(rows: pa.Table, cfg: "IndexConfig | None" = None,
                        crypto=None) -> str:
    """Deterministic content hash of a partition — names the segment dir so
    retries/resume are idempotent (SURVEY §4.1 retries, §4.3 layout).

    Hashes EVERY column's values (sorted by the primary key) plus the index
    config: a resume/retry hit by name therefore guarantees the existing
    segment was built from identical rows under identical analysis.  (The
    v1 key hashed only (conv_id, turn_idx), so editing a turn's text or
    changing the analyzer silently reused stale segments.)  Vectorized:
    crc32 over the canonical string-cast column buffers, no per-row loop."""
    import pyarrow.compute as _pc

    t = rows.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    crc = zlib.crc32(str(t.num_rows).encode())
    if cfg is not None:
        crc = zlib.crc32(json.dumps(cfg.to_json(), sort_keys=True).encode(), crc)
    if crypto is not None:
        # the encryption MODE is part of segment identity: a same-content
        # plaintext segment must never satisfy an encrypted build's
        # idempotent write (or vice versa).  The key FINGERPRINT (public
        # HMAC-SHA256 derivation stored in meta anyway — never raw key
        # material) is included so rotating the master key under a reused
        # key_id yields a NEW segment name instead of idempotently reusing
        # the old-key dir (ADVICE r3)
        crc = zlib.crc32(
            f"enc:{crypto.key_id}:{crypto.key_fingerprint}".encode(), crc
        )
    for name in sorted(t.column_names):
        col = t[name]
        try:
            col = _pc.cast(col, pa.string())
        except pa.ArrowNotImplementedError:
            col = pa.array([str(v) for v in col.to_pylist()], pa.string())
        col = _pc.fill_null(col, "\x02null")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        crc = zlib.crc32(name.encode(), crc)
        for buf in col.buffers()[1:]:  # offsets + data fully determine values
            if buf is not None:
                crc = zlib.crc32(buf, crc)
    return f"{crc:08x}"


def terms_paths(seg_dir: str) -> list[str]:
    """Ordered parquet paths of the segment's terms table — a single
    ``terms.parquet`` or the ``terms/part-*.parquet`` range partitions
    (concat in this order = the term-sorted table)."""
    p = os.path.join(seg_dir, "terms.parquet")
    if os.path.exists(p):
        return [p]
    d = os.path.join(seg_dir, "terms")
    return [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]


def docs_paths(seg_dir: str) -> list[str]:
    """Ordered parquet paths of the segment's docs table (single file or
    rank partitions; concat in this order = the doc-id-sorted table)."""
    p = os.path.join(seg_dir, "docs.parquet")
    if os.path.exists(p):
        return [p]
    d = os.path.join(seg_dir, "docs")
    return [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]


def _fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_segment_dir(
    index_dir: str,
    name: str,
    tmp_dir: str,
    meta: dict,
    fsync_data: bool = True,
) -> dict:
    """Atomically publish a fully-written tmp segment dir: write+fsync
    meta.json, fsync data files/dirs, rename into ``segments/`` and fsync
    the parent (the two-phase-commit analog at segment granularity,
    SURVEY §2.3).  ``fsync_data=False`` when the writers (e.g. distributed
    merge tasks) already fsynced their own part files — only the
    directories are synced then.  Concurrent-retry safe: losing the rename
    to an identical-content winner is a success."""
    seg_dir = os.path.join(index_dir, "segments", name)
    with open(os.path.join(tmp_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    # fsync BEFORE the publishing rename: the manifest commit is fsynced, so
    # a committed generation must never reference segment files whose data
    # could be lost behind it after power loss
    for root, dirs, files in os.walk(tmp_dir):
        if fsync_data:
            for fname in files:
                if fname != "meta.json":
                    _fsync_path(os.path.join(root, fname))
        for dname in dirs:
            _fsync_path(os.path.join(root, dname))
    _fsync_path(tmp_dir)
    os.makedirs(os.path.dirname(seg_dir), exist_ok=True)
    try:
        os.rename(tmp_dir, seg_dir)
    except OSError:
        if not os.path.exists(os.path.join(seg_dir, "meta.json")):
            raise
        # concurrent retry won the rename — identical content, drop ours
        import shutil

        shutil.rmtree(tmp_dir, ignore_errors=True)
        return meta
    pfd = os.open(os.path.dirname(seg_dir), os.O_RDONLY)
    try:
        os.fsync(pfd)  # persist the rename itself
    finally:
        os.close(pfd)
    return meta


def write_segment(
    index_dir: str,
    name: str,
    terms: pa.Table,
    docs: pa.Table,
    field_stats: dict,
    cfg: IndexConfig,
    lineage: dict | None = None,
    metrics: dict | None = None,
    crypto=None,
) -> dict:
    """Write a single-file segment dir atomically and return its meta entry.
    With ``crypto`` (state/crypto.IndexEncryption), terms/docs pages are
    AES-GCM ciphertext at rest (SURVEY §2.2 encryption).  The process CPU
    of the two table writes lands in ``metrics["write_cpu_secs"]``."""
    seg_dir = os.path.join(index_dir, "segments", name)
    if os.path.isdir(seg_dir) and os.path.exists(os.path.join(seg_dir, "meta.json")):
        with open(os.path.join(seg_dir, "meta.json")) as f:
            return json.load(f)  # idempotent retry / resume hit
    c0 = time.process_time()
    tmp_dir = os.path.join(index_dir, "_tmp", f"{name}-{os.getpid()}-{next(_STAGE_SEQ)}")
    os.makedirs(tmp_dir, exist_ok=True)
    if crypto is not None:
        crypto.write_table(terms, os.path.join(tmp_dir, "terms.parquet"))
        crypto.write_table(docs, os.path.join(tmp_dir, "docs.parquet"))
    else:
        # posting blobs are unique per row — dictionary encoding only burns
        # CPU; row-group statistics are never consulted on segment files
        # (our readers load whole columns; only stats-g*.parquet is probed
        # with predicate pushdown).  ~25% write CPU off every segment.
        pq.write_table(
            terms,
            os.path.join(tmp_dir, "terms.parquet"),
            use_dictionary=False,
            write_statistics=False,
        )
        pq.write_table(
            docs,
            os.path.join(tmp_dir, "docs.parquet"),
            use_dictionary=False,
            write_statistics=False,
        )
    meta = {
        "name": name,
        "docs_count": int(docs.num_rows),
        "field_stats": field_stats,
        "terms_count": int(terms.num_rows),
        "min_key": [str(docs["conv_id"][0]), int(docs["turn_idx"][0].as_py())]
        if docs.num_rows
        else None,
        "max_key": [str(docs["conv_id"][-1]), int(docs["turn_idx"][-1].as_py())]
        if docs.num_rows
        else None,
        "bytes": sum(
            os.path.getsize(os.path.join(tmp_dir, f))
            for f in ("terms.parquet", "docs.parquet")
        ),
        "config": cfg.to_json(),
        "lineage": lineage or {},
        "metrics": {**(metrics or {}),
                    "write_cpu_secs": round(time.process_time() - c0, 4)},
        "encrypted": getattr(crypto, "key_id", None),
        # key-bytes fingerprint: resume compares this, not just key_id, so a
        # rotated master key under a reused id forces a rebuild (ADVICE r3)
        "key_fp": getattr(crypto, "key_fingerprint", None),
    }
    return publish_segment_dir(index_dir, name, tmp_dir, meta)


class SegmentReader:
    """Point-in-time reader over one immutable segment dir (ref:
    core/index/segment_reader.hpp).  Every artifact loads lazily on first
    use and stays cached: the terms table, each docs column on its own
    (``doc_column`` reads one column, so ``dl``/``conv_id``/``turn_idx``
    never pull the stored text in), the docs schema from the parquet
    footer alone (``docs_schema``), the structures derived from them
    (``memo``: per-field term index, doc lengths, doc keys, ...) and
    decoded postings.  ``docs`` assembles the whole table from the same
    column cache for callers that need every column (merges, the build's
    text check).

    The first docs access opens one handle per docs parquet file and keeps
    it, so columns first read after a gc unlinked the segment dir still
    load through the open file (the refcounted-file analog).

    A segment's files never change, so one reader can serve every
    generation that lists the segment: ``Searcher`` takes its readers
    from the process-level cache (``open_readers``), and a refresh
    re-reads only new segments.  A QueryPool actor keeps its shard's
    readers so the load happens once per worker (SURVEY §3.2)."""

    # decoded-postings cache budget per reader (hot terms decode once —
    # the posting-cache analog of the reference's OS page cache reuse).
    # Sized so a serving actor holding a handful of segment shards keeps
    # the Zipf head (including hot-term POSITION arrays, which run tens of
    # MB over ~10⁶-doc segments) resident; entries up to budget/4 qualify.
    # Eviction is LRU — FIFO thrashed hot entries on repeated batches
    # (observed: identical warm batches at 10 s → 4 s → 1.6 s as the FIFO
    # slowly converged; LRU converges on the first pass).
    POSTING_CACHE_BYTES = 256 << 20

    def __init__(self, seg_dir: str, cache_bytes: int | None = None, crypto=None):
        self.seg_dir = seg_dir
        self.crypto = crypto
        self._cache_budget = cache_bytes if cache_bytes is not None else self.POSTING_CACHE_BYTES
        self._terms: pa.Table | None = None
        self._docs_files: list[pq.ParquetFile] | None = None
        self._docs_schema: pa.Schema | None = None
        self._doc_cols: dict[str, pa.ChunkedArray] = {}
        self._docs_lock = threading.RLock()
        self._meta: dict | None = None
        self._memos: dict = {}
        self._memo_bytes = 0
        self._posting_cache: "collections.OrderedDict[int, tuple]" = collections.OrderedDict()
        self._posting_cache_bytes = 0
        self._posting_cols: PostingColumns | None = None

    def loaded_bytes(self) -> int:
        """Approximate memory held by what this reader has loaded so far:
        the terms table, docs columns, memos and the posting cache.  Grows
        as queries touch more of the segment."""
        n = self._posting_cache_bytes + self._memo_bytes
        n += sum(c.nbytes for c in self._doc_cols.values())
        if self._terms is not None:
            n += self._terms.nbytes
        return n

    def memo(self, key, build):
        """Per-reader memo of a structure derived from the segment:
        ``build()`` runs on the first call per ``key`` and returns an array
        or a tuple of arrays, whose bytes count in ``loaded_bytes``."""
        hit = self._memos.get(key)
        if hit is None:
            hit = self._memos[key] = build()
            self._memo_bytes += sum(
                _array_bytes(a) for a in (hit if isinstance(hit, tuple) else (hit,))
            )
        return hit

    def cached(self, key):
        """The posting-cache entry under ``key`` (a tuple of arrays), or
        None; a hit becomes the most recently used entry."""
        hit = self._posting_cache.get(key)
        if hit is not None:
            self._posting_cache.move_to_end(key)
        return hit

    def cache_put(self, key, out: tuple) -> None:
        """Keep ``out`` under ``key`` in the byte-bounded posting LRU,
        evicting the least recently used entries to make room."""
        if key in self._posting_cache:
            return
        nbytes = sum(getattr(a, "nbytes", 0) for a in out)
        # per-item cap budget//2 (was //4): a consolidated mega-segment's
        # hottest stopword token-offset array (one int64 per occurrence) is
        # the single most expensive decode (~100s of MB); caching it turns
        # every repeat phrase query's dominant cost into a zero-copy hit,
        # at worst evicting everything else once
        if nbytes < self._cache_budget // 2:
            while (
                self._posting_cache
                and self._posting_cache_bytes + nbytes > self._cache_budget
            ):
                _k, old = self._posting_cache.popitem(last=False)  # LRU evict
                self._posting_cache_bytes -= sum(getattr(a, "nbytes", 0) for a in old)
            self._posting_cache[key] = out
            self._posting_cache_bytes += nbytes

    def cached_postings(self, key, decode):
        """The tuple of arrays derived from one term row under ``key`` (a
        term's token offsets, ...), from the byte-bounded LRU or from
        ``decode()`` on a miss."""
        hit = self.cached(key)
        if hit is None:
            hit = decode()
            self.cache_put(key, hit)
        return hit

    def bulk_postings(self, rows: list[int]) -> dict[int, tuple]:
        """Decoded (docs, tfs) for MANY term rows: the rows the posting
        cache misses decode together in ONE varint pass over numpy views
        of the terms table (``codec.decode_postings_bulk``) — the read path
        of every term leg, a wildcard's hundreds of terms included."""
        out: dict[int, tuple] = {}
        need: list[int] = []
        for r in dict.fromkeys(rows):
            hit = self.cached(r)
            if hit is not None:
                out[r] = hit
            else:
                need.append(r)
        if need:
            if self._posting_cols is None:
                # views of the terms table: its bytes already count in
                # loaded_bytes, so this is not a memo
                self._posting_cols = PostingColumns.of(
                    self.terms["doc_blob"], self.terms["block_doc_count"]
                )
            decoded = decode_postings_bulk(self._posting_cols, need)
            for r, hit in zip(need, decoded):
                self.cache_put(r, hit)
                out[r] = hit
        return out

    @property
    def meta(self) -> dict:
        if self._meta is None:
            with open(os.path.join(self.seg_dir, "meta.json")) as f:
                self._meta = json.load(f)
        return self._meta

    @property
    def terms(self) -> pa.Table:
        if self._terms is None:
            # memory_map: decompressed columns still allocate, but the raw
            # parquet pages come off the page cache without a user-space copy
            # (the mmap_directory analog — SURVEY §2.2).  Multi-part layout
            # (range-partitioned shuffle-merge output) concats in part order,
            # which IS the global (field, term) order.
            paths = terms_paths(self.seg_dir)
            tables = [self._read_parquet(p) for p in paths]
            self._terms = tables[0] if len(tables) == 1 else pa.concat_tables(tables)
        return self._terms

    def _check_key(self) -> None:
        if self.crypto is None and self.meta.get("encrypted"):
            raise PermissionError(
                f"segment {self.seg_dir} is encrypted (key id "
                f"{self.meta['encrypted']!r}); pass IndexEncryption to the reader"
            )

    def _read_parquet(self, path: str) -> pa.Table:
        from iresearch_ray.state.crypto import read_parquet_any

        self._check_key()
        return read_parquet_any(path, self.crypto)

    def _docs_handles(self) -> list[pq.ParquetFile]:
        """One open handle per docs parquet file, opened on first docs
        access and kept for the reader's life."""
        with self._docs_lock:
            if self._docs_files is None:
                from iresearch_ray.state.crypto import parquet_file_any

                self._check_key()
                files = [parquet_file_any(p, self.crypto) for p in docs_paths(self.seg_dir)]
                self._docs_schema = files[0].schema_arrow
                self._docs_files = files
            return self._docs_files

    @property
    def docs_schema(self) -> pa.Schema:
        """Schema of the docs table, read from the parquet footer only —
        answers "is this field stored" without reading any column."""
        if self._docs_schema is None:
            self._docs_handles()
        return self._docs_schema

    def _load_doc_columns(self, names: list[str]) -> None:
        """Read the ``names`` not loaded yet, in one projected read per
        docs file."""
        with self._docs_lock:
            need = [n for n in names if n not in self._doc_cols]
            if not need:
                return
            tables = [f.read(columns=need) for f in self._docs_handles()]
            for n in need:
                self._doc_cols[n] = pa.chunked_array(
                    [c for t in tables for c in t[n].chunks],
                    type=tables[0].schema.field(n).type,
                )

    def doc_column(self, name: str) -> pa.ChunkedArray:
        """One docs column in doc-id order, read on first use (the other
        columns stay on disk)."""
        col = self._doc_cols.get(name)
        if col is None:
            self._load_doc_columns([name])
            col = self._doc_cols[name]
        return col

    @property
    def docs(self) -> pa.Table:
        """The whole docs table, every stored column included."""
        schema = self.docs_schema
        self._load_doc_columns(schema.names)
        return pa.table([self._doc_cols[n] for n in schema.names], schema=schema)

    def field_terms(self, field_name: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted term strings, row indices into terms table) for a field —
        the term-dictionary seek structure (FST analog is binary search over
        the term-sorted column, SURVEY §2.4 by_term)."""
        return self.memo(("field_terms", field_name), lambda: self._field_terms(field_name))

    def _field_terms(self, field_name: str) -> tuple[np.ndarray, np.ndarray]:
        fields = self.terms["field"].to_pandas().to_numpy(dtype=object)
        idx = np.flatnonzero(fields == field_name)
        return self.terms["term"].to_pandas().to_numpy(dtype=object)[idx], idx

    def term_row(self, field_name: str, term: str) -> int | None:
        terms, idx = self.field_terms(field_name)
        i = np.searchsorted(terms, term)
        if i < terms.size and terms[i] == term:
            return int(idx[i])
        return None

    @property
    def dls(self) -> np.ndarray:
        return self.memo("dls", lambda: self.doc_column("dl").to_numpy())

    @property
    def doc_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """(conv_id object array, turn_idx array) cached once per reader —
        the hot result-materialization path indexes these by position."""
        return self.memo("doc_keys", lambda: (
            self.doc_column("conv_id").to_pandas().to_numpy(dtype=object),
            self.doc_column("turn_idx").to_numpy(zero_copy_only=False),
        ))


def _array_bytes(a: np.ndarray) -> int:
    """Bytes held by an array.  An object array holds pointers to Python
    objects; their size is an estimate: the mean ``sys.getsizeof`` of up
    to 64 evenly spaced elements, times the length.  Objects shared with
    another array (deduplicated conv ids) are counted again, so the
    estimate errs high."""
    n = a.nbytes
    if a.dtype == object and a.size:
        sample = a[:: max(1, a.size // 64)][:64]
        n += a.size * sum(map(sys.getsizeof, sample)) // sample.size
    return n


# Process-level cache of SegmentReaders shared by every Searcher (the
# directory_reader reopen analog, SURVEY §3.2): a refresh onto a new
# generation reuses the loaded term index, doc columns and posting caches
# of every segment it shares with an older one.  Bounded by the summed
# ``loaded_bytes`` of the cached readers; an evicted reader stays usable
# by whoever still holds it.
READER_CACHE_BYTES = 1 << 30

_READERS: "collections.OrderedDict[tuple, SegmentReader]" = collections.OrderedDict()
_READERS_LOCK = threading.Lock()


def _disk_identity(seg_dir: str) -> tuple | None:
    """(inode, mtime_ns, size) of meta.json and the terms table: a segment
    rebuilt into a reused ``seg-`` name gets new files, so a new identity
    (the size guards a freed inode reused within one mtime tick).  None
    when the segment is missing."""
    terms = os.path.join(seg_dir, "terms.parquet")
    if not os.path.exists(terms):
        terms = os.path.join(seg_dir, "terms")
    try:
        return tuple(
            (st.st_ino, st.st_mtime_ns, st.st_size)
            for st in (os.stat(os.path.join(seg_dir, "meta.json")), os.stat(terms))
        )
    except FileNotFoundError:
        return None


def open_readers(seg_dirs: list[str], crypto=None) -> list[SegmentReader]:
    """Readers for ``seg_dirs`` from the process-level cache, opening the
    ones not cached yet.  The key holds the key id AND the key-bytes
    fingerprint, so a reader decrypted with one key is never handed to a
    caller with another key (or none) under the same id.  Weights are
    re-measured on every call (posting caches grow after insertion) and
    the least recently used readers are dropped past READER_CACHE_BYTES."""
    key_id = getattr(crypto, "key_id", None)
    key_fp = crypto.key_fingerprint if crypto is not None else None
    out = []
    with _READERS_LOCK:
        for d in seg_dirs:
            d = os.path.abspath(d)
            ident = _disk_identity(d)
            if ident is None:
                # uncached: fails on first read, as an uncached reader would
                out.append(SegmentReader(d, crypto=crypto))
                continue
            key = (d, ident, key_id, key_fp)
            r = _READERS.get(key)
            if r is None:
                for stale in [k for k in _READERS if k[0] == d and k[1] != ident]:
                    del _READERS[stale]  # files replaced: never hit again
                r = _READERS[key] = SegmentReader(d, crypto=crypto)
            else:
                _READERS.move_to_end(key)
            out.append(r)
        total = sum(r.loaded_bytes() for r in _READERS.values())
        while total > READER_CACHE_BYTES and len(_READERS) > 1:
            _k, old = _READERS.popitem(last=False)
            total -= old.loaded_bytes()
    return out


def evict_readers(seg_dirs: list[str]) -> None:
    """Drop every cached reader of ``seg_dirs`` (their files are gone)."""
    gone = {os.path.abspath(d) for d in seg_dirs}
    with _READERS_LOCK:
        for k in [k for k in _READERS if k[0] in gone]:
            del _READERS[k]
