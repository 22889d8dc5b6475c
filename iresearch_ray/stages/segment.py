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

Posting accumulation (ref: core/index/field_data.cpp byte_block_pool) is
re-expressed as a single vectorized factorize/lexsort pass over the exploded
(token, doc, position) arrays — no per-row python dict in the hot path.
"""

from __future__ import annotations

import itertools
import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray.functions.analysis import TextAnalyzer, explode_text_arrow, get_analyzer
from iresearch_ray.functions.numeric import trie_terms as numeric_trie_terms
from iresearch_ray.functions.codec import encode_postings

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


def _postings_for_field(
    field_name: str,
    term_lists: list[list[str]],
    doc_ids: np.ndarray,
    with_positions: bool,
    offs: tuple[np.ndarray, np.ndarray] | None = None,
    pays: np.ndarray | None = None,
) -> pa.Table:
    """Vectorized postings for one field (returns a TERMS_SCHEMA table):
    explode → factorize → lexsort → bulk encode.
    ``offs`` = flat (char_start, char_end) arrays parallel to the exploded
    occurrence stream (doc order, position order) when indexing offsets;
    ``pays`` = object array of per-occurrence payload bytes, same order."""
    lens = np.fromiter((len(t) for t in term_lists), dtype=np.int64, count=len(term_lists))
    total = int(lens.sum())
    if total == 0:
        return TERMS_SCHEMA.empty_table()
    flat = [t for toks in term_lists for t in toks]
    doc_rep = np.repeat(doc_ids, lens)
    # position of each occurrence within its doc
    starts = np.cumsum(lens) - lens
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
    codes, uniques = pd.factorize(np.asarray(flat, dtype=object), sort=True)
    return _postings_from_codes(
        field_name, codes, uniques, doc_rep, pos, with_positions, offs, pays
    )


def _postings_from_codes(
    field_name: str,
    codes: np.ndarray,
    uniques,
    doc_rep: np.ndarray,
    pos: np.ndarray,
    with_positions: bool,
    offs: tuple[np.ndarray, np.ndarray] | None = None,
    pays: np.ndarray | None = None,
) -> pa.Table:
    """Grouping + encode tail shared by the python and arrow tokenize paths:
    ``codes`` are sorted-term integer codes per occurrence, ``uniques`` the
    sorted term strings."""
    total = codes.size
    # group by (term, doc); positions already ascending within (doc) by construction
    order = np.lexsort((pos, doc_rep, codes))
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

        enc = encode_postings_bulk(
            pair_doc, tf, term_starts, term_ends,
            pos_s if with_positions else None,
        )
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
    rows: pa.Table, cfg: IndexConfig
) -> tuple[pa.Table, pa.Table, dict]:
    """Build (terms, docs, field_stats) for one partition's rows.

    ``rows`` must contain conv_id, turn_idx and the configured fields; they
    are sorted by (conv_id, turn_idx) here for stable dense doc ids 1..n.
    Key columns are normalized to the pinned transcript types (conv_id
    string, turn_idx int32) so every segment of an index shares one doc
    schema — mixed-width keys from ad-hoc update batches would otherwise
    break cross-segment result concat.
    """
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

    # arrow-native tokenize fast path (C++ kernels) for the plain pinned
    # analyzer on ASCII batches — token-identical to the python path
    # (tests/test_analysis.py asserts parity); python fallback otherwise
    exploded = None
    if (
        cfg.analyzer == "text"
        and isinstance(analyzer, TextAnalyzer)
        and not analyzer.stopwords
        and analyzer.stem is None
        and not os.environ.get("IRE_NO_ARROW_TOKENIZE")
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
        if len(flat):
            enc = flat.dictionary_encode()
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            uniq = enc.dictionary.to_pandas().to_numpy(dtype=object)
            # remap first-seen dictionary order to sorted-term codes
            sort_order = np.argsort(uniq, kind="stable")
            rank = np.empty(uniq.size, dtype=np.int64)
            rank[sort_order] = np.arange(uniq.size)
            codes = rank[codes]
            uniq = uniq[sort_order]
            # occurrence position within each doc (parent is nondecreasing)
            run_start = np.concatenate(([0], np.flatnonzero(np.diff(parent)) + 1))
            pos = np.arange(parent.size, dtype=np.int64) - np.repeat(
                run_start, np.diff(np.append(run_start, parent.size))
            )
            offs = None
            if cfg.offsets:
                from iresearch_ray.functions.analysis import token_spans_ascii

                # explode_text_arrow succeeded ⇒ all-ASCII, so the
                # vectorized byte-run span pass is token-parallel to `flat`
                offs = token_spans_ascii(rows[cfg.text_field])
            term_tables.append(_postings_from_codes(
                cfg.text_field,
                codes,
                uniq,
                doc_ids[parent],
                pos,
                cfg.positions,
                offs,
            ))
    else:
        texts = rows[cfg.text_field].to_pylist()
        pays = None
        if cfg.payloads:
            tp_lists = analyzer.with_payloads(texts)
            token_lists = [[t for t, _ in tp] for tp in tp_lists]
            pays = np.array(
                [p for tp in tp_lists for _, p in tp], dtype=object
            )
            offs = None
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
            offs = None
        dls = np.fromiter((len(t) for t in token_lists), dtype=np.int64, count=n)
        term_tables.append(_postings_for_field(
            cfg.text_field, token_lists, doc_ids, cfg.positions, offs, pays
        ))
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
        vals = rows[f].to_pylist()
        kw_lists = kw(vals)
        kw_dls = np.fromiter((len(t) for t in kw_lists), dtype=np.int64, count=n)
        term_tables.append(_postings_for_field(f, kw_lists, doc_ids, False))
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
        term_tables.append(_postings_for_field(f, num_lists, doc_ids, False))
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
        term_tables.append(
            _postings_for_field(f, geo_lists, doc_ids, False)
        )
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
            term_tables.append(_postings_for_field(dyn, lists, doc_ids, False))
            field_stats[dyn] = {
                "docs_with_field": int((d_dls > 0).sum()),
                "total_term_freq": int(d_dls.sum()),
            }
        for dyn, (occ_rows, occ_vals) in sorted(num_fields.items()):
            lists = numeric_token_lists(occ_rows, occ_vals, n)
            d_dls = np.bincount(occ_rows, minlength=n).astype(np.int64)
            term_tables.append(_postings_for_field(dyn, lists, doc_ids, False))
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
    AES-GCM ciphertext at rest (SURVEY §2.2 encryption)."""
    seg_dir = os.path.join(index_dir, "segments", name)
    if os.path.isdir(seg_dir) and os.path.exists(os.path.join(seg_dir, "meta.json")):
        with open(os.path.join(seg_dir, "meta.json")) as f:
            return json.load(f)  # idempotent retry / resume hit
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
        "metrics": metrics or {},
        "encrypted": getattr(crypto, "key_id", None),
        # key-bytes fingerprint: resume compares this, not just key_id, so a
        # rotated master key under a reused id forces a rebuild (ADVICE r3)
        "key_fp": getattr(crypto, "key_fingerprint", None),
    }
    return publish_segment_dir(index_dir, name, tmp_dir, meta)


class SegmentReader:
    """Point-in-time reader over one segment dir (ref:
    core/index/segment_reader.hpp).  Loads terms/docs tables lazily and keeps
    them cached — a QueryPool actor keeps its shard's readers so the load
    happens once per worker (SURVEY §3.2)."""

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
        import collections

        self.seg_dir = seg_dir
        self.crypto = crypto
        self._cache_budget = cache_bytes if cache_bytes is not None else self.POSTING_CACHE_BYTES
        self._terms: pa.Table | None = None
        self._docs: pa.Table | None = None
        self._meta: dict | None = None
        self._term_index: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._posting_cache: "collections.OrderedDict[int, tuple]" = collections.OrderedDict()
        self._posting_cache_bytes = 0

    def cached_postings(self, row: int, decode):
        """LRU decoded (docs, tfs) per term row, bounded by bytes."""
        hit = self._posting_cache.get(row)
        if hit is not None:
            self._posting_cache.move_to_end(row)
            return hit
        out = decode()
        nbytes = sum(getattr(a, "nbytes", 0) for a in out)
        # per-item cap budget//2 (was //4): a consolidated mega-segment's
        # hottest stopword POSITION array is the single most expensive
        # decode (~100s of MB); with the packed-key halving it now fits —
        # caching it turns every repeat phrase query's dominant cost into a
        # zero-copy hit, at worst evicting everything else once
        if nbytes < self._cache_budget // 2:
            while (
                self._posting_cache
                and self._posting_cache_bytes + nbytes > self._cache_budget
            ):
                _k, old = self._posting_cache.popitem(last=False)  # LRU evict
                self._posting_cache_bytes -= sum(getattr(a, "nbytes", 0) for a in old)
            self._posting_cache[row] = out
            self._posting_cache_bytes += nbytes
        return out

    def bulk_postings(self, rows: list[int]) -> dict[int, tuple]:
        """Decoded (docs, tfs) for MANY term rows with ONE Arrow take/
        to_pylist round-trip for the uncached blobs — the wide-multiterm
        read path (per-row .as_py() cell access dominates wall time when a
        wildcard expands to hundreds of terms).  Respects the posting
        cache."""
        from iresearch_ray.functions.codec import decode_postings

        out: dict[int, tuple] = {}
        need: list[int] = []
        for r in dict.fromkeys(rows):
            hit = self._posting_cache.get(r)
            if hit is not None:
                out[r] = hit
            else:
                need.append(r)
        if need:
            sub = self.terms.select(["doc_blob", "block_doc_count"]).take(pa.array(need))
            blobs = sub["doc_blob"].to_pylist()
            counts = sub["block_doc_count"].to_pylist()
            for r, blob, cnt in zip(need, blobs, counts):
                out[r] = self.cached_postings(
                    r,
                    lambda blob=blob, cnt=cnt: decode_postings(
                        blob, np.asarray(cnt, dtype=np.int64)
                    ),
                )
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

    def _read_parquet(self, path: str) -> pa.Table:
        from iresearch_ray.state.crypto import read_parquet_any

        if self.crypto is None and self.meta.get("encrypted"):
            raise PermissionError(
                f"segment {self.seg_dir} is encrypted (key id "
                f"{self.meta['encrypted']!r}); pass IndexEncryption to the reader"
            )
        return read_parquet_any(path, self.crypto)

    @property
    def docs(self) -> pa.Table:
        if self._docs is None:
            paths = docs_paths(self.seg_dir)
            tables = [self._read_parquet(p) for p in paths]
            self._docs = tables[0] if len(tables) == 1 else pa.concat_tables(tables)
        return self._docs

    def field_terms(self, field_name: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted term strings, row indices into terms table) for a field —
        the term-dictionary seek structure (FST analog is binary search over
        the term-sorted column, SURVEY §2.4 by_term)."""
        hit = self._term_index.get(field_name)
        if hit is None:
            fields = self.terms["field"].to_pandas().to_numpy(dtype=object)
            idx = np.flatnonzero(fields == field_name)
            terms = self.terms["term"].to_pandas().to_numpy(dtype=object)[idx]
            hit = (terms, idx)
            self._term_index[field_name] = hit
        return hit

    def term_row(self, field_name: str, term: str) -> int | None:
        terms, idx = self.field_terms(field_name)
        i = np.searchsorted(terms, term)
        if i < terms.size and terms[i] == term:
            return int(idx[i])
        return None

    @property
    def dls(self) -> np.ndarray:
        d = getattr(self, "_dls", None)
        if d is None:
            d = self.docs["dl"].to_numpy()
            self._dls = d
        return d

    @property
    def doc_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """(conv_id object array, turn_idx array) cached once per reader —
        the hot result-materialization path indexes these by position."""
        k = getattr(self, "_doc_keys", None)
        if k is None:
            k = (
                self.docs["conv_id"].to_pandas().to_numpy(dtype=object),
                self.docs["turn_idx"].to_numpy(zero_copy_only=False),
            )
            self._doc_keys = k
        return k
