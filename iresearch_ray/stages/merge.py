"""Segment merge — the merge_writer analog (SURVEY.md §3.3; ref:
core/index/merge_writer.cpp doc_map remap).

Doc spaces are CONCATENATED in segment-name order (the reference's behavior:
merged doc order = (source segment order, local doc id)); the doc-id remap is
a pure offset add per source.  Because every doc in a source shifts by the
same offset, within-block deltas are unchanged — so posting blobs are merged
by BYTE CONCATENATION, re-encoding only each source's first block (whose
first delta re-bases against the previous source's last doc for that term).
Positions blobs append completely unchanged.  This makes consolidation I/O
bound rather than CPU bound: no full decode/re-encode of the long tail.

The merged segment's blocks are therefore not uniformly 128 docs at source
seams; all decode paths honor ``block_doc_count`` (functions/codec.py).

Scale note (SURVEY §4.1 hot-term skew): this merge never shuffles by term —
each candidate set is one task doing a k-way dictionary merge, so Zipf-hot
terms cost sequential byte appends, not a skewed exchange.  The term-keyed
+ salted shuffle variant only pays off above ~dozens of sources; see
pipelines/consolidate.py notes.
"""

from __future__ import annotations

import time
import zlib

import numpy as np
import pyarrow as pa

from iresearch_ray.functions.codec import _varint_encode_widths, varint_encode
from iresearch_ray.stages.segment import (
    IndexConfig,
    SegmentReader,
    TERMS_SCHEMA,
    write_segment,
)


def _concat_term_postings(parts: list[tuple[dict, int]]) -> dict:
    """parts: [(term-row as python dict, doc_id offset)] in segment order.

    The offset remap only changes ONE value in each part's doc blob: the
    very first delta (doc₀ − 0 becomes doc₀ + offset − prev_last).  Every
    other delta, every tf and the whole positions stream are offset-
    invariant, so the merge splices a re-encoded first varint onto the
    untouched remainder — no block decode/re-encode at all (this is what
    keeps consolidation I/O-bound)."""
    out_doc = bytearray()
    out_pos = bytearray()
    out_offs = bytearray()
    bl_last: list[int] = []
    bl_off: list[int] = []
    p_off: list[int] = []
    o_off: list[int] = []
    bl_cnt: list[int] = []
    prev_last = 0
    # offsets/payloads survive the merge only if EVERY part carries them —
    # a mixed set would desync their block-offset lists
    keep_offs = all(r.get("off_blob") for r, _ in parts)
    keep_pays = all(r.get("pay_blob") for r, _ in parts)
    out_pay = bytearray()
    pay_off: list[int] = []
    for row, offset in parts:
        offs = row["block_off"]
        blob = row["doc_blob"]
        # parse the first varint (the part's first doc delta)
        i = 0
        while blob[i] & 0x80:
            i += 1
        first_len = i + 1
        first_val = 0
        for k in range(first_len):
            first_val |= (blob[k] & 0x7F) << (7 * k)
        new_first = first_val + offset - prev_last
        enc_first = varint_encode(np.array([new_first], dtype=np.uint64))
        shift = len(enc_first) - first_len
        base = len(out_doc)
        bl_off.append(base)
        for b in range(1, len(offs)):
            bl_off.append(base + offs[b] + shift)
        out_doc += enc_first
        out_doc += blob[first_len:]
        bl_last += [x + offset for x in row["block_last_doc"]]
        bl_cnt += list(row["block_doc_count"])
        pos_base = len(out_pos)
        p_off += [pos_base + x for x in row["pos_off"]]
        out_pos += row["pos_blob"]
        # character-offset stream: per-doc values, doc-id-invariant —
        # byte append exactly like positions
        if keep_offs:
            off_base = len(out_offs)
            o_off += [off_base + x for x in row["off_off"]]
            out_offs += row["off_blob"]
        if keep_pays:
            pay_base = len(out_pay)
            pay_off += [pay_base + x for x in row["pay_off"]]
            out_pay += row["pay_blob"]
        prev_last = bl_last[-1]
    return {
        "df": sum(r["df"] for r, _ in parts),
        "cf": sum(r["cf"] for r, _ in parts),
        "doc_blob": bytes(out_doc),
        "pos_blob": bytes(out_pos),
        "block_last_doc": bl_last,
        "block_off": bl_off,
        "pos_off": p_off,
        "block_doc_count": bl_cnt,
        "off_blob": bytes(out_offs),
        "off_off": o_off,
        "pay_blob": bytes(out_pay),
        "pay_off": pay_off,
    }


def splice_term_runs(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
    """Vectorized k-way posting splice over a term-run table — the whole-
    table form of :func:`_concat_term_postings` with NO per-row python
    objects (the profiled 7-way sf0.1 merge spent ~4 s of 6.5 s in
    ``to_pylist`` + per-term dict/list churn; this path reads the Arrow
    buffers directly and reassembles output columns with ``from_buffers``).

    ``t``: TERMS_SCHEMA columns + ``__off`` (per-row doc-id offset), rows
    sorted so equal-(field, term) rows are adjacent with parts in ascending
    doc-space order.  Returns (merged TERMS_SCHEMA table, run_starts) —
    ``run_starts`` indexes the input row that leads each output row (for
    callers carrying extra per-run columns).

    The only bytes rewritten are each part's FIRST doc-delta varint (same
    invariant as _concat_term_postings); position and offset streams are
    contiguous in the combined value buffer, so their merged blobs are
    zero-copy slices — list offsets are pure arithmetic.
    """
    n = t.num_rows
    if n == 0:
        return TERMS_SCHEMA.empty_table(), np.empty(0, np.int64)

    fields = t["field"].to_pandas().to_numpy(dtype=object)
    terms = t["term"].to_pandas().to_numpy(dtype=object)
    offs = t["__off"].to_numpy(zero_copy_only=False).astype(np.int64)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = (fields[1:] != fields[:-1]) | (terms[1:] != terms[:-1])
    run_starts = np.flatnonzero(new_run)
    n_runs = run_starts.size

    def _bin(col_name: str):
        """(value_offsets int64[n+1], data uint8[...]) of a large_binary
        column, compacted to this table's rows.  A column absent from the
        table entirely (segments written before the stream existed) reads
        as all-empty."""
        if col_name not in t.column_names:
            return np.zeros(n + 1, dtype=np.int64), np.empty(0, np.uint8)
        col = t[col_name]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if arr.null_count:  # nulls only from promote-concat of pre-offsets
            arr = arr.fill_null(b"")  # segments; normalize to empty
        if arr.offset:
            arr = arr.take(pa.array(np.arange(len(arr), dtype=np.int64)))
        vo = np.frombuffer(arr.buffers()[1], dtype=np.int64)[: n + 1]
        raw = arr.buffers()[2]
        data = (
            np.frombuffer(raw, dtype=np.uint8)[: int(vo[-1])]
            if raw is not None
            else np.empty(0, np.uint8)
        )
        return vo, data

    def _list(col_name: str):
        """(list_offsets int64[n+1], flat int64 values) of a list<int64>;
        absent column reads as all-empty lists."""
        if col_name not in t.column_names:
            return np.zeros(n + 1, dtype=np.int64), np.empty(0, np.int64)
        col = t[col_name]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if arr.null_count:
            arr = arr.fill_null([])
        lo = np.asarray(arr.offsets.to_numpy(zero_copy_only=False), dtype=np.int64)
        vals = np.asarray(arr.values.to_numpy(zero_copy_only=False), dtype=np.int64)
        lo0 = lo - lo[0]
        return lo0, vals[lo[0] : lo[-1]]

    dvo, ddata = _bin("doc_blob")
    row_len = np.diff(dvo)
    if not (row_len > 0).all():
        # data-integrity check — must survive python -O (a bare assert is
        # stripped, letting a corrupt/empty row read the NEXT row's bytes in
        # the vectorized first-varint rewrite below)  [ADVICE r3]
        raise ValueError("term row with empty doc blob")

    # ---- first varint of every row's doc blob, decoded vectorized --------
    width = min(10, int(row_len.max()))
    gather = dvo[:-1, None] + np.arange(width, dtype=np.int64)
    gbytes = ddata[np.minimum(gather, ddata.size - 1)]
    is_end = (gbytes & 0x80) == 0
    first_len = is_end.argmax(axis=1) + 1  # first terminating byte
    sel = np.arange(width) < first_len[:, None]
    vals7 = (gbytes & 0x7F).astype(np.uint64) << (
        np.uint64(7) * np.arange(width, dtype=np.uint64)
    )
    first_val = np.where(sel, vals7, 0).sum(axis=1).astype(np.int64)

    # ---- rebase: first delta of part i chains off the previous part ------
    lbl_lo, lbl_vals = _list("block_last_doc")
    part_last = lbl_vals[lbl_lo[1:] - 1] + offs  # merged-space last doc/row
    prev_last = np.zeros(n, dtype=np.int64)
    prev_last[1:] = np.where(new_run[1:], 0, part_last[:-1])
    new_first = first_val + offs - prev_last
    enc_first, new_len = _varint_encode_widths(new_first.astype(np.uint64))
    new_len = new_len.astype(np.int64)
    enc_ends = np.cumsum(new_len)
    enc_starts = enc_ends - new_len
    enc_arr = np.frombuffer(enc_first, dtype=np.uint8)

    # ---- output doc blob: per-row (new first varint) + (rest of blob) ----
    out_len = row_len - first_len + new_len
    out_ends = np.cumsum(out_len)
    out_starts = out_ends - out_len
    out_doc = np.empty(int(out_ends[-1]), dtype=np.uint8)
    for i in range(n):  # two C-speed slice copies per part row
        s = out_starts[i]
        m = new_len[i]
        out_doc[s : s + m] = enc_arr[enc_starts[i] : enc_ends[i]]
        out_doc[s + m : out_ends[i]] = ddata[dvo[i] + first_len[i] : dvo[i + 1]]
    run_doc_off = np.concatenate((out_starts[run_starts], [out_ends[-1]]))

    # ---- positions / aux streams: contiguous value-buffer slices ---------
    pvo, pdata = _bin("pos_blob")
    run_pos_off = np.concatenate((pvo[run_starts], [pvo[-1]]))
    run_ends = np.append(run_starts[1:], n)

    def _aux_stream(blob_col: str):
        """A run keeps its offset/payload stream only if EVERY part carries
        one — true per field (text terms have them, keyword terms never
        do), so the decision is PER RUN, and mixed runs (cross-config,
        can't happen inside one index) drop theirs to keep the per-block
        offset list aligned.  Returns (value offsets of the source column,
        run-level output binary offsets, output data, keep mask)."""
        vo, data = _bin(blob_col)
        keep = (
            np.logical_and.reduceat(np.diff(vo) > 0, run_starts)
            if data.size
            else np.zeros(n_runs, dtype=bool)
        )
        src_len = np.where(keep, vo[run_ends] - vo[run_starts], 0)
        run_bin_off = np.concatenate(([0], np.cumsum(src_len)))
        if keep.any():
            out_data = np.empty(int(run_bin_off[-1]), dtype=np.uint8)
            for r in np.flatnonzero(keep):  # C-speed slice copy per kept run
                out_data[run_bin_off[r] : run_bin_off[r + 1]] = data[
                    vo[run_starts[r]] : vo[run_ends[r]]
                ]
        else:
            out_data = np.empty(0, dtype=np.uint8)
        return vo, run_bin_off, out_data, keep

    ovo, run_off_off, out_off_data, keep_run = _aux_stream("off_blob")
    yvo, run_pay_off, out_pay_data, keep_pay = _aux_stream("pay_blob")

    # ---- list columns: flat-value arithmetic, run-level regroup ----------
    def _row_rep(per_row: np.ndarray, lo: np.ndarray) -> np.ndarray:
        return np.repeat(per_row, np.diff(lo))

    lbl_out = lbl_vals + _row_rep(offs, lbl_lo)
    boff_lo, boff_vals = _list("block_off")
    in_part_pos = np.arange(boff_vals.size, dtype=np.int64) - _row_rep(boff_lo[:-1], boff_lo)
    shift = new_len - first_len
    base_out = out_starts - out_starts[run_starts][np.cumsum(new_run) - 1]
    boff_out = (
        boff_vals
        + _row_rep(base_out, boff_lo)
        + np.where(in_part_pos > 0, _row_rep(shift, boff_lo), 0)
    )
    poff_lo, poff_vals = _list("pos_off")
    base_pos = pvo[:-1] - pvo[run_starts][np.cumsum(new_run) - 1]
    poff_out = poff_vals + _row_rep(base_pos, poff_lo)
    def _aux_list(off_col: str, vo: np.ndarray, keep: np.ndarray):
        """Per-block offset lists of an aux stream.  Values are offsets
        into the RUN's own blob, so the per-row base is relative to the
        run start — output-buffer layout doesn't enter; dropped runs
        contribute no values and empty lists."""
        alo, avals = _list(off_col)
        if not keep.any():
            return np.zeros(n_runs + 1, dtype=np.int64), np.empty(0, np.int64)
        base = vo[:-1] - vo[run_starts][np.cumsum(new_run) - 1]
        row_keep = np.repeat(keep, run_ends - run_starts)
        vals_keep = _row_rep(row_keep, alo)
        out_vals = (avals + _row_rep(base, alo))[vals_keep]
        per_row_cnt = np.where(row_keep, np.diff(alo), 0)
        out_lo = np.concatenate(
            ([0], np.cumsum(np.add.reduceat(per_row_cnt, run_starts)))
        )
        return out_lo, out_vals

    run_ooff_lo, ooff_out = _aux_list("off_off", ovo, keep_run)
    run_poff_lo, payoff_out = _aux_list("pay_off", yvo, keep_pay)

    # ---- scalar stats -----------------------------------------------------
    df = np.add.reduceat(t["df"].to_numpy(zero_copy_only=False), run_starts)
    cf = np.add.reduceat(t["cf"].to_numpy(zero_copy_only=False), run_starts)

    def _bin_out(offsets64: np.ndarray, data: np.ndarray) -> pa.Array:
        return pa.LargeBinaryArray.from_buffers(
            pa.large_binary(),
            n_runs,
            [None, pa.py_buffer(offsets64.astype(np.int64)), pa.py_buffer(data)],
        )

    def _list_out(run_lo: np.ndarray, vals: np.ndarray) -> pa.Array:
        return pa.ListArray.from_arrays(
            pa.array(run_lo.astype(np.int32)), pa.array(vals, pa.int64())
        )

    run_lo = lambda lo: lo[np.append(run_starts, n)]  # noqa: E731
    out = pa.table(
        {
            "field": pa.array(fields[run_starts], pa.string()),
            "term": pa.array(terms[run_starts], pa.string()),
            "df": pa.array(df, pa.int64()),
            "cf": pa.array(cf, pa.int64()),
            "doc_blob": _bin_out(run_doc_off - run_doc_off[0], out_doc),
            "pos_blob": _bin_out(
                run_pos_off - run_pos_off[0], pdata[pvo[run_starts[0]] : pvo[-1]]
            ),
            "block_last_doc": _list_out(run_lo(lbl_lo), lbl_out),
            "block_off": _list_out(run_lo(boff_lo), boff_out),
            "pos_off": _list_out(run_lo(poff_lo), poff_out),
            "block_doc_count": _list_out(run_lo(boff_lo), _list("block_doc_count")[1]),
            "off_blob": _bin_out(run_off_off, out_off_data),
            "off_off": _list_out(run_ooff_lo, ooff_out),
            "pay_blob": _bin_out(run_pay_off, out_pay_data),
            "pay_off": _list_out(run_poff_lo, payoff_out),
        }
    ).cast(TERMS_SCHEMA)
    return out, run_starts


def merge_segments(index_dir: str, seg_names: list[str], generation: int, crypto=None) -> dict:
    """Merge the named segments into one new segment dir; returns its meta."""
    import os

    t0 = time.perf_counter()
    c0 = time.process_time()
    from iresearch_ray.state.meter import cpu_mark, report_since

    _mk = cpu_mark()
    seg_names = sorted(seg_names)
    readers = [SegmentReader(os.path.join(index_dir, "segments", n), crypto=crypto) for n in seg_names]
    cfg = IndexConfig.from_json(readers[0].meta["config"])

    # deletes present? purge by REBUILDING from the stored doc rows (the
    # doc_map-with-drops path, ref: merge_writer doc_map remap; our blob-
    # concat fast path is only valid for the no-drops offset remap)
    from iresearch_ray.pipelines.delete import segment_deleted_mask
    from iresearch_ray.state.manifest import load_manifest as _lm

    man = _lm(index_dir) or {}
    if man.get("tombstones"):
        masks = []
        any_deleted = False
        for name, r in zip(seg_names, readers):
            m = segment_deleted_mask(index_dir, man, name, r, crypto)  # vectorized is_in probe
            if m is None:
                m = np.zeros(r.docs.num_rows, dtype=bool)
            masks.append(m)
            any_deleted = any_deleted or bool(m.any())
        if any_deleted:
            if not cfg.store_text:
                raise NotImplementedError(
                    "purging deletes requires store_text=True (rebuild from stored rows)"
                )
            return _merge_with_purge(index_dir, seg_names, readers, masks, cfg, generation, t0, c0, _mk, crypto=crypto)

    offsets = np.concatenate(([0], np.cumsum([r.meta["docs_count"] for r in readers])))

    # --- docs: concat + dense re-id ------------------------------------
    doc_tables = [r.docs for r in readers]
    docs = pa.concat_tables(doc_tables, promote_options="default")
    total = docs.num_rows
    docs = docs.set_column(
        docs.schema.get_field_index("doc_id"),
        "doc_id",
        pa.array(np.arange(1, total + 1, dtype=np.int64), pa.int64()),
    )

    # --- terms: k-way dictionary merge + vectorized blob splice ---------
    # each reader's terms are (field, term)-sorted; a stable sort with the
    # reader rank as tie-break lines every term's parts up in doc-space
    # order, then splice_term_runs rewrites only the first varints
    tagged = []
    for si, r in enumerate(readers):
        t = r.terms
        nrows = t.num_rows
        t = t.append_column(
            "__off", pa.array(np.full(nrows, offsets[si], dtype=np.int64))
        )
        t = t.append_column(
            "__rank", pa.array(np.full(nrows, si, dtype=np.int64))
        )
        tagged.append(t)
    cat = pa.concat_tables(tagged, promote_options="default").sort_by(
        [("field", "ascending"), ("term", "ascending"), ("__rank", "ascending")]
    )
    terms, _ = splice_term_runs(cat)

    field_stats: dict[str, dict] = {}
    for r in readers:
        for fname, fs in r.meta["field_stats"].items():
            acc = field_stats.setdefault(fname, {"docs_with_field": 0, "total_term_freq": 0})
            acc["docs_with_field"] += fs["docs_with_field"]
            acc["total_term_freq"] += fs["total_term_freq"]

    key = zlib.crc32("|".join(seg_names).encode())
    name = f"seg-m{generation:04d}-{key:08x}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    report_since("consolidate", _mk)
    return write_segment(
        index_dir,
        name,
        terms,
        docs,
        field_stats,
        cfg,
        lineage={"merged_from": seg_names},
        # merge_cpu_secs: process_time inside the task — flat across noisy
        # runs ⇒ wall inflation is host page-fault stall, not engine work
        metrics={"merge_secs": round(wall, 4),
                 "merge_cpu_secs": round(cpu, 4), "docs": total},
        crypto=crypto,
    )


def _merge_with_purge(index_dir, seg_names, readers, masks, cfg, generation, t0, c0, mk, crypto=None):
    """Drop masked docs and rebuild the merged segment from stored rows —
    correctness path for deletes; slower than blob concat, but deletes are
    purged exactly once."""
    import pyarrow as pa

    from iresearch_ray.stages.segment import build_segment_tables

    keep_tables = []
    for r, m in zip(readers, masks):
        t = r.docs.drop_columns([c for c in ("doc_id", "dl") if c in r.docs.column_names])
        keep_tables.append(t.filter(pa.array(~m)))
    rows = pa.concat_tables(keep_tables, promote_options="default")
    terms, docs, field_stats = build_segment_tables(rows, cfg)
    key = zlib.crc32(("|".join(seg_names) + "|purged").encode())
    name = f"seg-m{generation:04d}-{key:08x}"
    from iresearch_ray.state.meter import report_since

    report_since("consolidate", mk)
    return write_segment(
        index_dir,
        name,
        terms,
        docs,
        field_stats,
        cfg,
        lineage={"merged_from": seg_names, "purged": True},
        metrics={"merge_secs": round(time.perf_counter() - t0, 4),
                 "merge_cpu_secs": round(time.process_time() - c0, 4),
                 "docs": docs.num_rows},
        crypto=crypto,
    )
