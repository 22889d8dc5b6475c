"""Posting-list codec — SURVEY.md §2.3 / BASELINE.json north_star.

Delta + varint compressed posting lists in blocks of BLOCK_SIZE=128 docs with
skip metadata (last docid + byte offset per block), mirroring the reference's
packed posting blocks + skip lists (ref: core/formats/formats_10.cpp
postings_writer/skip_writer — block size 128; citation convention SURVEY §0).

Layout per term (all stored as Arrow columns in terms.parquet):

- ``doc_blob`` (binary): per block, varint(doc deltas) then varint(tfs).
  First delta of block b is relative to ``block_last_doc[b-1]`` (0 for b=0),
  so any block decodes independently given the skip table, and a merge can
  splice whole blocks without re-encoding them.
- ``pos_blob`` (binary): per block, varint of per-occurrence position deltas
  (positions are delta-encoded within each doc, docs concatenated in order;
  counts come from the block's tfs).  ``pos_off[b]`` = byte offset of block b.
- ``block_last_doc``, ``block_off``, ``pos_off``, ``block_doc_count``:
  int64 lists, one entry per block.

Everything is vectorized numpy; no per-byte python loops.  The build
encodes every term of a field at once (``encode_postings_bulk``): one
varint pass per stream, which computes each value's byte width once and
writes the bytes one byte index at a time; a block's byte offset is the
sum of its values' widths.  Reads decode whole rows:
``decode_postings_bulk`` decodes any set of term rows in one varint pass
over numpy views of the terms table (``PostingColumns``), and
``decode_postings`` is its one-row call on a bare blob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

BLOCK_SIZE = 128  # docs per posting block (ref: formats_10.cpp block size 128)


# ---------------------------------------------------------------------------
# vectorized varint (LEB128, 7 bits per byte, high bit = continuation)
# ---------------------------------------------------------------------------


def _varint_encode_widths(v: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128 bytes of a uint64 stream and each value's byte width (uint8).

    Widths are computed once, by ``v >= 2**(7k)`` tests up to the stream's
    widest value w.  Byte index k of every value is written as one column
    of an ``(n, w)`` matrix, with the continuation bit wherever
    ``width > k + 1``; compacting each row to its first ``width`` bytes
    gives the stream — the width-grouped write of Stream VByte (Lemire et
    al., 2018), with plain LEB128 bytes."""
    n = v.size
    if n == 0:
        return b"", np.empty(0, dtype=np.uint8)
    mx = int(v.max())
    if mx < 128:  # pure 1-byte stream (tfs / in-block deltas): memcpy
        return v.astype(np.uint8).tobytes(), np.ones(n, dtype=np.uint8)
    w = (mx.bit_length() + 6) // 7
    mat = np.empty((n, w), dtype=np.uint8)
    keep = np.empty((n, w), dtype=bool)  # keep[:, k] == (width > k)
    keep[:, 0] = True
    widths = np.ones(n, dtype=np.uint8)
    np.bitwise_and(v, 0x7F, out=mat[:, 0], casting="unsafe")
    for k in range(1, w):
        shifted = v >> np.uint64(7 * k)
        more = keep[:, k]
        np.not_equal(shifted, 0, out=more)  # v >= 2**(7k)
        widths += more
        mat[:, k - 1] |= more.view(np.uint8) << 7
        np.bitwise_and(shifted, 0x7F, out=mat[:, k], casting="unsafe")
    return np.compress(keep.reshape(-1), mat.reshape(-1)).tobytes(), widths


def varint_encode(values: np.ndarray) -> bytes:
    """Encode a non-negative int array to concatenated varints (vectorized,
    see ``_varint_encode_widths``).  LEB128 is per-value, so
    encode(concat(a, b)) == encode(a) + encode(b) — callers batch several
    logical arrays into one call for throughput."""
    return _varint_encode_widths(np.asarray(values, dtype=np.uint64))[0]


def varint_decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode concatenated varints to uint64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = b < 128
    if is_last.all():  # pure 1-byte stream (small deltas / tfs) — no grouping
        return b.astype(np.uint64)
    ends = np.flatnonzero(is_last)
    n = ends.size
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    if int(lens.max()) <= 2:  # ≤2-byte stream (deltas < 16384 — the common
        # case inside 128-doc posting blocks): branch-free two-byte combine
        low = (b[starts] & 0x7F).astype(np.uint64)
        two = lens == 2
        out = low
        out[two] |= b[ends[two]].astype(np.uint64) << np.uint64(7)
        return out
    pos_in_val = np.arange(b.size) - np.repeat(starts, lens)
    vals7 = (b & 0x7F).astype(np.uint64) << (np.uint64(7) * pos_in_val.astype(np.uint64))
    # per-value 7-bit groups occupy disjoint bit ranges, so OR == ADD and
    # bitwise_or.reduceat over the start offsets beats np.add.at by ~4x
    return np.bitwise_or.reduceat(vals7, starts)


# ---------------------------------------------------------------------------
# posting-list encode / decode
# ---------------------------------------------------------------------------

@dataclass
class PostingBlob:
    doc_blob: bytes
    pos_blob: bytes
    block_last_doc: np.ndarray  # int64[nblocks]
    block_off: np.ndarray       # int64[nblocks] byte offset into doc_blob
    pos_off: np.ndarray         # int64[nblocks] byte offset into pos_blob
    block_doc_count: np.ndarray  # int64[nblocks] docs in each block
    off_blob: bytes = b""       # optional per-occurrence character offsets
    off_off: np.ndarray | None = None  # int64[nblocks] byte offset into off_blob
    pay_blob: bytes = b""       # optional per-occurrence payload bytes
    pay_off: np.ndarray | None = None  # int64[nblocks] byte offset into pay_blob


def encode_postings(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    positions: np.ndarray | None = None,
    offsets: tuple[np.ndarray, np.ndarray] | None = None,
    payloads: list[bytes] | None = None,
) -> PostingBlob:
    """Encode one term's postings.

    ``doc_ids`` strictly-increasing int (segment-local, >=1), ``tfs`` the term
    frequency per doc, ``positions`` a
    flat array of all occurrence positions (sorted per doc, docs in order;
    len == tfs.sum()) or None to skip positions.

    ``offsets`` is an optional (starts, ends) pair of flat character-offset
    arrays parallel to ``positions`` (the reference's ``offs`` token
    attribute, SURVEY §2.1).  Per block the stream is varint(start deltas,
    reset per doc like positions) then varint(lengths = end - start) —
    start deltas and lengths are both small, so the stream is byte-dense,
    and like positions it is doc-id-invariant (merge = byte append).

    ``payloads`` is an optional flat list of per-occurrence byte strings
    parallel to ``positions`` (the reference's ``payload`` token attribute).
    Per block the stream is varint(lengths) then the raw bytes concatenated
    — also doc-id-invariant.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    n = doc_ids.size
    assert tfs.size == n
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    bounds = np.minimum(np.arange(1, nblocks + 1) * BLOCK_SIZE, n)
    starts = np.concatenate(([0], bounds[:-1]))

    # deltas: first doc of each block is relative to previous block's last doc
    deltas = np.empty(n, dtype=np.int64)
    deltas[1:] = np.diff(doc_ids)
    deltas[0] = doc_ids[0]
    prev_last = np.where(starts > 0, doc_ids[np.maximum(starts - 1, 0)], 0)
    deltas[starts] = doc_ids[starts] - prev_last

    doc_parts: list[bytes] = []
    block_off = np.zeros(nblocks, dtype=np.int64)
    off = 0
    for b in range(nblocks):
        s, e = starts[b], bounds[b]
        block_off[b] = off
        part = varint_encode(deltas[s:e]) + varint_encode(tfs[s:e])
        doc_parts.append(part)
        off += len(part)
    doc_blob = b"".join(doc_parts)

    # positions: delta within doc, block-aligned offsets
    pos_off = np.zeros(nblocks, dtype=np.int64)
    if positions is not None and positions.size:
        positions = np.asarray(positions, dtype=np.int64)
        occ_ends = np.cumsum(tfs)
        occ_starts = occ_ends - tfs
        # delta-encode within each doc: pos[i] - pos[i-1], reset at doc starts
        pdelta = np.empty(positions.size, dtype=np.int64)
        pdelta[1:] = np.diff(positions)
        pdelta[0] = positions[0]
        pdelta[occ_starts] = positions[occ_starts]
        pos_parts: list[bytes] = []
        poff = 0
        for b in range(nblocks):
            s, e = starts[b], bounds[b]
            pos_off[b] = poff
            part = varint_encode(pdelta[occ_starts[s]: occ_ends[e - 1]])
            pos_parts.append(part)
            poff += len(part)
        pos_blob = b"".join(pos_parts)
    else:
        pos_blob = b""

    n_occ_total = int(tfs.sum())
    if offsets is not None and offsets[0].size != n_occ_total:
        raise ValueError(
            f"offsets carry {offsets[0].size} entries for {n_occ_total} occurrences"
        )
    if payloads is not None and len(payloads) != n_occ_total:
        raise ValueError(
            f"payloads carry {len(payloads)} entries for {n_occ_total} occurrences"
        )

    # character offsets: start deltas reset per doc (same shape as positions),
    # then lengths — one (deltas, lengths) varint pair per block
    off_off = np.zeros(nblocks, dtype=np.int64)
    off_blob = b""
    if offsets is not None and offsets[0].size:
        o_start = np.asarray(offsets[0], dtype=np.int64)
        o_end = np.asarray(offsets[1], dtype=np.int64)
        occ_ends = np.cumsum(tfs)
        occ_starts = occ_ends - tfs
        sdelta = np.empty(o_start.size, dtype=np.int64)
        sdelta[1:] = np.diff(o_start)
        sdelta[0] = o_start[0]
        sdelta[occ_starts] = o_start[occ_starts]
        lengths = o_end - o_start
        off_parts: list[bytes] = []
        ooff = 0
        for b in range(nblocks):
            s, e = starts[b], bounds[b]
            off_off[b] = ooff
            lo, hi = occ_starts[s], occ_ends[e - 1]
            part = varint_encode(sdelta[lo:hi]) + varint_encode(lengths[lo:hi])
            off_parts.append(part)
            ooff += len(part)
        off_blob = b"".join(off_parts)

    # payloads: per block, varint(lengths) then raw bytes
    pay_off = np.zeros(nblocks, dtype=np.int64)
    pay_blob = b""
    if payloads is not None and len(payloads):
        occ_ends = np.cumsum(tfs)
        occ_starts = occ_ends - tfs
        plens = np.fromiter((len(p) for p in payloads), dtype=np.int64, count=len(payloads))
        pay_parts: list[bytes] = []
        poff2 = 0
        for b in range(nblocks):
            s, e = starts[b], bounds[b]
            pay_off[b] = poff2
            lo, hi = occ_starts[s], occ_ends[e - 1]
            part = varint_encode(plens[lo:hi]) + b"".join(payloads[lo:hi])
            pay_parts.append(part)
            poff2 += len(part)
        pay_blob = b"".join(pay_parts)

    return PostingBlob(
        doc_blob=doc_blob,
        pos_blob=pos_blob,
        block_last_doc=doc_ids[bounds - 1].astype(np.int64),
        block_off=block_off,
        pos_off=pos_off,
        block_doc_count=(bounds - starts).astype(np.int64),
        off_blob=off_blob,
        off_off=off_off if off_blob else None,
        pay_blob=pay_blob,
        pay_off=pay_off if pay_blob else None,
    )


def _block_offsets(
    blk_bytes: np.ndarray, blk_bounds: np.ndarray, nblk: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Byte layout of a stream of back-to-back blocks, given each block's
    byte count: (per-term byte bounds, T+1, with terms byte-contiguous;
    each block's byte offset within its term)."""
    blk_start = np.cumsum(blk_bytes) - blk_bytes
    term_start = blk_start[blk_bounds[:-1]]
    term_bounds = np.append(term_start, blk_start[-1] + blk_bytes[-1])
    return term_bounds, blk_start - np.repeat(term_start, nblk)


def encode_postings_bulk(
    pair_doc: np.ndarray,
    tf: np.ndarray,
    term_starts: np.ndarray,
    term_ends: np.ndarray,
    pos: np.ndarray | None = None,
) -> dict:
    """Encode EVERY term's postings of one field in one pass: the bytes of
    a per-term ``encode_postings`` loop (byte parity asserted in tests)
    from TWO varint passes in all, one over the interleaved doc-delta/tf
    stream and one over the position stream.

    The block layout is built per block from per-term scalars, and each
    varint pass also returns every value's byte width, so a block's byte
    offset is a ``reduceat`` sum of its widths plus a cumsum over blocks —
    no per-value offset array.

    Inputs are pair-level arrays sorted by (term, doc): ``pair_doc`` int64
    doc ids, ``tf`` per-pair term frequency; ``term_starts``/``term_ends``
    delimit each term's pair range.  ``pos`` is the flat occurrence-position
    array (sorted by term, doc, position) or None.  Offsets/payload streams
    are NOT handled here — opt-in builds take the per-term path.

    Returns flat columns: per-term scalars (df/cf), the concatenated
    ``doc_blob``/``pos_blob`` with per-term byte bounds, and
    per-block metadata arrays with per-term block bounds — everything the
    caller needs to slice per-term rows or build Arrow columns directly.
    """
    pair_doc = np.asarray(pair_doc, dtype=np.int64)
    tf = np.asarray(tf, dtype=np.int64)
    term_starts = np.asarray(term_starts, dtype=np.int64)
    term_ends = np.asarray(term_ends, dtype=np.int64)
    n = pair_doc.size
    t_cnt = term_starts.size
    term_len = term_ends - term_starts
    if n == 0 or t_cnt == 0:
        z = np.empty(0, np.int64)
        return {
            "df": z, "cf": z,
            "doc_blob": b"", "term_doc_bounds": np.zeros(1, np.int64),
            "pos_blob": b"", "term_pos_bounds": np.zeros(1, np.int64),
            "blk_bounds": np.zeros(1, np.int64),
            "block_last_doc": z, "block_off": z, "pos_off": z,
            "block_doc_count": z,
        }

    # ---- block layout, per block from per-term scalars --------------------
    nblk = (term_len + BLOCK_SIZE - 1) // BLOCK_SIZE
    blk_bounds = np.concatenate(([0], np.cumsum(nblk)))  # per-term block range
    n_blocks = int(blk_bounds[-1])
    blk_term = np.repeat(np.arange(t_cnt), nblk)
    blk_pair_start = term_starts[blk_term] + BLOCK_SIZE * (
        np.arange(n_blocks) - blk_bounds[blk_term]
    )
    blk_pair_end = np.minimum(blk_pair_start + BLOCK_SIZE, term_ends[blk_term])
    cnt = blk_pair_end - blk_pair_start

    # ---- doc deltas (block-start rebasing == plain diff except term starts)
    deltas = np.empty(n, dtype=np.int64)
    if n > 1:
        deltas[1:] = np.diff(pair_doc)
    deltas[term_starts] = pair_doc[term_starts]

    # ---- interleave per block: [deltas…, tfs…] then ONE varint pass -------
    # block b's values start at 2 * blk_pair_start[b]: pair i's delta goes
    # to i + blk_pair_start[b], its tf cnt[b] slots further on
    slot_delta = np.arange(n) + np.repeat(blk_pair_start, cnt)
    vals = np.empty(2 * n, dtype=np.uint64)
    vals[slot_delta] = deltas
    vals[slot_delta + np.repeat(cnt, cnt)] = tf
    doc_blob, widths = _varint_encode_widths(vals)
    blk_bytes = np.add.reduceat(widths, 2 * blk_pair_start, dtype=np.int64)
    term_doc_bounds, block_off = _block_offsets(blk_bytes, blk_bounds, nblk)

    # ---- positions: one varint pass over per-doc-reset deltas -------------
    pos_blob = b""
    pos_off = np.zeros(n_blocks, dtype=np.int64)
    term_pos_bounds = np.zeros(t_cnt + 1, dtype=np.int64)
    if pos is not None and pos.size:
        pos = np.asarray(pos, dtype=np.int64)
        occ_starts = np.cumsum(tf) - tf
        pdelta = np.empty(pos.size, dtype=np.int64)
        if pos.size > 1:
            pdelta[1:] = np.diff(pos)
        pdelta[occ_starts] = pos[occ_starts]
        pos_blob, pwidths = _varint_encode_widths(pdelta.view(np.uint64))
        blk_pos_bytes = np.add.reduceat(
            pwidths, occ_starts[blk_pair_start], dtype=np.int64
        )
        term_pos_bounds, pos_off = _block_offsets(blk_pos_bytes, blk_bounds, nblk)

    return {
        "df": term_len,
        "cf": np.add.reduceat(tf, term_starts),
        "doc_blob": doc_blob,
        "term_doc_bounds": term_doc_bounds,
        "pos_blob": pos_blob,
        "term_pos_bounds": term_pos_bounds,
        "blk_bounds": blk_bounds,
        "block_last_doc": pair_doc[blk_pair_end - 1],
        "block_off": block_off,
        "pos_off": pos_off,
        "block_doc_count": cnt,
    }


@dataclass
class PostingColumns:
    """Numpy views of a terms table's ``doc_blob`` and ``block_doc_count``
    columns: the blobs' data bytes and value offsets, the flattened block
    counts and the list offsets into them.  Zero-copy over a one-chunk
    column; a multi-chunk one (a multi-part terms dir) is combined once."""

    data: np.ndarray        # uint8, every row's doc_blob bytes back to back
    offsets: np.ndarray     # row r's bytes: data[offsets[r]:offsets[r + 1]]
    counts: np.ndarray      # int64, every row's block_doc_count back to back
    blk_offsets: np.ndarray  # row r's counts: counts[blk_offsets[r]:blk_offsets[r + 1]]

    @classmethod
    def of(cls, doc_blob, block_doc_count) -> "PostingColumns":
        blobs = _one_chunk(doc_blob)
        lists = _one_chunk(block_doc_count)
        _, offs_buf, data_buf = blobs.buffers()
        n = len(blobs)
        offs = np.frombuffer(
            offs_buf, np.int64 if pa.types.is_large_binary(blobs.type) else np.int32
        )[blobs.offset : blobs.offset + n + 1]
        data = np.frombuffer(data_buf, np.uint8) if data_buf is not None else np.empty(0, np.uint8)
        blk = np.frombuffer(lists.buffers()[1], np.int32)[lists.offset : lists.offset + n + 1]
        return cls(data, offs, lists.values.to_numpy(zero_copy_only=False), blk)


def _one_chunk(arr):
    """A ChunkedArray as one Array (zero-copy when it has one chunk)."""
    if isinstance(arr, pa.ChunkedArray):
        return arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    return arr


def _gather(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``values[lo[i]:hi[i]]`` for every i, back to back."""
    if lo.size == 1:
        return values[lo[0] : hi[0]]
    lens = hi - lo
    return values[np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(int(lens.sum()))]


def decode_postings_bulk(
    cols: PostingColumns, rows: list[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decode the full posting lists of term ``rows`` → one (doc_ids, tfs)
    pair per row.

    Every blob is a concatenation of per-block (deltas, tfs) varint runs
    and ends on a varint terminator, so the rows' bytes, gathered back to
    back, decode in ONE ``varint_decode`` pass (no per-row bytes objects).
    The rows' block counts mark each value as a delta or a tf — block b
    holds ``count[b]`` deltas, then ``count[b]`` tfs — and one cumsum over
    all deltas, minus the running total at each row start, gives absolute
    doc ids: a block's first delta is relative to the previous block's last
    doc, a row's first to 0.  Merged segments' blocks are NOT uniformly
    BLOCK_SIZE at source-segment seams (the blob-concat merge, SURVEY §3.3),
    which is why the counts are read, not assumed.

    Rows come back as copies of their slices, so a cached row does not pin
    the whole batch; a one-row call returns the decoded arrays as is."""
    rows = np.asarray(rows, dtype=np.int64)
    blk_lo, blk_hi = cols.blk_offsets[rows], cols.blk_offsets[rows + 1]
    counts = _gather(cols.counts, blk_lo, blk_hi).astype(np.int64, copy=False)
    # values < 2^63: the uint64 decode reinterprets as int64 for free
    vals = varint_decode(_gather(cols.data, cols.offsets[rows], cols.offsets[rows + 1]))
    vals = vals.view(np.int64)
    if vals.size != 2 * int(counts.sum()):
        raise ValueError(f"posting blobs hold {vals.size} varints for {int(counts.sum())} docs")
    if counts.size == 1:  # one block (a rare term): no mask needed
        tfs = vals[counts[0]:]
        docs = np.cumsum(vals[: counts[0]])
    else:
        # block b's values: count[b] deltas, then count[b] tfs
        is_tf = np.zeros(2 * counts.size, dtype=bool)
        is_tf[1::2] = True
        is_tf = np.repeat(is_tf, np.repeat(counts, 2))
        tfs = vals[is_tf]
        docs = np.cumsum(vals[~is_tf])
    if rows.size == 1:
        return [(docs, tfs)]
    bounds = np.concatenate(([0], np.cumsum(counts)))[
        np.concatenate(([0], np.cumsum(blk_hi - blk_lo)))
    ]
    # segmented cumsum: subtract the running total before each row
    docs -= np.repeat(np.concatenate(([0], docs))[bounds[:-1]], np.diff(bounds))
    return [
        (docs[s:e].copy(), tfs[s:e].copy())
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def decode_postings(
    doc_blob: bytes, block_doc_count: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Decode ONE full posting blob → (doc_ids, tfs): the one-row call of
    :func:`decode_postings_bulk`.

    ``block_doc_count`` must be passed for merged segments, whose blocks are
    NOT uniformly BLOCK_SIZE at source-segment seams; omitted, uniform
    128-doc blocks are assumed (the count of docs is half the number of
    varint terminators in the blob)."""
    data = np.frombuffer(doc_blob, dtype=np.uint8)
    if block_doc_count is None:
        n = int((data < 128).sum()) // 2
        block_doc_count = np.diff(np.append(np.arange(0, n, BLOCK_SIZE), n))
    counts = np.asarray(block_doc_count, dtype=np.int64)
    cols = PostingColumns(data, np.array([0, data.size]), counts, np.array([0, counts.size]))
    return decode_postings_bulk(cols, [0])[0]


def decode_positions(
    pos_blob: bytes,
    pos_off: np.ndarray,
    tfs_all: np.ndarray,
    block: int,
    nblocks: int,
    block_doc_count: np.ndarray | None = None,
) -> np.ndarray:
    """Decode one block's position stream → flat positions (per-doc absolute).

    ``tfs_all`` is the full tf array (to know occurrence counts in the block).
    Returns flat positions; caller splits per doc by the block's tfs.
    ``block_doc_count`` as in :func:`decode_postings` (merged segments).
    """
    s_byte = int(pos_off[block])
    e_byte = int(pos_off[block + 1]) if block + 1 < nblocks else len(pos_blob)
    pdelta = varint_decode(memoryview(pos_blob)[s_byte:e_byte]).astype(np.int64)
    if block_doc_count is None:
        s_doc = block * BLOCK_SIZE
        e_doc = min(s_doc + BLOCK_SIZE, tfs_all.size)
    else:
        cum = np.cumsum(np.asarray(block_doc_count, dtype=np.int64))
        s_doc = int(cum[block - 1]) if block > 0 else 0
        e_doc = int(cum[block])
    tfs = tfs_all[s_doc:e_doc]
    # cumsum within each doc: total cumsum minus the doc-start base
    ends = np.cumsum(tfs)
    starts = ends - tfs
    acc = np.cumsum(pdelta)
    # subtract accumulated value at each doc start (positions reset per doc)
    doc_base = np.concatenate(([0], acc[ends[:-1] - 1])) if tfs.size > 1 else np.array([0])
    base = np.repeat(doc_base, tfs)
    return acc - base


def decode_offsets(
    off_blob: bytes,
    off_off: np.ndarray,
    tfs_all: np.ndarray,
    block: int,
    nblocks: int,
    block_doc_count: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode one block's character-offset stream → flat (starts, ends),
    per-doc absolute, parallel to that block's position stream.  Layout per
    block: varint(start deltas, reset per doc) then varint(lengths)."""
    s_byte = int(off_off[block])
    e_byte = int(off_off[block + 1]) if block + 1 < nblocks else len(off_blob)
    vals = varint_decode(memoryview(off_blob)[s_byte:e_byte]).astype(np.int64)
    if block_doc_count is None:
        s_doc = block * BLOCK_SIZE
        e_doc = min(s_doc + BLOCK_SIZE, tfs_all.size)
    else:
        cum = np.cumsum(np.asarray(block_doc_count, dtype=np.int64))
        s_doc = int(cum[block - 1]) if block > 0 else 0
        e_doc = int(cum[block])
    tfs = tfs_all[s_doc:e_doc]
    n_occ = int(tfs.sum())
    sdelta, lengths = vals[:n_occ], vals[n_occ:]
    ends_i = np.cumsum(tfs)
    acc = np.cumsum(sdelta)
    doc_base = (
        np.concatenate(([0], acc[ends_i[:-1] - 1])) if tfs.size > 1 else np.array([0])
    )
    starts = acc - np.repeat(doc_base, tfs)
    return starts, starts + lengths


def decode_payloads(
    pay_blob: bytes,
    pay_off: np.ndarray,
    tfs_all: np.ndarray,
    block: int,
    nblocks: int,
    block_doc_count: np.ndarray | None = None,
) -> list[bytes]:
    """Decode one block's payload stream → per-occurrence byte strings,
    parallel to that block's position stream.  Layout per block:
    varint(lengths) then the raw payload bytes concatenated — the length
    varints are self-delimiting, so the n-th terminator marks where the
    raw bytes begin."""
    s_byte = int(pay_off[block])
    e_byte = int(pay_off[block + 1]) if block + 1 < nblocks else len(pay_blob)
    view = memoryview(pay_blob)[s_byte:e_byte]
    if block_doc_count is None:
        s_doc = block * BLOCK_SIZE
        e_doc = min(s_doc + BLOCK_SIZE, tfs_all.size)
    else:
        cum = np.cumsum(np.asarray(block_doc_count, dtype=np.int64))
        s_doc = int(cum[block - 1]) if block > 0 else 0
        e_doc = int(cum[block])
    n_occ = int(tfs_all[s_doc:e_doc].sum())
    if n_occ == 0:
        return []
    b = np.frombuffer(view, dtype=np.uint8)
    term_ends = np.flatnonzero(b < 128)
    len_end = int(term_ends[n_occ - 1]) + 1
    lengths = varint_decode(view[:len_end]).astype(np.int64)
    starts = len_end + np.concatenate(([0], np.cumsum(lengths[:-1])))
    return [bytes(view[int(s) : int(s + l)]) for s, l in zip(starts, lengths)]
