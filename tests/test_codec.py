"""Codec conformance — SURVEY §5.2 item 2 (the formats_test_case_base analog).

Seeded randomized round-trips over the FIXTURES §5 shapes: doc counts
spanning block boundaries, gap distributions, Zipf tfs; plus skip-pointer
placement and bulk/per-term encode byte parity.
"""

import numpy as np
import pytest

from iresearch_ray.functions.codec import (
    BLOCK_SIZE,
    decode_positions,
    decode_postings,
    encode_postings,
    varint_decode,
    varint_encode,
)

SHAPES = [1, 2, 127, 128, 129, 1000]


def _rand_postings(n, gap_max, rng):
    gaps = rng.integers(1, gap_max + 1, size=n)
    doc_ids = np.cumsum(gaps).astype(np.int64)
    tfs = np.minimum(rng.zipf(1.5, size=n), 50).astype(np.int64)
    dls = (tfs + rng.integers(1, 60, size=n)).astype(np.int64)
    positions = []
    for tf, dl in zip(tfs, dls):
        positions.append(np.sort(rng.choice(int(dl), size=int(tf), replace=False)))
    return doc_ids, tfs, dls, np.concatenate(positions).astype(np.int64)


def test_varint_roundtrip():
    rng = np.random.default_rng(7)
    vals = np.concatenate(
        [
            np.array([0, 1, 127, 128, 16383, 16384, 2**31 - 1, 2**40], dtype=np.uint64),
            rng.integers(0, 2**32, size=1000).astype(np.uint64),
        ]
    )
    assert np.array_equal(varint_decode(varint_encode(vals)), vals)


def _leb128(x: int) -> bytes:
    """Scalar LEB128 reference: 7 bits per byte, low group first, high bit
    set on every byte but the last."""
    out = bytearray()
    while True:
        b, x = x & 0x7F, x >> 7
        if not x:
            return bytes(out + bytes([b]))
        out.append(b | 0x80)


def _values_of_width(w: int, rng) -> list[int]:
    """Both ends of the w-byte range plus random values inside it."""
    lo = 0 if w == 1 else 1 << (7 * (w - 1))
    hi = (1 << min(7 * w, 64)) - 1
    return [lo, hi] + [int(x) for x in rng.integers(lo, hi, size=20, dtype=np.uint64,
                                                        endpoint=True)]


@pytest.mark.parametrize("w", range(1, 11))
def test_varint_every_width_matches_scalar_leb128(w):
    """Every byte width 1..10, with each boundary 2**(7k) - 1 / 2**(7k) and
    2**64 - 1, against the scalar reference; the stream's widest value
    sets the encoder's matrix width, so each w also mixes in every
    narrower width."""
    from iresearch_ray.functions.codec import _varint_encode_widths

    rng = np.random.default_rng(w)
    vals = [x for k in range(1, w + 1) for x in _values_of_width(k, rng)]
    vals = [vals[i] for i in rng.permutation(len(vals))]
    assert max(len(_leb128(x)) for x in vals) == w
    arr = np.array(vals, dtype=np.uint64)
    enc, widths = _varint_encode_widths(arr)
    assert enc == varint_encode(arr) == b"".join(_leb128(x) for x in vals)
    assert widths.tolist() == [len(_leb128(x)) for x in vals]
    assert varint_decode(enc).tolist() == vals
    for x in vals:  # one-value streams
        assert varint_encode(np.array([x], dtype=np.uint64)) == _leb128(x)


def test_varint_empty():
    assert varint_encode(np.array([], dtype=np.uint64)) == b""
    assert varint_decode(b"").size == 0


@pytest.mark.parametrize("n", SHAPES)
@pytest.mark.parametrize("gap_max", [1, 16, 1_000_000])
def test_postings_roundtrip(n, gap_max):
    rng = np.random.default_rng(n * 1000 + gap_max)
    doc_ids, tfs, _, positions = _rand_postings(n, gap_max, rng)
    blob = encode_postings(doc_ids, tfs, positions)
    out_docs, out_tfs = decode_postings(blob.doc_blob)
    assert np.array_equal(out_docs, doc_ids)
    assert np.array_equal(out_tfs, tfs)


def test_skip_pointers_land_correctly():
    rng = np.random.default_rng(5)
    doc_ids, tfs, _, positions = _rand_postings(1000, 10, rng)
    blob = encode_postings(doc_ids, tfs, positions)
    for b in range(blob.block_off.size):
        e = min((b + 1) * BLOCK_SIZE, 1000)
        assert blob.block_last_doc[b] == doc_ids[e - 1]


@pytest.mark.parametrize("n", [1, 127, 129, 1000])
def test_positions_roundtrip(n):
    rng = np.random.default_rng(n + 77)
    doc_ids, tfs, _, positions = _rand_postings(n, 16, rng)
    blob = encode_postings(doc_ids, tfs, positions)
    nblocks = blob.pos_off.size
    got = []
    for b in range(nblocks):
        got.append(decode_positions(blob.pos_blob, blob.pos_off, tfs, b, nblocks))
    got = np.concatenate(got)
    assert np.array_equal(got, positions)


def test_encode_postings_bulk_byte_parity():
    """encode_postings_bulk (one varint pass for every term — the round-4
    build hot-spot fix) must produce byte-identical blobs and identical
    block metadata to the per-term encode_postings reference."""
    _check_bulk_parity(5000, 500)


def test_encode_postings_bulk_byte_parity_wide_values():
    """The same parity with doc deltas of 3-4 bytes (>= 2**21 included) and
    3-byte positions (>= 16384)."""
    _check_bulk_parity(1 << 28, 1 << 15)


def _check_bulk_parity(doc_hi, pos_hi):
    from iresearch_ray.functions.codec import encode_postings, encode_postings_bulk

    rng = np.random.default_rng(0)
    seen_doc, seen_pos = 0, 0
    for _trial in range(40):
        n_terms = int(rng.integers(1, 10))
        pair_doc, tf, ts, te, pos = [], [], [], [], []
        start = 0
        for _t in range(n_terms):
            npairs = int(rng.integers(1, 400))  # spans multi-block terms
            docs = np.sort(rng.choice(doc_hi - 1, size=npairs, replace=False) + 1)
            tfs = rng.integers(1, 9, size=npairs)
            pair_doc.append(docs)
            tf.append(tfs)
            ts.append(start)
            te.append(start + npairs)
            start += npairs
            for f in tfs:
                pos.append(np.sort(rng.choice(pos_hi, size=int(f), replace=False)))
        pair_doc = np.concatenate(pair_doc)
        tf = np.concatenate(tf)
        pos = np.concatenate(pos)
        ts = np.array(ts)
        te = np.array(te)
        seen_doc, seen_pos = max(seen_doc, pair_doc.max()), max(seen_pos, pos.max())
        enc = encode_postings_bulk(pair_doc, tf, ts, te, pos)
        occ_ends = np.cumsum(tf)
        occ_starts = occ_ends - tf
        db, pb, bb = enc["term_doc_bounds"], enc["term_pos_bounds"], enc["blk_bounds"]
        for t in range(n_terms):
            s, e = ts[t], te[t]
            ref = encode_postings(
                pair_doc[s:e], tf[s:e], pos[occ_starts[s]:occ_ends[e - 1]]
            )
            assert enc["doc_blob"][db[t]:db[t + 1]] == ref.doc_blob
            assert enc["pos_blob"][pb[t]:pb[t + 1]] == ref.pos_blob
            b0, b1 = bb[t], bb[t + 1]
            for k in ("block_last_doc", "block_off", "pos_off", "block_doc_count"):
                assert enc[k][b0:b1].tolist() == getattr(ref, k).tolist(), k
            assert int(enc["df"][t]) == e - s
            assert int(enc["cf"][t]) == int(tf[s:e].sum())
    # the wide case must reach the widths it is there for
    assert (seen_doc >= 1 << 21) == (doc_hi > 1 << 21)
    assert (seen_pos >= 1 << 14) == (pos_hi > 1 << 14)
