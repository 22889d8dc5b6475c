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
    import numpy as np

    from iresearch_ray.functions.codec import encode_postings, encode_postings_bulk

    rng = np.random.default_rng(0)
    for _trial in range(40):
        n_terms = int(rng.integers(1, 10))
        pair_doc, tf, ts, te, pos = [], [], [], [], []
        start = 0
        for _t in range(n_terms):
            npairs = int(rng.integers(1, 400))  # spans multi-block terms
            docs = np.sort(rng.choice(np.arange(1, 5000), size=npairs, replace=False))
            tfs = rng.integers(1, 9, size=npairs)
            pair_doc.append(docs)
            tf.append(tfs)
            ts.append(start)
            te.append(start + npairs)
            start += npairs
            for f in tfs:
                pos.append(np.sort(rng.choice(np.arange(0, 500), size=int(f), replace=False)))
        pair_doc = np.concatenate(pair_doc)
        tf = np.concatenate(tf)
        pos = np.concatenate(pos)
        ts = np.array(ts)
        te = np.array(te)
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
