"""Property test for the consolidation merge splice (stages/merge.py
_concat_term_postings): the single-varint first-delta rewrite must produce
EXACTLY the postings that a from-scratch re-encode of the concatenated doc
space would — across block boundaries (127/128/129), multi-byte first
deltas, and arbitrary offsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iresearch_ray.functions.codec import decode_postings, encode_postings
from iresearch_ray.stages.merge import _concat_term_postings


def _row_from_arrays(docs: np.ndarray, tfs: np.ndarray) -> dict:
    blob = encode_postings(docs, tfs, None)
    return {
        "df": int(docs.size),
        "cf": int(tfs.sum()),
        "doc_blob": blob.doc_blob,
        "pos_blob": blob.pos_blob,
        "block_last_doc": blob.block_last_doc.tolist(),
        "block_off": blob.block_off.tolist(),
        "pos_off": blob.pos_off.tolist(),
        "block_doc_count": blob.block_doc_count.tolist(),
    }


part_st = st.lists(
    st.tuples(st.integers(1, 1 << 20), st.integers(1, 7)),  # (doc gap, tf)
    min_size=1,
    max_size=300,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(parts=st.lists(part_st, min_size=1, max_size=4),
       seg_sizes=st.lists(st.integers(0, 1 << 21), min_size=4, max_size=4))
def test_concat_splice_equals_reencode(parts, seg_sizes):
    rows, offsets = [], []
    offset = 0
    all_docs, all_tfs = [], []
    for i, gaps in enumerate(parts):
        gap_arr = np.array([g for g, _ in gaps], dtype=np.int64)
        docs = np.cumsum(gap_arr)
        tfs = np.array([t for _, t in gaps], dtype=np.int64)
        rows.append(_row_from_arrays(docs, tfs))
        offsets.append(offset)
        all_docs.append(docs + offset)
        all_tfs.append(tfs)
        # next segment's doc space starts after this one's (plus slack)
        offset += int(docs[-1]) + int(seg_sizes[i % len(seg_sizes)]) + 1
    merged = _concat_term_postings(list(zip(rows, offsets)))

    got_docs, got_tfs = decode_postings(
        merged["doc_blob"], np.asarray(merged["block_doc_count"], dtype=np.int64)
    )
    exp_docs = np.concatenate(all_docs)
    exp_tfs = np.concatenate(all_tfs)
    np.testing.assert_array_equal(got_docs, exp_docs)
    np.testing.assert_array_equal(got_tfs, exp_tfs)
    # skip metadata must stay consistent with the decoded stream
    bl = np.asarray(merged["block_last_doc"], dtype=np.int64)
    cnt = np.asarray(merged["block_doc_count"], dtype=np.int64)
    assert cnt.sum() == exp_docs.size
    ends = np.cumsum(cnt) - 1
    np.testing.assert_array_equal(bl, exp_docs[ends])
    assert np.all(np.diff(got_docs) > 0)


# ---------------------------------------------------------------------------
# vectorized whole-table splice == scalar per-term splice
# ---------------------------------------------------------------------------

def _full_row(field, term, rng, n_docs, with_offs):
    from iresearch_ray.functions.codec import encode_postings as enc

    docs = np.sort(
        rng.choice(np.arange(1, n_docs * 4 + 1), n_docs, replace=False)
    ).astype(np.int64)
    tfs = rng.integers(1, 4, n_docs).astype(np.int64)
    pos, o_s, o_e = [], [], []
    for tf in tfs:
        p = np.sort(rng.choice(np.arange(300), tf, replace=False))
        pos += p.tolist()
        o_s += (p * 5).tolist()
        o_e += (p * 5 + 3).tolist()
    blob = enc(
        docs, tfs, np.array(pos, dtype=np.int64),
        (np.array(o_s, dtype=np.int64), np.array(o_e, dtype=np.int64))
        if with_offs else None,
    )
    return {
        "field": field, "term": term, "df": int(n_docs), "cf": int(tfs.sum()),
        "doc_blob": blob.doc_blob, "pos_blob": blob.pos_blob,
        "block_last_doc": blob.block_last_doc.tolist(),
        "block_off": blob.block_off.tolist(),
        "pos_off": blob.pos_off.tolist(),
        "block_doc_count": blob.block_doc_count.tolist(),
        "off_blob": blob.off_blob,
        "off_off": blob.off_off.tolist() if blob.off_off is not None else [],
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_splice_term_runs_equals_scalar(seed):
    """Whole-table vectorized splice byte-identical to the per-term scalar
    path, over a mixed vocabulary where text terms carry offsets and
    keyword terms don't (the per-run keep_offs decision)."""
    _check_splice_equals_scalar(seed, (0, 1500, 6000))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_splice_term_runs_wide_first_deltas(seed):
    """Rows hold docs <= 800, so these offsets push the rebased first
    deltas across 128, 16384 and 2**21: 1- to 4-byte rewrites."""
    _check_splice_equals_scalar(seed, (0, 900, 20_000, (1 << 21) + 40_000))


def _check_splice_equals_scalar(seed, offsets):
    import pyarrow as pa

    from iresearch_ray.stages.merge import splice_term_runs
    from iresearch_ray.stages.segment import TERMS_SCHEMA

    rng = np.random.default_rng(seed)
    vocab = [("text", w, True) for w in ["alpha", "beta", "gamma", "delta"]]
    vocab += [("role", r, False) for r in ["user", "asst"]]
    per_seg = []
    for _ in offsets:
        seg = {}
        for f, tm, w_offs in vocab:
            if rng.random() < 0.8:
                seg[(f, tm)] = _full_row(f, tm, rng, int(rng.integers(1, 200)), w_offs)
        per_seg.append(seg)
    by_key = {}
    for si, seg in enumerate(per_seg):
        for k, r in seg.items():
            by_key.setdefault(k, []).append((r, offsets[si]))
    expected = {k: _concat_term_postings(v) for k, v in sorted(by_key.items())}
    stage_schema = pa.schema(
        list(TERMS_SCHEMA)
        + [pa.field("__off", pa.int64()), pa.field("__rank", pa.int64())]
    )
    tagged = [
        pa.Table.from_pylist(
            [dict(r, __off=offsets[si], __rank=si) for r in seg.values()],
            schema=stage_schema,
        )
        for si, seg in enumerate(per_seg)
        if seg
    ]
    cat = pa.concat_tables(tagged).sort_by(
        [("field", "ascending"), ("term", "ascending"), ("__rank", "ascending")]
    )
    got, run_starts = splice_term_runs(cat)
    assert got.num_rows == len(expected)
    assert run_starts.size == len(expected)
    for i, (k, e) in enumerate(sorted(expected.items())):
        g = {c: got[c][i].as_py() for c in got.column_names}
        assert (g["field"], g["term"]) == k
        for c in e:
            assert g[c] == e[c], (k, c)
