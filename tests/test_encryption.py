"""Encryption-at-rest (SURVEY §2.2, ref core/store/encryption.cpp) —
Parquet Modular Encryption (AES-GCM) over segment artifacts via
state/crypto.IndexEncryption."""

import glob
import os

import pytest


KEY = b"0123456789abcdef" * 2  # 32-byte master key


def _build(tmp_path, crypto=None, n_convs=120):
    from iresearch_ray import build_index
    from iresearch_ray.sources.transcripts import write_transcripts

    src = str(tmp_path / "src")
    write_transcripts(src, n_convs=n_convs)
    idx = str(tmp_path / ("idx_enc" if crypto else "idx_plain"))
    build_index(os.path.join(src, "part-00000.parquet"), idx,
                num_partitions=3, crypto=crypto)
    return idx


def test_encrypted_segments_are_ciphertext_at_rest(ray_session, tmp_path):
    from iresearch_ray import IndexEncryption

    idx = _build(tmp_path, IndexEncryption(KEY))
    pq_files = glob.glob(os.path.join(idx, "segments", "*", "*.parquet"))
    assert pq_files
    # find a real stored key value from the plain build to probe for
    from iresearch_ray import Searcher

    plain_idx = _build(tmp_path, None)
    import pyarrow.parquet as pq

    plain_doc = pq.read_table(
        glob.glob(os.path.join(plain_idx, "segments", "*", "docs.parquet"))[0]
    )
    conv_val = plain_doc["conv_id"][0].as_py().encode()
    for p in pq_files:
        raw = open(p, "rb").read()
        # CONTENT must be ciphertext: indexed vocabulary and stored VALUES
        # (column NAMES remain visible in parquet's key-material metadata —
        # inherent to the modular-encryption format and schema-only)
        assert b"agent" not in raw and b"error" not in raw
        assert conv_val not in raw


def test_encrypted_read_requires_key_and_matches_plain(ray_session, tmp_path):
    from iresearch_ray import IndexEncryption, Searcher
    from iresearch_ray.query import filters as F

    key = IndexEncryption(KEY)
    idx_enc = _build(tmp_path, key)
    idx_plain = _build(tmp_path, None)

    # keyless open fails loudly (clear PermissionError, not a parse crash)
    with pytest.raises((PermissionError, OSError)):
        Searcher(idx_enc).search_local(F.Term("text", "agent"), k=5)
    # wrong key fails the wrapped-DEK integrity check
    with pytest.raises((ValueError, OSError)):
        Searcher(idx_enc, crypto=IndexEncryption(b"x" * 32)).search_local(
            F.Term("text", "agent"), k=5
        )

    s = Searcher(idx_enc, crypto=key)
    flt = F.And((F.Term("text", "agent"), F.Term("text", "error")))
    enc = s.search_local(flt, k=10).to_dict("records")
    plain = Searcher(idx_plain).search_local(flt, k=10).to_dict("records")
    assert enc == plain
    # distributed serving path decrypts inside the actor pool
    rr = s.search_ray({"q": flt}, k=5, concurrency=2)
    assert len(rr) == 5


def test_reader_cache_isolates_keys(ray_session, tmp_path):
    """A reader decrypted with the right key is cached; a wrong key under
    the same key id, and no key at all, must still fail instead of being
    handed that reader."""
    from iresearch_ray import IndexEncryption, Searcher
    from iresearch_ray.query import filters as F
    from iresearch_ray.stages.segment import open_readers

    key = IndexEncryption(KEY)
    idx = _build(tmp_path, key)
    s = Searcher(idx, crypto=key)
    assert len(s.search_local(F.Term("text", "agent"), k=5)) == 5
    cached = s._shard().readers

    wrong = IndexEncryption(b"x" * 32)
    assert wrong.key_id == key.key_id
    with pytest.raises((ValueError, OSError)):
        Searcher(idx, crypto=wrong).search_local(F.Term("text", "agent"), k=5)
    with pytest.raises((PermissionError, OSError)):
        Searcher(idx).search_local(F.Term("text", "agent"), k=5)
    # the same holds one layer down, past the Searcher's own stats load
    for crypto, err in ((wrong, (ValueError, OSError)), (None, (PermissionError, OSError))):
        readers = open_readers(s.seg_dirs, crypto)
        assert not {id(r) for r in readers} & {id(r) for r in cached}
        with pytest.raises(err):
            readers[0].doc_keys
    assert open_readers(s.seg_dirs, IndexEncryption(KEY)) == cached


def test_pooled_serving_on_encrypted_index_with_deletes(ray_session, tmp_path):
    """The QueryPool actors decrypt their shards and mask the same
    tombstoned docs as the in-process shard: pooled search, count and
    highlights equal their local forms after a delete."""
    from iresearch_ray import IndexEncryption, Searcher
    from iresearch_ray.pipelines.delete import delete_keys
    from iresearch_ray.query import filters as F

    key = IndexEncryption(KEY)
    idx = _build(tmp_path, key)
    flt = F.Term("text", "agent")
    victims = Searcher(idx, crypto=key).search_local(flt, k=3)
    delete_keys(idx, list(zip(victims["conv_id"], victims["turn_idx"].astype(int))),
                crypto=key)
    s = Searcher(idx, crypto=key)
    try:
        local = s.search_local(flt, k=20)
        assert not set(zip(victims["conv_id"], victims["turn_idx"])) & set(
            zip(local["conv_id"], local["turn_idx"])
        )
        pooled = s.search_pooled({"q": flt}, k=20, num_actors=2)
        assert pooled.drop(columns=["query_id"]).equals(local)
        assert s.count(flt, pooled=True) == s.count(flt) == len(
            s.search_local(flt, k=100_000)
        )
        hl = s.highlights_pooled({"q": flt}, k=20)
        assert hl.drop(columns=["query_id"]).equals(s.highlights(flt, k=20))
    finally:
        s.close()


def test_encrypted_deletes_are_ciphertext_and_still_mask(tmp_path):
    """Tombstones of an encrypted index are encrypted with its key: no
    deleted key appears in the raw bytes or file names, a keyless read or
    delete fails, and search with the key still matches the oracle minus
    the deleted keys."""
    import numpy as np
    import pyarrow.parquet as pq

    from iresearch_ray import IndexEncryption, Searcher
    from iresearch_ray.pipelines.build import build_index_local
    from iresearch_ray.pipelines.consolidate import consolidate
    from iresearch_ray.pipelines.delete import delete_by_filter, delete_keys, update_rows
    from iresearch_ray.query import filters as F
    from iresearch_ray.query.oracle import BruteForceOracle
    from iresearch_ray.sources.transcripts import gen_transcripts

    key = IndexEncryption(KEY)
    tbl = gen_transcripts(80)
    idx = str(tmp_path / "idx")
    build_index_local(tbl, idx, num_partitions=3, crypto=key)
    flt = F.Or((F.Term("text", "agent"), F.Term("text", "error")))
    victims = Searcher(idx, crypto=key).search_local(flt, k=4)
    keys = list(zip(victims["conv_id"], victims["turn_idx"].astype(int)))

    with pytest.raises(PermissionError):
        delete_keys(idx, keys)
    with pytest.raises(PermissionError):
        update_rows(idx, tbl.slice(0, 1))
    m = delete_keys(idx, keys, crypto=key)
    assert m["metrics"]["tombstoned_keys"] == len(keys)
    delete_by_filter(idx, F.Term("role", "tool"), crypto=key)
    files = glob.glob(os.path.join(idx, "tombstones", "*"))
    assert len(files) == 2
    tool_keys = {
        (c, t) for c, t, r in zip(tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist(),
                                  tbl["role"].to_pylist()) if r == "tool"
    }
    assert tool_keys
    for p in files:
        raw = open(p, "rb").read()
        for conv, _ in keys + sorted(tool_keys):
            assert conv.encode() not in raw and conv not in os.path.basename(p)
        with pytest.raises(OSError):
            pq.read_table(p)

    s = Searcher(idx, crypto=key)
    dead = set(keys) | tool_keys
    got = s.search_local(flt, k=15)
    want = BruteForceOracle(tbl).search(flt, k=100_000)
    want = want[[(c, t) not in dead for c, t in zip(want["conv_id"], want["turn_idx"])]]
    want = want.head(15)
    assert list(zip(got["conv_id"], got["turn_idx"].astype(int))) == list(
        zip(want["conv_id"], want["turn_idx"].astype(int))
    )
    np.testing.assert_allclose(got["score"].to_numpy(dtype=float),
                               want["score"].to_numpy(dtype=float), atol=1e-6, rtol=0)
    assert s.count(F.Term("role", "tool")) == 0

    # the purge merge reads the encrypted tombstones too
    consolidate(idx, policy="count", policy_kwargs={"threshold": 2}, gc=True, crypto=key)
    s2 = Searcher(idx, crypto=key)
    assert s2.count(F.Term("role", "tool")) == 0
    assert not dead & set(zip(*(s2.search_local(flt, k=100_000)[c]
                                for c in ("conv_id", "turn_idx"))))


def test_encrypted_consolidation_roundtrip(ray_session, tmp_path):
    from iresearch_ray import IndexEncryption, Searcher
    from iresearch_ray.pipelines.consolidate import consolidate
    from iresearch_ray.query import filters as F

    key = IndexEncryption(KEY)
    idx = _build(tmp_path, key)
    s = Searcher(idx, crypto=key)
    before = s.search_local(F.Term("text", "error"), k=10).to_dict("records")
    consolidate(idx, policy="count", policy_kwargs={"threshold": 2}, gc=True,
                crypto=key)
    s2 = Searcher(idx, crypto=key)
    assert s2.search_local(F.Term("text", "error"), k=10).to_dict("records") == before
    # merged output is itself ciphertext
    for p in glob.glob(os.path.join(idx, "segments", "*", "*.parquet")):
        assert b"agent" not in open(p, "rb").read()


def test_kms_wrap_roundtrip_and_tamper_detection():
    from iresearch_ray.state.crypto import IndexEncryption

    # encryption/decryption of an actual table (with a NESTED list column —
    # parquet leaf-path keying) is the end-to-end wrap/unwrap proof
    enc2 = IndexEncryption(KEY)
    import pyarrow as pa

    t = pa.table({"a": [1, 2], "skip": pa.array([[1, 2], [3]])})  # nested col
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        fp = os.path.join(d, "x.parquet")
        enc2.write_table(t, fp)
        assert enc2.read_table(fp).equals(t)
        with pytest.raises(OSError):
            import pyarrow.parquet as pq

            pq.read_table(fp)


def test_encryption_mode_is_part_of_segment_identity(ray_session, tmp_path):
    """A plaintext segment must never satisfy an encrypted build — neither
    via resume adoption nor via write_segment's content-keyed idempotency
    (the key id is folded into the segment content key)."""
    import os

    from iresearch_ray import IndexEncryption, Searcher, build_index
    from iresearch_ray.query import filters as F
    from iresearch_ray.sources.transcripts import write_transcripts

    src_dir = str(tmp_path / "src")
    write_transcripts(src_dir, n_convs=60)
    src = os.path.join(src_dir, "part-00000.parquet")
    idx = str(tmp_path / "idx")
    key = IndexEncryption(KEY)

    build_index(src, idx, num_partitions=2)  # plaintext first
    m2 = build_index(src, idx, num_partitions=2, crypto=key)
    assert m2["lineage"]["resumed_partitions"] == []  # nothing adopted
    # manifest now points at encrypted segments: keyless read fails
    with pytest.raises(PermissionError):
        Searcher(idx)
    # re-run WITH the key adopts its own encrypted segments
    m3 = build_index(src, idx, num_partitions=2, crypto=key)
    assert m3["lineage"]["resumed_partitions"] == [0, 1]
    assert len(Searcher(idx, crypto=key).search_local(F.Term("text", "agent"), k=3)) == 3


def test_encrypted_index_with_offsets_and_payload_streams(ray_session, tmp_path):
    """The r3 aux posting streams (offs, payloads) ride the same
    page-encryption as every other terms column: indexed-offset highlights
    work through the crypto reader, and the raw segment bytes leak neither
    tokens nor payload bytes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray import Searcher, build_index
    from iresearch_ray.functions.highlight import highlights
    from iresearch_ray.functions.payload import payload_sum_topk
    from iresearch_ray.query import filters as F
    from iresearch_ray.stages.segment import IndexConfig
    from iresearch_ray.state.crypto import IndexEncryption

    rows = pa.Table.from_pylist(
        [
            {"conv_id": f"c{i:02d}", "turn_idx": 0,
             "text": f"zebraword|{i}.5 plainword", "role": "u", "tool": None}
            for i in range(40)
        ]
    )
    src = str(tmp_path / "src.parquet")
    pq.write_table(rows, src)
    key = IndexEncryption(KEY)
    idx = str(tmp_path / "idx")
    build_index(
        src, idx,
        cfg=IndexConfig(analyzer="delimited_payload", payloads=True),
        num_partitions=2, crypto=key,
    )
    s = Searcher(idx, crypto=key)
    top = payload_sum_topk(s, "text", "zebraword", k=3)
    assert list(top["score"]) == [39.5, 38.5, 37.5]
    # ciphertext at rest: neither the token nor a payload literal appears raw
    raw = b"".join(
        open(p, "rb").read() for p in glob.glob(f"{idx}/segments/*/terms.parquet")
    )
    assert b"zebraword" not in raw and b"39.5" not in raw

    # offsets variant under encryption: index-served highlights decrypt fine
    rows2 = pa.Table.from_pylist(
        [{"conv_id": f"c{i:02d}", "turn_idx": 0, "text": "alpha zebraword beta",
          "role": "u", "tool": None} for i in range(10)]
    )
    src2 = str(tmp_path / "src2.parquet")
    pq.write_table(rows2, src2)
    idx2 = str(tmp_path / "idx2")
    build_index(src2, idx2, cfg=IndexConfig(offsets=True), num_partitions=2, crypto=key)
    s2 = Searcher(idx2, crypto=key)
    h = highlights(s2, F.Term("text", "zebraword"), k=5, source="index")
    assert all(sp == [(6, 15)] for sp in h["spans"])


def test_resume_rejects_rotated_key_same_id(ray_session, tmp_path):
    """Rotating the master key while REUSING the key_id must force a rebuild
    under resume=True — never silently adopt segments wrapped under the old
    key into a mixed-key index (ADVICE r3: key fingerprint in segment meta)."""
    import pyarrow.parquet as pq

    from iresearch_ray import IndexEncryption, Searcher, build_index
    from iresearch_ray.query import filters as F
    from iresearch_ray.sources.transcripts import write_transcripts
    from iresearch_ray.state.manifest import load_manifest

    src = str(tmp_path / "src")
    write_transcripts(src, n_convs=60)
    part = os.path.join(src, "part-00000.parquet")
    idx = str(tmp_path / "idx_rot")

    old = IndexEncryption(KEY, key_id="master")
    build_index(part, idx, num_partitions=2, crypto=old, resume=True)
    man1 = load_manifest(idx)
    fp_old = {s["name"]: s["key_fp"] for s in man1["segments"]}
    assert all(fp == old.key_fingerprint for fp in fp_old.values())

    new = IndexEncryption(KEY[::-1], key_id="master")  # rotated bytes, same id
    assert new.key_fingerprint != old.key_fingerprint
    build_index(part, idx, num_partitions=2, crypto=new, resume=True)
    man2 = load_manifest(idx)
    # every segment in the committed generation is wrapped under the NEW key
    assert all(s["key_fp"] == new.key_fingerprint for s in man2["segments"])
    # and the index is fully readable with the new key alone
    s = Searcher(idx, crypto=new)
    assert len(s.search_local(F.AllDocs(), k=5)) == 5
