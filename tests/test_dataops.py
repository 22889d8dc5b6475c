"""Training-data op tests — each op vs an independent brute-force oracle
(pure python / duckdb) on the driver-generated testdata (sf0.001)."""

import hashlib

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from iresearch_ray.pipelines import dataops as ops

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_tbl():
    return pq.read_table(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def emb_tbl():
    return pq.read_table(f"{SF}/embeddings.parquet")


def _ds(tbl, ray_session):
    import ray.data as rd

    return rd.from_arrow(tbl)


# ---------------------------------------------------------------------------


def test_fingerprints_match_hashlib(docs_tbl, ray_session):
    out = ops.fingerprints(_ds(docs_tbl, ray_session)).to_pandas().set_index("doc_id")
    for r in docs_tbl.slice(0, 50).to_pylist():
        assert out.loc[r["doc_id"], "md5"] == hashlib.md5(r["text"].encode()).hexdigest()
    # order sensitivity of the rolling fingerprint
    assert ops.rolling_fingerprint(["a", "b"]) != ops.rolling_fingerprint(["b", "a"])


def test_exact_dedup(docs_tbl, ray_session):
    import pyarrow as pa

    # inject duplicates deterministically
    dup = docs_tbl.slice(0, 10).to_pylist()
    for i, r in enumerate(dup):
        r["doc_id"] = 100000 + i
    both = pa.concat_tables([docs_tbl, pa.Table.from_pylist(dup, schema=docs_tbl.schema)])
    out = ops.exact_dedup(_ds(both, ray_session)).to_pandas()
    texts = both["text"].to_pylist()
    expected = {}
    for did, t in zip(both["doc_id"].to_pylist(), texts):
        if t not in expected or did < expected[t]:
            expected[t] = did
    assert sorted(out["doc_id"]) == sorted(expected.values())
    assert len(out) == both.num_rows - 10


def test_exact_dedup_empty_input_keeps_schema(docs_tbl, ray_session):
    full = ops.exact_dedup(_ds(docs_tbl.slice(0, 50), ray_session)).materialize()
    empty = ops.exact_dedup(_ds(docs_tbl.schema.empty_table(), ray_session)).materialize()
    assert empty.count() == 0
    assert empty.schema().base_schema == full.schema().base_schema


@pytest.mark.parametrize("key", ["k", "s"])
def test_shard_groups_delivers_each_key_whole_to_one_call(key, ray_session):
    """One hot key plus thousands of singleton keys, shuffled over several
    input blocks: every key reaches exactly one kernel call, with all of
    its rows, and a call holds many keys."""
    import uuid

    import ray.data as rd

    rng = np.random.default_rng(3)
    k = rng.permutation(np.concatenate([np.full(2_000, -1), np.arange(4_000)]))
    tbl = pa.table({"k": pa.array(k, pa.int64()), "s": pa.array([f"u{x}" for x in k])})
    blocks = [tbl.slice(i, 1_500) for i in range(0, tbl.num_rows, 1_500)]

    def kernel(g: pa.Table) -> pa.Table:
        vals, counts = np.unique(g[key].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"key": pa.array(vals), "n": pa.array(counts, pa.int64()),
                         "call": pa.array([uuid.uuid4().hex] * len(vals), pa.string())})

    out = ops.shard_groups(rd.from_arrow(blocks), key, kernel).to_pandas()
    exp = tbl.to_pandas()[key].value_counts()
    assert out["key"].is_unique  # no key spans two calls
    assert len(out) == len(exp)
    assert (out.set_index("key")["n"] == exp.loc[out["key"]].to_numpy()).all()
    hot = -1 if key == "k" else "u-1"
    assert int(out.set_index("key").loc[hot, "n"]) == 2_000
    n_calls = out["call"].nunique()
    assert 1 < n_calls <= ops.SHARDS


def test_token_stats_vs_duckdb(docs_tbl, ray_session):
    out = (
        ops.token_stats(_ds(docs_tbl, ray_session))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", docs_tbl)
    oracle = con.sql(
        """
        SELECT doc_id,
               len(string_split(text,' ')) AS n_tokens,
               len(list_distinct(string_split(text,' '))) AS n_unique,
               list_aggregate(list_transform(string_split(text,' '), x -> len(x)), 'sum') AS token_chars
        FROM documents ORDER BY doc_id
        """
    ).df()
    assert (out["n_tokens"].to_numpy() == oracle["n_tokens"].to_numpy()).all()
    assert (out["n_unique"].to_numpy() == oracle["n_unique"].to_numpy()).all()
    assert (out["token_chars"].to_numpy() == oracle["token_chars"].to_numpy()).all()


def test_quality_and_langid_deterministic(docs_tbl, ray_session):
    q = ops.quality_scores(_ds(docs_tbl, ray_session)).to_pandas().sort_values("doc_id")
    assert ((q["quality"] > 0) & (q["quality"] <= 1.0001)).all()
    # brute-force re-check of one row
    row = docs_tbl.slice(3, 1).to_pylist()[0]
    toks = row["text"].split(" ")
    dr = len(set(toks)) / len(toks)
    sr = sum(t in ops.STOPWORDS for t in toks) / len(toks)
    exp = round(0.5 * dr + 0.3 * (1 - sr) + 0.2 * min(len(toks), 64) / 64, 4)
    got = float(q.set_index("doc_id").loc[row["doc_id"], "quality"])
    assert abs(got - exp) < 1e-9

    l = ops.lang_id(_ds(docs_tbl, ray_session)).to_pandas().sort_values("doc_id")
    toks_set = toks
    scores = {lg: sum(t in ms for t in toks_set) for lg, ms in ops.LANG_MARKERS.items()}
    best = max(sorted(scores), key=lambda k: scores[k])
    exp_lang = best if scores[best] > 0 else "und"
    assert l.set_index("doc_id").loc[row["doc_id"], "pred_lang"] == exp_lang


def _brute_jaccard_pairs(texts: dict[int, str], n: int, t: float):
    sets = {}
    for did, txt in texts.items():
        toks = txt.split(" ")
        if len(toks) < n:
            sh = {" ".join(toks)}
        else:
            sh = {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}
        sets[did] = sh
    out = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            inter = len(sets[a] & sets[b])
            j = inter / (len(sets[a] | sets[b]))
            if j >= t:
                out[(a, b)] = round(j, 4)
    return out


@pytest.fixture(scope="module")
def dup_corpus(docs_tbl):
    """Corpus with planted near-duplicates (suffix-perturbed copies)."""
    import pyarrow as pa

    rows = docs_tbl.slice(0, 120).to_pylist()
    extra = []
    for i, r in enumerate(rows[:15]):
        c = dict(r)
        c["doc_id"] = 200000 + i
        c["text"] = r["text"] + " w0001 w0002"  # high-jaccard near-dup
        extra.append(c)
    return pa.concat_tables([pa.Table.from_pylist(rows, schema=docs_tbl.schema),
                             pa.Table.from_pylist(extra, schema=docs_tbl.schema)])


def test_ngram_jaccard_exact(dup_corpus, ray_session):
    out = ops.ngram_jaccard_pairs(_ds(dup_corpus, ray_session), n=3, threshold=0.5).to_pandas()
    texts = dict(zip(dup_corpus["doc_id"].to_pylist(), dup_corpus["text"].to_pylist()))
    exp = _brute_jaccard_pairs(texts, 3, 0.5)
    got = {(a, b): j for a, b, j in zip(out["a"], out["b"], out["jaccard"])}
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-6
    assert len(exp) >= 15  # planted dups found


def test_minhash_lsh_recall_and_precision(dup_corpus, ray_session):
    out = ops.minhash_lsh_pairs(_ds(dup_corpus, ray_session), threshold=0.5).to_pandas()
    texts = dict(zip(dup_corpus["doc_id"].to_pylist(), dup_corpus["text"].to_pylist()))
    exp = _brute_jaccard_pairs(texts, 3, 0.5)
    got = {(a, b): j for a, b, j in zip(out["a"], out["b"], out["jaccard"])}
    # exact precision (verified), high recall (128 perms / 32 bands @ t=0.5)
    assert set(got) <= set(exp)
    assert len(got) >= 0.9 * len(exp)
    for k in got:
        assert abs(got[k] - exp[k]) < 1e-6


def test_minhash_verify_prune_path_parity(dup_corpus, ray_session, monkeypatch):
    """The broadcast row-prune (re-shingle candidates only) and the
    no-prune fallback (full corpus explode) must verify identical pairs —
    the prune is a pure compute skip, never a semantics change."""
    monkeypatch.setattr(ops, "_VERIFY_DRIVER_DOC_CAP", 0)  # distributed only
    pruned = ops.minhash_lsh_pairs(_ds(dup_corpus, ray_session), threshold=0.5).to_pandas()
    monkeypatch.setattr(ops, "_VERIFY_BCAST_CAP", 0)  # force the fallback
    full = ops.minhash_lsh_pairs(_ds(dup_corpus, ray_session), threshold=0.5).to_pandas()
    key = lambda df: sorted(zip(df["a"], df["b"], df["jaccard"]))
    assert key(pruned) == key(full)


def test_minhash_driver_verify_parity(dup_corpus, ray_session, monkeypatch):
    """The r5 small-candidate DRIVER verify (per-doc shingle sets collected
    under a hash budget, pair math on the driver) must produce exactly the
    distributed verify's pairs — and the budget fallback must engage when
    the cap is exceeded, not crash or truncate."""
    fast = ops.minhash_lsh_pairs(_ds(dup_corpus, ray_session), threshold=0.5).to_pandas()
    monkeypatch.setattr(ops, "_VERIFY_DRIVER_DOC_CAP", 0)
    dist = ops.minhash_lsh_pairs(_ds(dup_corpus, ray_session), threshold=0.5).to_pandas()
    key = lambda df: sorted(zip(df["a"], df["b"], df["jaccard"]))
    assert key(fast) == key(dist)
    # budget-exceeded mid-collect: falls back to the distributed path
    monkeypatch.setattr(ops, "_VERIFY_DRIVER_DOC_CAP", 100_000)
    monkeypatch.setattr(ops, "_VERIFY_DRIVER_HASH_CAP", 1)
    fb = ops.minhash_lsh_pairs(_ds(dup_corpus, ray_session), threshold=0.5).to_pandas()
    assert key(fb) == key(dist)


def test_simhash_pairs_find_neardups(dup_corpus, ray_session):
    out = ops.simhash_pairs(_ds(dup_corpus, ray_session), max_hamming=6).to_pandas()
    planted = {(r, 200000 + i) for i, r in enumerate(dup_corpus["doc_id"].to_pylist()[:15])}
    got = set(zip(out["a"], out["b"]))
    # hamming-6 simhash should catch most 2-token-suffix perturbations
    assert len(got & planted) >= 10
    # verify reported hammings are true
    sh = {r["doc_id"]: ops.simhash64(r["text"].split(" ")) for r in dup_corpus.to_pylist()}
    for a, b, h in zip(out["a"], out["b"], out["hamming"]):
        assert bin(sh[a] ^ sh[b]).count("1") == h <= 6


def test_embedding_topk_vs_numpy(emb_tbl, ray_session):
    mat = np.array(emb_tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(emb_tbl["vec_id"].to_pylist())
    queries = mat[:3]
    out = ops.embedding_topk(_ds(emb_tbl, ray_session), queries, k=5).to_pandas()
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sims = nm @ qn.T
    for qi in range(3):
        sub = out[out["query_idx"] == qi].sort_values("rank")
        order = np.lexsort((ids, -sims[:, qi]))[:5]
        assert list(sub["vec_id"]) == list(ids[order])
        assert np.allclose(sub["cosine"], np.round(sims[order, qi], 4), atol=1e-4)


def test_embedding_neardup_pairs(emb_tbl, ray_session):
    import pyarrow as pa

    # plant near-duplicate vectors (tiny deterministic perturbations) — the
    # raw synthetic embeddings are near-orthogonal (max cosine ≈ 0.48)
    rows = emb_tbl.to_pylist()
    rng = np.random.default_rng(7)
    extra = []
    for i, r in enumerate(rows[:10]):
        v = np.array(r["embedding"], dtype=np.float32)
        extra.append(
            {"vec_id": 900000 + i, "embedding": (v + 0.01 * rng.standard_normal(len(v)).astype(np.float32)).tolist(), "label": r["label"]}
        )
    emb_tbl = pa.concat_tables([emb_tbl, pa.Table.from_pylist(extra, schema=emb_tbl.schema)])
    thr = 0.9
    out = ops.embedding_neardup_pairs(_ds(emb_tbl, ray_session), threshold=thr).to_pandas()
    mat = np.array(emb_tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(emb_tbl["vec_id"].to_pylist())
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = nm @ nm.T
    exp = set()
    for i in range(len(ids)):
        for j in np.where(sims[i] >= thr)[0]:
            if ids[i] < ids[j]:
                exp.add((int(ids[i]), int(ids[j])))
    got = set(zip(out["a"], out["b"]))
    assert got == exp


def test_embedding_lsh_topk_finds_near_neighbors(emb_tbl, ray_session):
    """LSH ANN is an approximate scale path: on near-orthogonal noise it can't
    beat brute force, so test the regime it exists for — queries with a TRUE
    near neighbor (perturbed copies) must retrieve that neighbor at rank 1."""
    mat = np.array(emb_tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(emb_tbl["vec_id"].to_pylist())
    rng = np.random.default_rng(11)
    src = [3, 17, 42, 99, 123]
    queries = np.stack([mat[i] + 0.02 * rng.standard_normal(mat.shape[1]) for i in src])
    approx = ops.embedding_lsh_topk(_ds(emb_tbl, ray_session), queries, k=5, n_planes=6).to_pandas()
    hits = 0
    for qi, i in enumerate(src):
        sub = approx[approx["query_idx"] == qi].sort_values("cosine", ascending=False)
        if len(sub) and sub.iloc[0]["vec_id"] == ids[i]:
            hits += 1
    assert hits >= 4  # hamming-1 multiprobe over 6 planes: ≥80% of planted neighbors


def test_ngram_jaccard_join_path_matches_broadcast(dup_corpus, ray_session):
    """The hash-join combine (100TB scale path) equals the broadcast combine."""
    a = (
        ops.ngram_jaccard_pairs(_ds(dup_corpus, ray_session), n=3, threshold=0.5)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    b = (
        ops.ngram_jaccard_pairs(
            _ds(dup_corpus, ray_session), n=3, threshold=0.5, combine="join"
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert a.equals(b)


def test_near_dedup_keeps_best_per_cluster(dup_corpus, ray_session):
    out = ops.near_dedup(_ds(dup_corpus, ray_session), threshold=0.5).to_pandas()
    texts = dict(zip(dup_corpus["doc_id"].to_pylist(), dup_corpus["text"].to_pylist()))
    exp_pairs = _brute_jaccard_pairs(texts, 3, 0.5)
    # brute clusters + survivor pick by (quality desc, id asc)
    roots = ops.cluster_pairs(exp_pairs.keys())
    clusters = {}
    for did, r in roots.items():
        clusters.setdefault(r, []).append(did)
    import pyarrow as pa

    losers = set()
    for mem in clusters.values():
        def q(d):
            t = ops.quality_score_batch(
                pa.table({"doc_id": [d], "text": [texts[d]]})
            )["quality"][0].as_py()
            return (-t, d)
        best = min(mem, key=q)
        losers |= set(mem) - {best}
    got_ids = set(out["doc_id"])
    assert got_ids == set(texts) - losers
    # minhash recall can miss a pair vs brute jaccard — allow tiny slack
    assert len(got_ids) <= len(set(texts)) - len(losers) + 2


def test_near_dedup_of_empty_input(docs_tbl, ray_session):
    """Zero rows in, zero rows out, as the brute-force clusters say (the
    0-row pair frame has no columns to read)."""
    empty = docs_tbl.schema.empty_table()
    out = ops.near_dedup(_ds(empty, ray_session), threshold=0.5).to_pandas()
    roots = ops.cluster_pairs(_brute_jaccard_pairs({}, 3, 0.5).keys())
    assert roots == {} and len(out) == 0


def test_embedding_ivf_single_list_is_exact(emb_tbl, ray_session):
    """With one coarse list and nprobe=1 every vector is scanned, so IVF
    equals brute force exactly; with a real codebook the per-list cosines
    are still true values (exact precision, approximate recall)."""
    mat = np.array(emb_tbl["embedding"].to_pylist(), dtype=np.float64)
    queries = mat[:3]
    brute = (
        ops.embedding_topk(_ds(emb_tbl, ray_session), queries, k=5)
        .to_pandas()[["query_idx", "vec_id", "cosine"]]
        .sort_values(["query_idx", "vec_id"]).reset_index(drop=True)
    )
    ivf1 = (
        ops.embedding_ivf_topk(_ds(emb_tbl, ray_session), queries, k=5,
                               n_centroids=1, nprobe=1)
        .to_pandas()[["query_idx", "vec_id", "cosine"]]
        .sort_values(["query_idx", "vec_id"]).reset_index(drop=True)
    )
    assert ivf1.equals(brute)

    ivf = ops.embedding_ivf_topk(
        _ds(emb_tbl, ray_session), queries, k=5, n_centroids=8, nprobe=2
    ).to_pandas()
    ids = np.array(emb_tbl["vec_id"].to_pylist())
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    true_cos = qn @ nm.T
    pos = {int(v): i for i, v in enumerate(ids)}
    for r in ivf.itertuples():
        assert abs(r.cosine - round(float(true_cos[r.query_idx, pos[r.vec_id]]), 4)) < 1e-6

    # Scale invariant: the default pinned-head init (centroids=None) must
    # NOT plan a global sort — same structural guard as the k-means trainer.
    import ray.data as _rd
    orig_sort = _rd.Dataset.sort
    calls = []

    def _spy(self, *a, **kw):
        calls.append(a)
        return orig_sort(self, *a, **kw)

    _rd.Dataset.sort = _spy
    try:
        again = ops.embedding_ivf_topk(
            _ds(emb_tbl, ray_session), queries, k=5, n_centroids=8, nprobe=2
        ).to_pandas()
    finally:
        _rd.Dataset.sort = orig_sort
    # the list-grouping / final-topk sorts run over the PRUNED candidate
    # set (nprobe lists, then k rows per query) — those are fine at scale;
    # the regression is a sort keyed on vec_id over the WHOLE table to
    # pick the pinned init head
    assert all("vec_id" not in str(a) for a in calls), calls
    assert again.sort_values(["query_idx", "vec_id"]).reset_index(drop=True).equals(
        ivf.sort_values(["query_idx", "vec_id"]).reset_index(drop=True)
    )


def test_null_text_pinned_as_empty(ray_session):
    """Regression (round-2 review): null text must behave exactly like ''
    (one empty token), not poison counts via a NaN->int64 cast."""
    import pyarrow as pa

    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(["the cat", None, ""])})
    ts = ops.token_stats(_ds(tbl, ray_session)).to_pandas().set_index("doc_id")
    assert ts.loc[1, "n_tokens"] == 2
    assert ts.loc[2, "n_tokens"] == 1 and ts.loc[3, "n_tokens"] == 1  # [''] token
    assert (ts["n_tokens"] > 0).all()
    q = ops.quality_scores(_ds(tbl, ray_session)).to_pandas().set_index("doc_id")
    assert q.loc[2].equals(q.loc[3])
    assert float(q.loc[2, "quality"]) > 0


def test_cluster_pairs_distributed_matches_driver(ray_session):
    """Min-label propagation must reproduce the driver union-find roots
    exactly (component-min convention), including a 21-node CHAIN — the
    worst diameter case for propagation — and ids far apart."""
    import pyarrow as pa
    import ray.data as rd

    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]  # clique
    pairs += [(100 + i, 100 + i + 1) for i in range(20)]  # long chain
    pairs += [(501, 500), (7, 3)]  # reversed order + clique extension
    tbl = pa.table(
        {"a": pa.array([a for a, _ in pairs], pa.int64()),
         "b": pa.array([b for _, b in pairs], pa.int64())}
    )
    labels = ops.cluster_pairs_distributed(rd.from_arrow(tbl)).to_pandas()
    got = dict(zip(labels["node"].astype(int), labels["root"].astype(int)))
    assert got == ops.cluster_pairs(pairs)


def test_near_dedup_distributed_matches_driver(docs_tbl, ray_session, monkeypatch):
    """The distributed clustering + co-located anti-join path must keep the
    SAME survivors as the driver union-find path, on a dup-DOMINATED corpus
    (every base doc has two planted near-copies — pairs ~ O(N), the regime
    the distributed path exists for)."""
    import pyarrow as pa

    rows = docs_tbl.slice(0, 60).to_pylist()
    extra = []
    for i, r in enumerate(rows):
        for k in (0, 1):
            c = dict(r)
            c["doc_id"] = 300000 + 2 * i + k
            c["text"] = r["text"] + (" w0001 w0002" if k == 0 else " w0003 w0004")
            extra.append(c)
    corpus = pa.concat_tables(
        [pa.Table.from_pylist(rows, schema=docs_tbl.schema),
         pa.Table.from_pylist(extra, schema=docs_tbl.schema)]
    )
    a = ops.near_dedup(_ds(corpus, ray_session), threshold=0.5).to_pandas()
    monkeypatch.setattr(ops, "_NEAR_DEDUP_DRIVER_PAIRS", 0)  # distributed only
    b = ops.near_dedup(_ds(corpus, ray_session), threshold=0.5).to_pandas()
    assert len(a) < corpus.num_rows  # dedup actually removed dups
    assert set(a["doc_id"]) == set(b["doc_id"])
    # full row content parity, not just ids
    assert a.sort_values("doc_id").reset_index(drop=True).equals(
        b[a.columns].sort_values("doc_id").reset_index(drop=True)
    )


def test_kmeans_codebook_recovers_clusters(ray_session):
    """Distributed spherical k-means (train_kmeans_codebook): on four
    well-separated direction clusters it must recover all four directions,
    be deterministic across runs (no RNG), and make IVF nprobe=1 recall
    exact for queries at the cluster centers."""
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng(7)
    dim, per = 16, 120
    bases = np.zeros((4, dim))
    for i in range(4):
        bases[i, i * 4] = 1.0  # orthogonal cluster directions
    vecs, ids = [], []
    for ci in range(4):
        noise = rng.normal(0, 0.05, size=(per, dim))
        v = bases[ci] + noise
        vecs.append(v)
        ids.extend(range(ci * per, ci * per + per))
    mat = np.concatenate(vecs)
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat], pa.list_(pa.float64())),
    })
    cb = ops.train_kmeans_codebook(rd.from_arrow(tbl), n_centroids=4, n_iters=15)
    assert cb.shape == (4, dim)
    assert np.allclose(np.linalg.norm(cb, axis=1), 1.0)
    bn = bases / np.linalg.norm(bases, axis=1, keepdims=True)
    # every true direction has a centroid within cos >= 0.99
    assert (np.max(bn @ cb.T, axis=1) > 0.99).all()

    cb2 = ops.train_kmeans_codebook(rd.from_arrow(tbl), n_centroids=4, n_iters=15)
    assert np.array_equal(cb, cb2)  # deterministic end-to-end

    # Scale invariant: the deterministic init must NOT plan a global sort
    # (an all-to-all shuffle of the whole embedding table just to pick K
    # smallest ids).  Guard it structurally: any Dataset.sort call during
    # training is a regression.
    import ray.data as _rd
    orig_sort = _rd.Dataset.sort
    calls = []

    def _spy(self, *a, **kw):
        calls.append(a)
        return orig_sort(self, *a, **kw)

    _rd.Dataset.sort = _spy
    try:
        cb3 = ops.train_kmeans_codebook(rd.from_arrow(tbl), n_centroids=4, n_iters=15)
    finally:
        _rd.Dataset.sort = orig_sort
    assert calls == []  # no Sort operator anywhere in the trainer's plan
    assert np.array_equal(cb, cb3)

    # IVF with the trained codebook: nprobe=1 at a cluster center returns
    # exactly the brute-force top-k (the whole cluster lives in one list)
    queries = bn.copy()
    brute = (
        ops.embedding_topk(rd.from_arrow(tbl), queries, k=5)
        .to_pandas().sort_values(["query_idx", "vec_id"]).reset_index(drop=True)
    )
    ivf = (
        ops.embedding_ivf_topk(rd.from_arrow(tbl), queries, k=5,
                               centroids=cb, nprobe=1)
        .to_pandas().sort_values(["query_idx", "vec_id"]).reset_index(drop=True)
    )
    assert ivf[["query_idx", "vec_id", "cosine"]].equals(
        brute[["query_idx", "vec_id", "cosine"]])


# ---------------------------------------------------------------------------
# HTML strip / context-window chunking / sequence packing


def test_html_strip_brute(ray_session):
    import pyarrow as pa

    raw = [
        '<html><head><script a=1>var x = "</p>";</script><style>b{}</style></head>'
        "<body><p>hello &amp; world</p><!-- hidden --><br/></body></html>",
        "plain text no markup",
        "a &lt;b&gt; c &amp;amp; d &nbsp; e",
        None,
        "<P CLASS='x'>case   insensitive</P>",
    ]
    tbl = pa.table({"doc_id": list(range(5)), "text": raw})
    out = ops.html_strip(_ds(tbl, ray_session)).to_pandas().sort_values("doc_id")
    assert out["clean_text"].tolist() == [
        "hello & world",
        "plain text no markup",
        'a <b> c &amp; d e',  # no double-decode: &amp;amp; -> &amp;
        "",
        "case insensitive",
    ]
    assert out["n_tags"].tolist() == [9, 0, 0, 0, 2]
    assert (out["clean_len"] == out["clean_text"].str.len()).all()


def test_chunk_windows_brute(docs_tbl, ray_session):
    W, S = 7, 5
    out = (
        ops.chunk_windows(_ds(docs_tbl, ray_session), window=W, stride=S)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    rows = []
    for r in docs_tbl.select(["doc_id", "text"]).to_pylist():
        ws = (r["text"] or "").split(" ")
        n = len(ws)
        k = 1 if n <= W else -(-(n - W) // S) + 1
        for i in range(k):
            rows.append((r["doc_id"], i, min(W, n - i * S), " ".join(ws[i * S : i * S + W])))
    assert len(out) == len(rows)
    got = list(out[["doc_id", "chunk_idx", "chunk_n_tokens", "chunk_text"]].itertuples(index=False, name=None))
    assert sorted(got) == sorted(rows)


def test_sequence_pack_brute(docs_tbl, ray_session):
    C = 257  # prime capacity to exercise span boundaries
    out = (
        ops.sequence_pack(_ds(docs_tbl, ray_session), capacity=C, bucket_size=64)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    recs = sorted(docs_tbl.select(["doc_id", "text"]).to_pylist(), key=lambda r: r["doc_id"])
    pos = 0
    for r, (_, o) in zip(recs, out.iterrows()):
        n = len((r["text"] or "").split(" "))
        assert o["doc_id"] == r["doc_id"]
        assert o["n_tokens"] == n
        assert o["tok_start"] == pos
        assert o["bin_first"] == pos // C
        assert o["bin_last"] == (pos + n - 1) // C
        assert o["n_bins"] == (pos + n - 1) // C - pos // C + 1
        pos += n
    # a doc that spans a bin boundary must report n_bins > 1
    assert (out["n_bins"] > 1).any()


def test_vocab_topk_and_unigram_nll_vs_duckdb(docs_tbl, ray_session):
    con = duckdb.connect()
    con.register("documents", docs_tbl)
    v = ops.vocab_topk(_ds(docs_tbl, ray_session), k=10).to_pandas()
    ov = con.sql(
        "WITH t AS (SELECT unnest(string_split(text,' ')) AS token FROM documents),"
        "g AS (SELECT token, count(*)::BIGINT AS freq FROM t GROUP BY token)"
        "SELECT token, freq FROM g ORDER BY freq DESC, token LIMIT 10"
    ).df()
    assert v["token"].tolist() == ov["token"].tolist()
    assert v["freq"].tolist() == ov["freq"].tolist()

    # small vocab_size forces real OOV traffic through the 1/N floor
    u = (
        ops.unigram_surprisal(_ds(docs_tbl, ray_session), vocab_size=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    ou = con.sql(
        "WITH t AS (SELECT doc_id, unnest(string_split(text,' ')) AS token FROM documents),"
        "g AS (SELECT token, count(*)::BIGINT AS freq FROM t GROUP BY token),"
        "tot AS (SELECT sum(freq)::DOUBLE AS n FROM g),"
        "v AS (SELECT token, freq FROM g ORDER BY freq DESC, token LIMIT 5),"
        "s AS (SELECT t.doc_id, ln((SELECT n FROM tot)) - ln(COALESCE(v.freq,1)::DOUBLE) AS nll"
        "     FROM t LEFT JOIN v USING (token))"
        "SELECT doc_id, count(*)::BIGINT AS n_tokens, round(avg(nll),4) AS avg_nll "
        "FROM s GROUP BY doc_id ORDER BY doc_id"
    ).df()
    assert u["n_tokens"].tolist() == ou["n_tokens"].tolist()
    assert np.allclose(u["avg_nll"].to_numpy(), ou["avg_nll"].to_numpy(), atol=1e-4)
    # an all-OOV doc scores exactly ln(N)
    assert (u["avg_nll"] > 0).all()


def test_stratified_topn_and_hash_sample_vs_duckdb(docs_tbl, ray_session):
    con = duckdb.connect()
    con.register("documents", docs_tbl)
    t = (
        ops.stratified_topn(_ds(docs_tbl, ray_session), by="lang", order_col="n_chars", k=7)
        .to_pandas()
        .sort_values(["lang", "n_chars", "doc_id"])
        .reset_index(drop=True)
    )
    ot = con.sql(
        "WITH r AS (SELECT doc_id, lang, n_chars,"
        " row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn"
        " FROM documents)"
        "SELECT doc_id, lang, n_chars FROM r WHERE rn <= 7 "
        "ORDER BY lang, n_chars, doc_id"
    ).df()
    assert t[["doc_id", "lang", "n_chars"]].astype(str).values.tolist() == ot.astype(str).values.tolist()

    s = ops.hash_sample(_ds(docs_tbl, ray_session), rate=0.25).to_pandas()
    osamp = con.sql(
        "SELECT doc_id FROM documents WHERE"
        " ((doc_id % 4294967296)::HUGEINT * 2654435761) % 4294967296 < 1073741824"
        " ORDER BY doc_id"
    ).df()
    assert sorted(s["doc_id"].tolist()) == osamp["doc_id"].tolist()
    assert 0 < len(s) < len(docs_tbl["doc_id"])
    # idempotence: a huge id must not silently wrap differently than SQL
    import pyarrow as pa

    big = pa.table({"doc_id": [2**62 + 12345, 7]})
    eng = ops.hash_sample(_ds(big, ray_session), rate=0.5).to_pandas()["doc_id"].tolist()
    osql = con.sql(
        "SELECT doc_id FROM big WHERE"
        " ((doc_id % 4294967296)::HUGEINT * 2654435761) % 4294967296 < 2147483648"
    ).df()["doc_id"].tolist() if con.register("big", big) or True else []
    assert sorted(eng) == sorted(osql)


def test_chunk_windows_edge_shapes(ray_session):
    import pyarrow as pa

    # n==W (exactly one chunk), n==W+1 (two chunks: full + 1-token tail at
    # start=S), n<W, empty text (one ''-token), null text, and W==S
    texts = {
        1: " ".join(f"t{i}" for i in range(5)),      # n == W
        2: " ".join(f"t{i}" for i in range(6)),      # n == W+1
        3: "a b",                                     # n < W
        4: "",                                        # 1 empty token
        5: None,                                      # null ≡ empty
        6: " ".join(f"t{i}" for i in range(9)),      # n = W + 2S → 3 chunks
    }
    tbl = pa.table({"doc_id": list(texts), "text": list(texts.values())})
    for W, S in [(5, 2), (5, 5), (3, 1)]:
        out = (
            ops.chunk_windows(_ds(tbl, ray_session), window=W, stride=S)
            .to_pandas()
            .sort_values(["doc_id", "chunk_idx"])
        )
        for did, txt in texts.items():
            ws = (txt or "").split(" ")
            n = len(ws)
            k = 1 if n <= W else -(-(n - W) // S) + 1
            sub = out[out.doc_id == did]
            assert len(sub) == k, (W, S, did)
            assert sub.chunk_idx.tolist() == list(range(k))
            for i, row in zip(range(k), sub.itertuples()):
                assert row.chunk_text == " ".join(ws[i * S : i * S + W])
                assert row.chunk_n_tokens == min(W, n - i * S)


def test_sequence_pack_sparse_ids(ray_session):
    """Non-contiguous, non-zero-based ids across many buckets must still
    produce a gap-free global prefix sum in id order."""
    import pyarrow as pa

    ids = [3, 70, 71, 999, 100000, 2**33]  # spans 5 distinct buckets @ 64
    tbl = pa.table(
        {"doc_id": ids, "text": [" ".join(["w"] * (3 * (i + 1))) for i in range(len(ids))]}
    )
    out = (
        ops.sequence_pack(_ds(tbl, ray_session), capacity=7, bucket_size=64)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.doc_id.tolist() == sorted(ids)
    assert out.tok_start.tolist() == [0, 3, 9, 18, 30, 45]
    assert out.n_bins.tolist() == [1, 2, 2, 3, 3, 3]


def test_html_strip_pathological(ray_session):
    import pyarrow as pa

    raw = [
        "<script>unclosed container to EOF",   # no </script>: lone tag, text kept
        "a < b and c > d",                      # bare < swallows to the next > (RE2, both engines)
        "<div <div>> nested-ish",               # first > closes the tag
        "text<!-- unterminated comment",        # no -->: comment opener survives as text
    ]
    tbl = pa.table({"doc_id": list(range(len(raw))), "text": raw})
    out = ops.html_strip(_ds(tbl, ray_session)).to_pandas().sort_values("doc_id")
    assert out["clean_text"].tolist() == [
        "unclosed container to EOF",
        "a d",
        "> nested-ish",
        "text<!-- unterminated comment",
    ]
    # parity: the SAME inputs through the SQL pipeline agree exactly
    con = duckdb.connect()
    con.register("t", tbl)
    o = con.sql(r"""
WITH t1 AS (SELECT doc_id,
  regexp_replace(regexp_replace(regexp_replace(text,
    '(?is)<script\b[^>]*>.*?</script>', ' ', 'g'),
    '(?is)<style\b[^>]*>.*?</style>', ' ', 'g'),
    '(?s)<!--.*?-->', ' ', 'g') AS s1 FROM t),
t2 AS (SELECT doc_id, regexp_replace(s1, '<[^>]*>', ' ', 'g') AS s2 FROM t1)
SELECT doc_id, trim(regexp_replace(
    replace(replace(replace(replace(replace(replace(s2,
      '&lt;','<'),'&gt;','>'),'&quot;','"'),'&#39;',''''),'&nbsp;',' '),'&amp;','&'),
    '\s+', ' ', 'g'), ' ') AS clean FROM t2 ORDER BY doc_id
""").df()
    assert out["clean_text"].tolist() == o["clean"].tolist()


def _brute_substring_dedup(texts: dict[int, str], L: int):
    """Python oracle: exact window strings, corpus-wide count >= 2, merged
    covered-position sets per doc."""
    from collections import Counter

    wins = Counter()
    per_doc = {}
    for d, t in texts.items():
        tok = (t or "").split(" ")
        ws = [" ".join(tok[p : p + L]) for p in range(len(tok) - L + 1)]
        per_doc[d] = (tok, ws)
        wins.update(ws)
    out = {}
    for d, (tok, ws) in per_doc.items():
        covered = set()
        for p, w in enumerate(ws):
            if wins[w] >= 2:
                covered.update(range(p, p + L))
        if not covered:
            continue
        spans = 1
        srt = sorted(covered)
        prev = srt[0]
        for q in srt[1:]:
            if q - prev > 1:
                spans += 1
            prev = q
        out[d] = (len(tok), len(covered), spans, srt)
    return out


def test_substring_dedup_vs_brute(docs_tbl, ray_session):
    import pyarrow as pa

    L = 5
    tbl = docs_tbl.slice(0, 200).select(["doc_id", "text"])
    texts = {r["doc_id"]: r["text"] for r in tbl.to_pylist()}
    brute = _brute_substring_dedup(texts, L)
    assert brute, "fixture corpus must contain duplicated 5-grams"

    out = (
        ops.substring_dedup(_ds(tbl, ray_session), L=L)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert set(out.index) == set(brute)
    for d, (ntok, cov, spans, _) in brute.items():
        row = out.loc[d]
        assert (row["n_tokens"], row["dup_tokens"], row["dup_spans"]) == (ntok, cov, spans)


def test_remove_duplicate_substrings_vs_brute(docs_tbl, ray_session):
    L = 5
    tbl = docs_tbl.slice(0, 120).select(["doc_id", "text"])
    texts = {r["doc_id"]: r["text"] for r in tbl.to_pylist()}
    brute = _brute_substring_dedup(texts, L)

    out = (
        ops.remove_duplicate_substrings(_ds(tbl, ray_session), L=L)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # every input doc comes back exactly once, clean docs verbatim
    assert set(out.index) == set(texts)
    for d, t in texts.items():
        row = out.loc[d]
        tok = (t or "").split(" ")
        if d not in brute:
            assert row["clean_text"] == t and row["dup_tokens"] == 0
        else:
            _, cov, _, covered = brute[d]
            keep = [w for i, w in enumerate(tok) if i not in set(covered)]
            assert row["clean_text"] == " ".join(keep)
            assert row["dup_tokens"] == cov


def _brute_bpe(word_freqs: dict, num_merges: int):
    """Recount-from-scratch reference BPE (no incremental bookkeeping)."""
    from collections import Counter

    syms = {w: tuple(w) + ("</w>",) for w in word_freqs}
    merges = []
    for _ in range(num_merges):
        pc_ = Counter()
        for w, s in syms.items():
            for p in zip(s, s[1:]):
                pc_[p] += word_freqs[w]
        live = [(c, p) for p, c in pc_.items() if c > 0]
        if not live:
            break
        best = min(live, key=lambda cp: (-cp[0], cp[1]))[1]
        merges.append((best[0], best[1], pc_[best]))
        for w, s in syms.items():
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == best[0] and s[i + 1] == best[1]:
                    out.append(best[0] + best[1])
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            syms[w] = tuple(out)
    return merges, syms


def test_train_bpe_matches_brute(docs_tbl, ray_session):
    tbl = docs_tbl.slice(0, 150).select(["doc_id", "text"])
    # reference word counts
    from collections import Counter

    wf = Counter()
    for r in tbl.to_pylist():
        wf.update((r["text"] or "").split(" "))
    wf.pop("", None)

    merges = ops.train_bpe(_ds(tbl, ray_session), num_merges=60)
    brute, brute_syms = _brute_bpe(dict(wf), 60)
    got = list(
        zip(merges["left"].to_pylist(), merges["right"].to_pylist(), merges["freq"].to_pylist())
    )
    assert got == brute

    # apply: fertility per doc matches per-word reference segmentation
    out = (
        ops.bpe_apply(_ds(tbl, ray_session), merges)
        .to_pandas()
        .set_index("doc_id")
    )
    for r in tbl.slice(0, 25).to_pylist():
        toks = (r["text"] or "").split(" ")
        n_pieces = sum(len(brute_syms.get(t, tuple(t) + ("</w>",))) for t in toks)
        assert out.loc[r["doc_id"], "n_pieces"] == n_pieces


def test_semantic_dedup_vs_brute(emb_tbl, ray_session):
    import numpy as np

    tbl = emb_tbl.select(["vec_id", "embedding"])
    ids = np.array(tbl["vec_id"].to_pylist(), dtype=np.int64)
    vecs = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    # fixed centroids so the brute oracle needs no kmeans: 4 smallest-id rows
    order = np.argsort(ids)
    cent = vn[order[:4]]
    out = (
        ops.semantic_dedup(_ds(tbl, ray_session), centroids=cent, threshold=0.8)
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    assert len(out) == len(ids)

    # brute: same assignment + greedy keep in id order
    cl = np.argmax(vn @ cent.T, axis=1)
    exp_kept, exp_dup = {}, {}
    for c in range(4):
        members = ids[cl == c]
        mv = vn[cl == c]
        srt = np.argsort(members)
        kept_idx = []
        for i in srt:
            drop = None
            best = -1.0
            for j in kept_idx:
                s = float(mv[i] @ mv[j])
                if s > best:
                    best, drop = s, j
            if best >= 0.8:
                exp_kept[members[i]] = False
                exp_dup[members[i]] = members[drop]
            else:
                exp_kept[members[i]] = True
                exp_dup[members[i]] = -1
                kept_idx.append(i)
    for v in ids:
        assert bool(out.loc[v, "kept"]) == exp_kept[v], v
        assert out.loc[v, "dup_of"] == exp_dup[v], v

    # determinism of the full kmeans path
    a = ops.semantic_dedup(_ds(tbl, ray_session), n_clusters=4, threshold=0.8).to_pandas()
    b = ops.semantic_dedup(_ds(tbl, ray_session), n_clusters=4, threshold=0.8).to_pandas()
    key = lambda df: df.sort_values("vec_id").reset_index(drop=True)
    assert key(a).equals(key(b))


def _greedy_reference(vn, threshold):
    """The full n x n greedy: each row vs every earlier kept row."""
    import numpy as np

    n = len(vn)
    sims = vn @ vn.T
    kept = np.ones(n, dtype=bool)
    dup = np.full(n, -1, dtype=np.int64)
    best = np.zeros(n)
    for i in range(1, n):
        prior = np.nonzero(kept[:i])[0]
        s = sims[i, prior]
        j = int(np.argmax(s))
        best[i] = s[j]
        if s[j] >= threshold:
            kept[i] = False
            dup[i] = prior[j]
    return kept, dup, best


def test_semantic_dedup_blockwise_matches_greedy_reference(ray_session):
    """One 3000-vector cluster with 1000 planted near-duplicates (some base
    vectors get several, so a copy's nearest kept row may be another copy):
    the blockwise kernel equals the n x n greedy at every block size, and
    never holds anything n x n sized."""
    import tracemalloc

    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(7)
    d, n_base, n_dup = 32, 2000, 1000
    base = rng.normal(size=d) * 3.0 + rng.normal(size=(n_base, d))
    src = rng.integers(0, n_base, size=n_dup)
    dups = base[src] + 0.12 * rng.normal(size=(n_dup, d))
    vecs = np.vstack([base, dups])
    perm = rng.permutation(len(vecs))
    vecs = vecs[perm]
    n = len(vecs)
    ids = np.arange(n, dtype=np.int64) * 3 + 11
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    threshold = 0.97

    exp_kept, exp_dup, exp_sim = _greedy_reference(vn, threshold)
    assert 500 < (~exp_kept).sum() < n_dup + 200  # planted dups really drop

    for block in (1, 97, 256, n + 5):
        kept, nearest, best = ops._greedy_keep(vn, threshold, block=block)
        assert np.array_equal(kept, exp_kept), block
        assert np.array_equal(np.where(kept, -1, nearest), exp_dup), block
        assert np.allclose(best, exp_sim, rtol=0, atol=1e-12), block

    tracemalloc.start()
    ops._greedy_keep(vn, threshold)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < n * n * 8 / 4, peak

    centroid = vn.mean(axis=0, keepdims=True)  # one cluster holds every row
    tbl = pa.table({"vec_id": pa.array(ids), "embedding": pa.array(list(vecs))})
    out = (
        ops.semantic_dedup(_ds(tbl, ray_session), centroids=centroid, threshold=threshold)
        .to_pandas()
        .set_index("vec_id")
        .loc[ids]
    )
    assert np.array_equal(out["kept"].to_numpy(), exp_kept)
    assert np.array_equal(
        out["dup_of"].to_numpy(), np.where(exp_dup < 0, -1, ids[exp_dup])
    )
    assert np.array_equal(
        out["max_sim"].to_numpy(), ops.round_half_away(exp_sim, 4)
    )


def test_substring_dedup_edge_shapes(ray_session):
    import pyarrow as pa

    # docs shorter than L, empty text, nulls, L=2, window crossing
    # doc boundaries must never form
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "text": pa.array(["a b", "", None, "x y x y", "y x y"], type=pa.string()),
        }
    )
    out = (
        ops.substring_dedup(_ds(tbl, ray_session), L=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # windows of 2: doc4 has (x y),(y x),(x y) — "x y" dups internally and
    # with doc5's (y x),(x y); doc5 likewise.  docs 1-3 have no dup windows
    # (doc1's single window "a b" occurs once corpus-wide).
    assert set(out.index) == {4, 5}
    assert out.loc[4, "n_tokens"] == 4 and out.loc[4, "dup_tokens"] == 4
    assert out.loc[5, "n_tokens"] == 3 and out.loc[5, "dup_tokens"] == 3
    assert out.loc[4, "dup_spans"] == 1 and out.loc[5, "dup_spans"] == 1

    clean = (
        ops.remove_duplicate_substrings(_ds(tbl, ray_session), L=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert set(clean.index) == {1, 2, 3, 4, 5}
    assert clean.loc[1, "clean_text"] == "a b"
    assert clean.loc[2, "clean_text"] == ""
    assert clean.loc[3, "clean_text"] == ""  # null pinned == empty
    assert clean.loc[4, "clean_text"] == "" and clean.loc[5, "clean_text"] == ""


def test_temperature_sample_vs_duckdb(docs_tbl, ray_session):
    out = (
        ops.temperature_sample(_ds(docs_tbl, ray_session), by="lang", alpha=0.5, rate=0.5)
        .to_pandas()
        .sort_values("doc_id")
    )
    con = duckdb.connect()
    con.register("documents", docs_tbl)
    oracle = con.sql(
        """
WITH c AS (SELECT lang, count(*)::DOUBLE AS n FROM documents GROUP BY lang),
w AS (SELECT lang, n, pow(n, 0.5) AS pw FROM c),
tot AS (SELECT sum(pw) AS s, sum(n) AS nt FROM w),
q AS (SELECT lang,
             CAST(floor(round(least(1.0, (0.5 * tot.nt) * (pw / tot.s) / n), 6)
                        * 4294967296) AS HUGEINT) AS lim
      FROM w, tot)
SELECT d.doc_id, d.lang FROM documents d JOIN q USING (lang)
WHERE ((d.doc_id % 4294967296)::HUGEINT * 2654435761) % 4294967296 < q.lim
ORDER BY doc_id
        """
    ).df()
    assert out["doc_id"].tolist() == oracle["doc_id"].tolist()
    assert out["lang"].tolist() == oracle["lang"].tolist()
    # the rebalance property: tail strata keep a HIGHER fraction than head
    import pandas as pd

    full = docs_tbl.to_pandas().groupby("lang").size()
    kept = out.groupby("lang").size().reindex(full.index).fillna(0)
    frac = (kept / full).to_dict()
    if len(full) >= 2:
        head, tail = full.idxmax(), full.idxmin()
        if full[head] > full[tail]:
            assert frac[tail] >= frac[head]


def test_temperature_sample_rounds_half_away_like_sql(ray_session):
    """q = 2.5e-6 is an exact 6-decimal tie: SQL ROUND gives 3e-6 (half away
    from zero), np.round 2e-6 (half even).  A row whose hash falls between
    the two thresholds must survive, as it does in the DuckDB oracle."""
    mod, mult = 1 << 32, 2654435761
    inv = pow(mult, -1, mod)
    # doc ids with chosen knuth hashes: kept by both rules, kept only under
    # half-away rounding (2e-6*2^32 <= h < 3e-6*2^32), dropped by both
    hashes = [100, 10_000, 20_000] + [mod // 2 + i for i in range(37)]
    tbl = pa.table({
        "doc_id": pa.array([h * inv % mod for h in hashes], pa.int64()),
        "lang": ["xx"] * len(hashes),
    })
    rate = 2.5e-6
    out = ops.temperature_sample(_ds(tbl, ray_session), by="lang", alpha=0.5, rate=rate)
    got = sorted(out.to_pandas()["doc_id"].tolist())
    con = duckdb.connect()
    con.register("documents", tbl)
    oracle = con.sql(
        f"""
WITH c AS (SELECT lang, count(*)::DOUBLE AS n FROM documents GROUP BY lang),
w AS (SELECT lang, n, pow(n, 0.5) AS pw FROM c),
tot AS (SELECT sum(pw) AS s, sum(n) AS nt FROM w),
q AS (SELECT lang,
             CAST(floor(round(least(1.0, ({rate} * tot.nt) * (pw / tot.s) / n), 6)
                        * 4294967296) AS HUGEINT) AS lim
      FROM w, tot)
SELECT d.doc_id FROM documents d JOIN q USING (lang)
WHERE ((d.doc_id % 4294967296)::HUGEINT * 2654435761) % 4294967296 < q.lim
ORDER BY doc_id
        """
    ).df()["doc_id"].tolist()
    assert got == oracle == sorted(tbl["doc_id"].to_pylist()[:2])


def test_temperature_sample_null_stratum_fails_fast(ray_session):
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()), "lang": ["en", None, "fr"]})
    with pytest.raises(ValueError, match="1 rows have a null 'lang'"):
        ops.temperature_sample(_ds(tbl, ray_session), by="lang")
