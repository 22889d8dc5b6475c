"""Training-data pipeline operators (SURVEY §2.9 + task brief).

Large-scale training-data curation ops over document / embedding tables,
expressed Ray-Data-first: every op is a composition of
``map_batches(batch_format="pyarrow")`` narrow stages plus at most ONE keyed
shuffle (``groupby``), with small sides broadcast via ``ray.put`` and read
inside actor ``__init__`` — never re-shipped per batch.

Inventory
---------
exact-dedup          hash(text) groupby → keep min key        (1 shuffle)
fingerprints         md5 + 64-bit rolling (Rabin-Karp) hash   (narrow)
token_stats          token / distinct counts, char lens       (narrow, vectorized)
quality_score        length + stopword + distinct-ratio heuristic (narrow)
lang_id              marker-set n-gram heuristic, pinned      (narrow)
ngram_jaccard_pairs  EXACT word-shingle Jaccard ≥ t pairs     (shingle shuffle)
minhash_lsh_pairs    MinHash → LSH band buckets → verified pairs (band shuffle)
simhash64            64-bit SimHash + hamming-bucket near-dup (chunk shuffle)
embedding ops        brute-force cosine top-k (broadcast queries),
                     cosine near-dup pairs, LSH-bucketed scale path
html_strip           container/tag/entity strip, shared-RE2 parity (narrow)
chunk_windows        overlapping token windows, ragged-arange gather (narrow)
sequence_pack        concat-and-chunk bins via distributed prefix sum (1 shuffle)
vocab_topk           word-count with map-side combine + partial top-k (1 shuffle)
unigram_surprisal    broadcast top-V unigram LM, mean-NLL scoring    (1 shuffle)
stratified_topn      per-stratum quota, candidates-only shuffle      (1 shuffle)
hash_sample          deterministic Knuth-hash Bernoulli filter       (narrow)

Scale notes are inline per op.  All text ops assume the pinned tokenizer
(SURVEY §2.1.1): documents are space-joined lowercase tokens, so
``split(' ')`` here equals the engine tokenizer and DuckDB
``string_split(text, ' ')`` — which is what makes the SQL oracles in
``__ray_entry__.py`` exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# tokens → exploded numpy views (shared vectorized plumbing)
# ---------------------------------------------------------------------------


def bare_schema(t: pa.Table) -> pa.Table:
    """Drop schema-level metadata (zero-copy).  Parquet written by pandas
    carries a ``b'pandas'`` metadata dict that makes ``pa.Schema`` UNHASHABLE,
    which defeats Ray Data's schema-dedup early exit in every reduce task of
    a shuffle (``unify_schemas`` falls back to a full field-by-field unify
    and logs "Failed to hash the schemas" per block).  Every first-stage
    batch fn that PRESERVES the input schema and feeds a groupby/sort strips
    it here; stages that rebuild via ``pa.table({...})`` are clean already."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def round_half_away(x, decimals: int = 4):
    """Round half away from zero — matches SQL ROUND() (numpy's np.round is
    half-even, which diverges from the DuckDB oracles on exact .5 ties,
    e.g. 0.65625 → 0.6563 not 0.6562)."""
    x = np.asarray(x, dtype=np.float64)
    f = 10.0**decimals
    return np.copysign(np.floor(np.abs(x) * f + 0.5) / f, x)


def _explode_tokens(texts: pa.ChunkedArray | pa.Array):
    """Vectorized token explode: returns (flat_tokens: pa.Array,
    parent_row: np.int64[], n_tokens_per_row: np.int64[]).  Null text is
    pinned ≡ empty text (one "" token) — without the fill, the null rows'
    list lengths are NaN and the int64 cast poisons every count."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    split = pc.split_pattern(texts, " ")
    flat = pc.list_flatten(split)
    parent = pc.list_parent_indices(split).to_numpy(zero_copy_only=False)
    n_tok = pc.list_value_length(split).to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, parent, n_tok


def _unique_per_row(flat: pa.Array, parent: np.ndarray, n_rows: int) -> np.ndarray:
    """Distinct-token count per row, vectorized: dictionary-encode the flat
    token array, unique over (row, code) pairs, bincount rows."""
    if len(flat) == 0:
        return np.zeros(n_rows, dtype=np.int64)
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    pair = parent * (codes.max() + 1) + codes
    uniq = np.unique(pair)
    rows = uniq // (codes.max() + 1)
    return np.bincount(rows, minlength=n_rows).astype(np.int64)


# ---------------------------------------------------------------------------
# vectorized 64-bit string hashing (shared by fingerprints / shingles /
# minhash / simhash — NOT by md5-pinned outputs)
# ---------------------------------------------------------------------------


def _hash_strings(arr) -> np.ndarray:
    """uint64 hash per string, vectorized (pandas siphash with the fixed
    default key — deterministic across processes, C-speed; replaces the
    per-string Python md5 loops that dominated the 100 TB map side)."""
    import pandas as pd

    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = arr.to_numpy(zero_copy_only=False)
    arr = np.asarray(arr, dtype=object)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(arr, categorize=False)


# ---------------------------------------------------------------------------
# keyed reduce: one kernel call per coarse key shard
# ---------------------------------------------------------------------------

SHARDS = 256
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def run_starts(*cols: np.ndarray) -> np.ndarray:
    """True at the first row of every run of equal values in the aligned,
    sorted columns ``cols`` (a new run starts where any column changes)."""
    n = len(cols[0])
    same = np.ones(max(n - 1, 0), dtype=bool)
    for c in cols:
        same &= c[1:] == c[:-1]
    return np.concatenate(([True], ~same)) if n else np.zeros(0, dtype=bool)


def _shard_of(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Shard number in [0, SHARDS) per row: integer keys by value, other
    keys through ``_hash_strings``, mixed by Fibonacci hashing so keys
    with all-zero low bits (window starts) still spread."""
    h = np.zeros(t.num_rows, np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = t[k]
            if pa.types.is_integer(col.type):
                v = pc.fill_null(col, 0).to_numpy(zero_copy_only=False).astype(np.uint64)
            else:
                v = _hash_strings(col)
            h = (h ^ v) * _GOLDEN
    return ((h >> np.uint64(32)) % np.uint64(SHARDS)).astype(np.int64)


def shard_groups(ds, keys, kernel, schema: pa.Schema | None = None):
    """Keyed reduce with one ``kernel`` call per key shard instead of one
    per distinct key.  Rows hash on ``keys`` into ``SHARDS`` coarse
    shards; ``groupby("__shard").map_groups`` sorts them and calls
    ``kernel(table)`` once per shard with ``__shard`` dropped.  Every row
    of a key reaches the same call and a key never spans two calls, so a
    kernel sorts its table by the key and reduces the runs vectorized.

    Group-size bound: a shard holds ~1/SHARDS of the rows of its exchange
    (the sort already puts ~1/blocks of them in each reduce task), plus
    whatever one key brings — a single hot key stays in one call.

    A kernel returns its op's typed empty table when a shard has no
    output.  A Dataset with no rows reaches no kernel call at all (Ray
    skips empty blocks), so an op that passes its output ``schema`` gets
    one typed empty block appended: an empty input then yields a typed
    0-row result."""
    import ray.data as rd

    keys = [keys] if isinstance(keys, str) else list(keys)

    def tag(t: pa.Table) -> pa.Table:
        t = bare_schema(t)
        return t.append_column("__shard", pa.array(_shard_of(t, keys)))

    def run(g: pa.Table) -> pa.Table:
        return kernel(g.drop_columns(["__shard"]))

    run.__name__ = kernel.__name__
    out = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(run, batch_format="pyarrow")
    )
    return out if schema is None else out.union(rd.from_arrow(schema.empty_table()))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

_ROLL_BASE = np.uint64(1099511628211)  # FNV prime as polynomial base


def md5_hex(texts: list[str | None]) -> list[str | None]:
    return [None if t is None else hashlib.md5(t.encode()).hexdigest() for t in texts]


def rolling_fingerprint(tokens: list[str]) -> int:
    """64-bit polynomial rolling hash over the token sequence (document
    fingerprint; order-sensitive, unlike a bag-of-words hash):
    fp = Σ hash(t_i)·BASE^(k-1-i)  (mod 2^64).  The linear form is what
    makes the batch version (``fingerprint_batch``) one reduceat pass."""
    if not tokens:
        return 0
    th = _hash_strings(np.array(tokens, dtype=object))
    k = len(tokens)
    with np.errstate(over="ignore"):
        pows = np.concatenate(
            ([np.uint64(1)], np.cumprod(np.full(k - 1, _ROLL_BASE, dtype=np.uint64)))
        )[::-1]
        return int((th * pows).sum(dtype=np.uint64))


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    md5s = md5_hex(texts)
    flat, parent, n_tok = _explode_tokens(pc.fill_null(batch[text_col], ""))
    th = _hash_strings(flat)
    n_rows = batch.num_rows
    rolls = np.zeros(n_rows, dtype=np.uint64)
    if th.size:
        # split_pattern yields >= 1 token per row (empty text -> [""]), so
        # every reduceat segment is non-empty
        max_k = int(n_tok.max())
        with np.errstate(over="ignore"):
            pows = (
                np.concatenate(
                    ([np.uint64(1)], np.cumprod(np.full(max_k - 1, _ROLL_BASE, dtype=np.uint64)))
                )
                if max_k > 1
                else np.array([1], dtype=np.uint64)
            )
            row_start = np.concatenate(([0], np.cumsum(n_tok)[:-1]))
            pos_in_row = np.arange(th.size, dtype=np.int64) - np.repeat(row_start, n_tok)
            exp = np.repeat(n_tok, n_tok) - 1 - pos_in_row
            rolls = np.add.reduceat(th * pows[exp], row_start)
    # empty/None text pins fp=0 (matches rolling_fingerprint([]))
    empties = np.array([not t for t in texts], dtype=bool)
    rolls[empties] = 0
    return batch.append_column("md5", pa.array(md5s, pa.string())).append_column(
        "fingerprint64", pa.array(rolls, pa.uint64())
    )


def fingerprints(ds, text_col: str = "text"):
    """doc → (…, md5, fingerprint64).  Narrow; no shuffle."""
    return ds.map_batches(lambda b: fingerprint_batch(b, text_col), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(ds, key_col: str = "doc_id", text_col: str = "text"):
    """Exact text dedup: keep the row with the minimum key per distinct
    md5(text) ("first" under the stable key order).  Rows shard by a hash
    of the text (``shard_groups``), so every copy of a text meets in one
    kernel call, which fingerprints its rows with md5, sorts them by
    (md5, key) and keeps the first row of each run.  Returns survivors
    with original columns (the input schema, read from Dataset metadata
    for Parquet/Arrow sources, else from its first block)."""

    def keep_first(g: pa.Table) -> pa.Table:
        fp = pa.array(md5_hex(g[text_col].to_pylist()), pa.string())
        order = pc.sort_indices(
            pa.table({"fp": fp, "key": g[key_col]}),
            sort_keys=[("fp", "ascending"), ("key", "ascending")],
        )
        first = run_starts(fp.take(order).to_numpy(zero_copy_only=False))
        return g.take(order.filter(pa.array(first)))

    schema = ds.schema().base_schema.remove_metadata()
    return shard_groups(ds, text_col, keep_first, schema)


# ---------------------------------------------------------------------------
# token stats / quality / language id  (all narrow + fully vectorized)
# ---------------------------------------------------------------------------

STOPWORDS = ("the", "a", "of", "to", "and", "in", "is", "it")

# pinned marker sets for the lang-id heuristic (deterministic, mirrored in
# the SQL oracle; tie-break = alphabetical language code)
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "a", "is", "and", "of"),
    "de": ("der", "die", "das", "und", "ist"),
    "es": ("el", "la", "los", "y", "es"),
    "fr": ("le", "la", "les", "et", "est"),
    "zh": ("de", "le", "shi", "he", "zai"),
}


def token_stats_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    flat, parent, n_tok = _explode_tokens(batch[text_col])
    n_rows = batch.num_rows
    n_unique = _unique_per_row(flat, parent, n_rows)
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    char_sum = np.bincount(parent, weights=tok_lens, minlength=n_rows).astype(np.int64)
    return pa.table(
        {
            id_col: batch[id_col],
            "n_tokens": pa.array(n_tok),
            "n_unique": pa.array(n_unique),
            "token_chars": pa.array(char_sum),
        }
    )


def token_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(lambda b: token_stats_batch(b, text_col, id_col), batch_format="pyarrow")


# pinned BPE-ish pre-tokenizer (RE2-safe — no lookaround — so pyarrow's
# count_substring_regex and DuckDB's regexp_extract_all agree exactly):
# letter runs | digit runs | runs of other non-space symbols
BPE_PATTERN = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]+"


def bpe_token_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc token count under the pinned BPE-ish pre-tokenizer — the
    'how many LLM tokens is this corpus' estimator.  Fully vectorized:
    one RE2 count kernel per batch, no shuffle."""

    def f(b: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            pc.fill_null(b[text_col], ""), BPE_PATTERN
        ).cast(pa.int64())
        return pa.table({id_col: b[id_col], "n_bpe_tokens": n})

    return ds.map_batches(f, batch_format="pyarrow")


def quality_score_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Pinned quality heuristic (documented in the SQL oracle too):
    distinct_ratio = n_unique/n_tokens; stopword_ratio = stop/n_tokens;
    mean_token_len = token_chars/n_tokens;
    score = round(0.5*distinct_ratio + 0.3*(1-stopword_ratio)
                  + 0.2*min(n_tokens,64)/64, 4)."""
    flat, parent, n_tok = _explode_tokens(batch[text_col])
    n_rows = batch.num_rows
    n_unique = _unique_per_row(flat, parent, n_rows)
    is_stop = pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(zero_copy_only=False)
    stop_cnt = np.bincount(parent, weights=is_stop.astype(np.float64), minlength=n_rows)
    nt = np.maximum(n_tok, 1).astype(np.float64)
    distinct_ratio = n_unique / nt
    stop_ratio = stop_cnt / nt
    score = 0.5 * distinct_ratio + 0.3 * (1.0 - stop_ratio) + 0.2 * np.minimum(n_tok, 64) / 64.0
    return pa.table(
        {
            id_col: batch[id_col],
            "n_tokens": pa.array(n_tok),
            "distinct_ratio": pa.array(round_half_away(distinct_ratio, 4)),
            "stopword_ratio": pa.array(round_half_away(stop_ratio, 4)),
            "quality": pa.array(round_half_away(score, 4)),
        }
    )


def quality_scores(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(lambda b: quality_score_batch(b, text_col, id_col), batch_format="pyarrow")


def lang_id_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Marker-set language scoring: count tokens in each language's marker
    set; predict the argmax (ties → alphabetically first language; all-zero →
    'und').  Deterministic and SQL-mirrored."""
    flat, parent, _ = _explode_tokens(batch[text_col])
    n_rows = batch.num_rows
    langs = sorted(LANG_MARKERS)
    counts = np.zeros((n_rows, len(langs)), dtype=np.int64)
    for j, lang in enumerate(langs):
        hit = pc.is_in(flat, value_set=pa.array(LANG_MARKERS[lang])).to_numpy(zero_copy_only=False)
        counts[:, j] = np.bincount(parent, weights=hit.astype(np.float64), minlength=n_rows)
    best = np.argmax(counts, axis=1)  # first max → alphabetical tie-break
    pred = np.array(langs, dtype=object)[best]
    pred[counts.max(axis=1) == 0] = "und"
    out = {id_col: batch[id_col], "pred_lang": pa.array(list(pred), pa.string())}
    for j, lang in enumerate(langs):
        out[f"score_{lang}"] = pa.array(counts[:, j])
    return pa.table(out)


def lang_id(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(lambda b: lang_id_batch(b, text_col, id_col), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# word-shingle machinery (shared by jaccard / minhash)
# ---------------------------------------------------------------------------


def _shingle_parent_hash(
    texts: pa.ChunkedArray | pa.Array, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized distinct word-shingle hashing for a batch: returns
    (parent_row: int64[], shingle_hash: uint64[]) sorted by (parent, hash)
    and distinct within each row.  n-gram strings are built with ONE
    ``binary_join_element_wise`` over n offset slices of the flat token
    array (no per-row Python loop); rows shorter than n shingle on the whole
    text (== the space-join of their tokens under the pinned tokenizer)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    flat, parent, n_tok = _explode_tokens(texts)
    L = len(flat)
    parts: list[np.ndarray] = []
    hashes: list[np.ndarray] = []
    if L >= n:
        valid = parent[: L - n + 1] == parent[n - 1 :]
        if valid.any():
            joined = pc.binary_join_element_wise(
                *[flat.slice(i, L - n + 1) for i in range(n)], " "
            )
            parts.append(parent[: L - n + 1][valid])
            hashes.append(_hash_strings(joined.filter(pa.array(valid))))
    short = np.flatnonzero(n_tok < n)
    if short.size:
        parts.append(short.astype(np.int64))
        hashes.append(_hash_strings(texts.take(pa.array(short))))
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    p = np.concatenate(parts)
    h = np.concatenate(hashes)
    order = np.lexsort((h, p))
    p, h = p[order], h[order]
    keep = np.concatenate(([True], (p[1:] != p[:-1]) | (h[1:] != h[:-1])))
    return p[keep], h[keep]


def shingle_explode(ds, n: int = 3, text_col: str = "text", id_col: str = "doc_id"):
    """doc → (id, shingle_hash) distinct pairs.  Narrow, fully vectorized.
    Projects to (id, text) first so the parquet read prunes all other
    columns (SURVEY: prune at the read)."""
    ds = ds.select_columns([id_col, text_col])

    def explode(b: pa.Table) -> pa.Table:
        p, h = _shingle_parent_hash(b[text_col], n)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[p] if p.size else np.empty(0, np.int64)),
                "shingle": pa.array(h),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def ngram_jaccard_pairs(
    ds,
    n: int = 3,
    threshold: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
    hot_shingle_cap: int = 2_000,
    combine: str = "join",
):
    """EXACT n-gram-shingle Jaccard near-dup pairs (a, b, jaccard ≥ t), a < b.

    Plan: explode distinct shingles (narrow) → groupby(shingle) emits candidate
    pairs sharing a shingle with multiplicity (ONE shuffle, keyed by shingle
    hash) → groupby(pair) counts |A∩B| → jaccard from per-doc shingle counts.

    Scale: the default combine is a distributed hash JOIN of the per-doc
    size table (100 TB-safe); ``combine="broadcast"`` is the explicit
    small-N option (driver collect + ray.put of the id→count map — only
    while that side table fits worker heaps).  Shingle groups larger than
    ``hot_shingle_cap`` would emit O(cap²) pairs; they are dropped with a
    logged warning — a shingle shared by >2k docs is boilerplate and
    carries ~zero Jaccard signal, while one 10k-doc group would emit ~5·10⁷
    pairs into the pair shuffle.
    """
    import ray

    pairs_src = shingle_explode(ds, n, text_col, id_col)

    sizes_ds = pairs_src.groupby(id_col).count()
    if combine == "broadcast":
        # per-doc distinct shingle counts (small side): driver collect +
        # ray.put once — right while the id→count table fits worker heaps
        sizes_tbl = sizes_ds.to_pandas()
        sizes = dict(
            zip(sizes_tbl[id_col].astype(np.int64), sizes_tbl["count()"].astype(np.int64))
        )
        sizes_ref = ray.put(sizes)
    else:
        sizes_ref = None  # "join" scale path below

    common = shard_groups(
        pairs_src, "shingle", lambda g: _emit_run_pairs(g, id_col, "shingle", hot_shingle_cap)
    ).groupby(["a", "b"]).count()

    if combine == "join":
        # scale path: distribute the per-doc sizes to pairs with the same
        # doc-keyed groupby co-location used by _verified_jaccard — works
        # when the doc-count table exceeds worker heaps (100 TB regime).
        # (Implemented over groupby, not Dataset.join: the hash-shuffle join
        # backend deadlocks under small local clusters and its chained form
        # spawned unbounded workers in testing.)
        SZ_SCHEMA = pa.schema(
            [
                ("doc", pa.int64()),
                ("pair_a", pa.int64()),
                ("pair_b", pa.int64()),
                ("side", pa.int32()),
                ("inter", pa.int64()),
                ("sz", pa.int64()),
            ]
        )

        def pair_need(b: pa.Table) -> pa.Table:
            a = b["a"].to_numpy(zero_copy_only=False).astype(np.int64)
            bb = b["b"].to_numpy(zero_copy_only=False).astype(np.int64)
            c = b["count()"].to_numpy(zero_copy_only=False).astype(np.int64)
            n = a.size
            return pa.table(
                {
                    "doc": pa.array(np.concatenate([a, bb])),
                    "pair_a": pa.array(np.concatenate([a, a])),
                    "pair_b": pa.array(np.concatenate([bb, bb])),
                    "side": pa.array(np.concatenate([np.zeros(n, np.int32), np.ones(n, np.int32)])),
                    "inter": pa.array(np.concatenate([c, c])),
                    "sz": pa.nulls(2 * n, pa.int64()),
                },
                schema=SZ_SCHEMA,
            )

        def size_rows(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table(
                {
                    "doc": t[id_col].cast(pa.int64()),
                    "pair_a": pa.nulls(n, pa.int64()),
                    "pair_b": pa.nulls(n, pa.int64()),
                    "side": pa.array(np.full(n, -1, np.int32)),
                    "inter": pa.nulls(n, pa.int64()),
                    "sz": t["count()"].cast(pa.int64()),
                },
                schema=SZ_SCHEMA,
            )

        def attach(g: pa.Table) -> pa.Table:
            # per doc: its size row (side -1) sorts first, then its pair rows
            doc = g["doc"].to_numpy(zero_copy_only=False)
            side = g["side"].to_numpy(zero_copy_only=False)
            order = np.lexsort((side, doc))
            doc, side = doc[order], side[order]
            starts = np.flatnonzero(run_starts(doc))
            head = np.repeat(starts, np.diff(np.append(starts, doc.size)))
            keep = (side != -1) & (side[head] == -1)
            sz = g["sz"].to_numpy(zero_copy_only=False)[order][head[keep]]
            p = g.take(pa.array(order[keep]))
            return p.set_column(
                p.schema.get_field_index("sz"), "sz", pa.array(sz.astype(np.int64))
            )

        def jac_final(g: pa.Table) -> pa.Table:
            # per pair: one side-0 and one side-1 row, each carrying its size
            pa_ = g["pair_a"].to_numpy(zero_copy_only=False)
            pb_ = g["pair_b"].to_numpy(zero_copy_only=False)
            side = g["side"].to_numpy(zero_copy_only=False)
            order = np.lexsort((side, pb_, pa_))
            pa_, pb_, side = pa_[order], pb_[order], side[order]
            sz = g["sz"].to_numpy(zero_copy_only=False)[order].astype(np.float64)
            inter = g["inter"].to_numpy(zero_copy_only=False)[order].astype(np.float64)
            first = np.flatnonzero(run_starts(pa_, pb_))
            last = np.append(first[1:], pa_.size) - 1
            ok = (side[first] == 0) & (side[last] == 1)
            first, last = first[ok], last[ok]
            j = inter[first] / (sz[first] + sz[last] - inter[first])
            hit = j >= threshold
            return pa.table(
                {
                    "a": pa.array(pa_[first[hit]].astype(np.int64)),
                    "b": pa.array(pb_[first[hit]].astype(np.int64)),
                    "jaccard": pa.array(round_half_away(j[hit], 4)),
                },
                schema=_PAIR_SCHEMA,
            )

        # semi-join prune (r4, mirrors _verified_jaccard): only docs that
        # appear in some candidate pair need their size delivered.  The
        # pair set is collision-bounded and already reduced — materialize
        # it, broadcast its distinct doc ids, and filter the corpus-wide
        # size table BEFORE the doc-keyed exchange (one group per
        # CANDIDATE doc, not per corpus doc).  Above the cap: full
        # exchange, identical results.
        common = common.materialize()
        id_parts = []
        for b in common.select_columns(["a", "b"]).iter_batches(
            batch_format="pyarrow"
        ):
            id_parts.append(b["a"].to_numpy(zero_copy_only=False).astype(np.int64))
            id_parts.append(b["b"].to_numpy(zero_copy_only=False).astype(np.int64))
        cand_docs = (
            np.unique(np.concatenate(id_parts)) if id_parts else np.empty(0, np.int64)
        )
        if cand_docs.size == 0:
            import ray.data as rd

            return rd.from_arrow(_PAIR_SCHEMA.empty_table())
        if cand_docs.size <= _VERIFY_BCAST_CAP:
            docs_ref = ray.put(cand_docs)

            def prune_sizes(t: pa.Table, *, _ref=docs_ref) -> pa.Table:
                ids = ray.get(_ref)
                col = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
                pos = np.searchsorted(ids, col)
                pos[pos == ids.size] = 0
                return t.filter(pa.array(ids[pos] == col))

            sizes_ds = sizes_ds.map_batches(prune_sizes, batch_format="pyarrow")

        need = common.map_batches(pair_need, batch_format="pyarrow")
        szr = sizes_ds.map_batches(size_rows, batch_format="pyarrow")
        attached = shard_groups(need.union(szr), "doc", attach)
        return shard_groups(attached, ["pair_a", "pair_b"], jac_final)

    def to_jaccard(b: pa.Table) -> pa.Table:
        sz = ray.get(sizes_ref)
        a = b["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        inter = b["count()"].to_numpy(zero_copy_only=False).astype(np.float64)
        sa = np.array([sz[x] for x in a], dtype=np.float64)
        sb = np.array([sz[x] for x in bb], dtype=np.float64)
        j = inter / (sa + sb - inter)
        keep = j >= threshold
        return pa.table(
            {
                "a": pa.array(a[keep]),
                "b": pa.array(bb[keep]),
                "jaccard": pa.array(round_half_away(j[keep], 4)),
            }
        )

    return common.map_batches(to_jaccard, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)


@dataclass
class MinHashCfg:
    num_perm: int = 128
    bands: int = 32  # rows per band = num_perm // bands
    shingle_n: int = 3
    seed: int = 42
    # (a, b) affine perm parameters, derived deterministically from seed
    _ab: np.ndarray = field(default=None, repr=False)

    def perms(self) -> np.ndarray:
        if self.num_perm % self.bands != 0:
            raise ValueError(
                f"num_perm ({self.num_perm}) must be divisible by bands ({self.bands})"
            )
        if self._ab is None:
            rng = np.random.default_rng(self.seed)
            a = rng.integers(1, int(_MERSENNE), self.num_perm, dtype=np.uint64)
            b = rng.integers(0, int(_MERSENNE), self.num_perm, dtype=np.uint64)
            object.__setattr__(self, "_ab", np.stack([a, b]))
        return self._ab


_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)
_BUCKET_CAP = 10_000
# verify-stage semi-join broadcast cap: distinct candidate docs above this
# skip the broadcast prune (40 MB of int64 at the cap) and take the full
# doc-keyed exchange instead — correctness is identical
_VERIFY_BCAST_CAP = 5_000_000


def minhash_band_table(
    batch: pa.Table, cfg: MinHashCfg, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Narrow signature stage, fully vectorized: per-row minhash signature
    via (P × S) affine perms + ``np.minimum.reduceat`` over row runs, then
    per-band FNV-1a folds → (id, bucket) rows (bands × rows).  The band
    index is BAKED INTO the bucket hash (the FNV accumulator is seeded with
    ``offset ^ (band+1)``), so no separate band column travels through the
    exchange: same-band same-signature docs still collide, cross-band
    collisions need a 2⁻⁶³ hash coincidence — and any such false candidate
    is rejected by the exact-Jaccard verify anyway."""
    p, h = _shingle_parent_hash(batch[text_col], cfg.shingle_n)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    n_rows = batch.num_rows
    P = cfg.num_perm
    if n_rows == 0:
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
            }
        )
    # every row yields >= 1 shingle (empty text shingles on ""), so the
    # reduceat segments are aligned 1:1 with rows
    row_start = np.searchsorted(p, np.arange(n_rows))
    ab = cfg.perms()
    sig = np.empty((P, n_rows), np.uint64)
    with np.errstate(over="ignore"):
        for p0 in range(0, P, 16):
            pe = min(p0 + 16, P)
            vals = (ab[0][p0:pe][:, None] * h[None, :] + ab[1][p0:pe][:, None]) & _MERSENNE
            sig[p0:pe] = np.minimum.reduceat(vals, row_start, axis=1)
        r = P // cfg.bands
        buckets = np.empty((cfg.bands, n_rows), np.uint64)
        for band in range(cfg.bands):
            acc = np.full(n_rows, _FNV_OFFSET ^ np.uint64(band + 1), dtype=np.uint64)
            for c in range(band * r, (band + 1) * r):
                acc = (acc ^ sig[c]) * _FNV_PRIME
            buckets[band] = acc
    return pa.table(
        {
            id_col: pa.array(np.tile(ids, cfg.bands)),
            "bucket": pa.array((buckets.reshape(-1) & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)),
        }
    )


def _emit_run_pairs(g: pa.Table, id_col: str, key_col: str, cap: int = _BUCKET_CAP) -> pa.Table:
    """All (a < b) id pairs within equal-``key_col`` runs of ``g`` — the
    pair kernel of the shingle and LSH-bucket exchanges: one lexsort,
    run-length boundaries, then a loop over the (few) runs with ≥2
    members only.  Runs above ``cap`` are dropped with a warning."""
    ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    keys = g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, keys))
    i = ids[order]
    starts = np.flatnonzero(run_starts(keys[order]))
    sizes = np.diff(np.append(starts, i.size))
    out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for s, n in zip(starts[sizes >= 2], sizes[sizes >= 2]):
        if n > cap:
            import logging

            logging.getLogger(__name__).warning(
                "bucket with %d docs exceeds cap %d — dropped (%d pairs skipped)",
                n, cap, n * (n - 1) // 2,
            )
            continue
        run = i[s : s + n]
        ia, ib = np.triu_indices(int(n), k=1)
        out_a.append(run[ia])
        out_b.append(run[ib])
    return pa.table({"a": np.concatenate(out_a), "b": np.concatenate(out_b)})


_VERIFY_DRIVER_DOC_CAP = 100_000  # candidate docs for the driver fast path
_VERIFY_DRIVER_HASH_CAP = 8_000_000  # total collected shingle hashes (~64 MB)


def _driver_verify(cand, cand_docs: np.ndarray, raw, threshold: float, id_col: str):
    """Exact Jaccard for a SMALL candidate pair set on the driver: one
    pruned narrow corpus pass emits (doc, shingle-set) rows for candidate
    docs only, the driver collects them under a hard hash budget and
    finishes the pair math vectorized.  Returns None when the budget is
    exceeded (caller falls back to the distributed verify)."""
    import ray
    import ray.data as rd

    ds_r, n_sh, text_col = raw
    docs_ref = ray.put(cand_docs)  # sorted by np.unique

    def doc_sets(t: pa.Table, *, _ref=docs_ref) -> pa.Table:
        ids_sorted = ray.get(_ref)
        col = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(ids_sorted, col)
        pos[pos == ids_sorted.size] = 0
        t = t.filter(pa.array(ids_sorted[pos] == col))
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "set": pa.array([], pa.list_(pa.uint64()))})
        # distinct-within-row sorted (parent, hash); every row yields ≥1
        # shingle, so searchsorted run boundaries align 1:1 with rows
        p, h = _shingle_parent_hash(t[text_col], n_sh)
        starts = np.searchsorted(p, np.arange(t.num_rows))
        offsets = np.concatenate((starts, [p.size])).astype(np.int64)
        la = pa.LargeListArray.from_arrays(pa.array(offsets), pa.array(h))
        return pa.table({id_col: t[id_col].cast(pa.int64()),
                         "set": la.cast(pa.list_(pa.uint64()))})

    sets: dict[int, np.ndarray] = {}
    total = 0
    src = ds_r.select_columns([id_col, text_col]).map_batches(
        doc_sets, batch_format="pyarrow"
    )
    for b in src.iter_batches(batch_format="pyarrow"):
        ids = b[id_col].to_numpy(zero_copy_only=False)
        col = b["set"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        for i, d in enumerate(ids):
            arr = np.asarray(col[i].values, dtype=np.uint64)
            total += arr.size
            d = int(d)
            prev = sets.get(d)
            # duplicate doc ids union (the distributed path's doc-groupby
            # semantics); unique ids — the common case — just assign
            sets[d] = arr if prev is None else np.union1d(prev, arr)
        if total > _VERIFY_DRIVER_HASH_CAP:
            return None
    a_parts, b_parts = [], []
    for t in cand.select_columns(["a", "b"]).iter_batches(batch_format="pyarrow"):
        a_parts.append(t["a"].to_numpy(zero_copy_only=False).astype(np.int64))
        b_parts.append(t["b"].to_numpy(zero_copy_only=False).astype(np.int64))
    a = np.concatenate(a_parts)
    bb = np.concatenate(b_parts)
    # dedup pairs (a pair colliding in k LSH bands arrives k times)
    order = np.lexsort((bb, a))
    a, bb = a[order], bb[order]
    first = np.concatenate(([True], (a[1:] != a[:-1]) | (bb[1:] != bb[:-1])))
    a, bb = a[first], bb[first]
    out_a, out_b, out_j = [], [], []
    for x, y in zip(a, bb):
        A, B = sets[int(x)], sets[int(y)]
        inter = np.intersect1d(A, B, assume_unique=True).size
        j = inter / (A.size + B.size - inter)
        if j >= threshold:
            out_a.append(int(x))
            out_b.append(int(y))
            out_j.append(float(round_half_away(j, 4)))
    return rd.from_arrow(pa.table(
        {"a": pa.array(out_a, pa.int64()), "b": pa.array(out_b, pa.int64()),
         "jaccard": pa.array(out_j, pa.float64())},
        schema=_PAIR_SCHEMA,
    ))


_DIST_SCHEMA = pa.schema(
    [
        ("doc", pa.int64()),
        ("pair_a", pa.int64()),
        ("pair_b", pa.int64()),
        ("side", pa.int32()),
        ("shingle", pa.uint64()),
    ]
)
_PAIR_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
)


def _verified_jaccard(cand, shingles, threshold: float, id_col: str, raw=None):
    """EXACT Jaccard for the candidate pair set, fully distributed — the
    100 TB-safe replacement for the v1 broadcast-shingle-sets verify.

    Doc-keyed co-location (two groupby exchanges, no joins, no driver
    state): each candidate pair (a, b) explodes into two need-rows keyed by
    doc; union with the shingle explode; groupby(doc) hands the doc's
    distinct shingle set to every pair that needs it; groupby(pair)
    computes |A∩B| / |A∪B| exactly from the two delivered sets.  Shuffle
    volume = Σ over candidate pairs of (|A| + |B|) — proportional to the
    LSH candidate set, never to the corpus."""
    import ray
    import ray.data as rd

    # semi-join prune (r4): the doc-keyed exchange below only needs the
    # shingles of docs that appear in SOME candidate pair — a set bounded
    # by 2 × |LSH pairs|, tiny next to the corpus.  Materialize the (small)
    # pair set once, broadcast its distinct doc ids via ray.put, and filter
    # the corpus-wide shingle explode BEFORE it enters the shuffle: the
    # exchange carries O(candidate shingles) instead of O(corpus shingles),
    # and the doc-groupby dispatches one Python group per CANDIDATE doc
    # instead of one per corpus doc.  Above _VERIFY_BCAST_CAP distinct docs
    # the prune is skipped (results identical either way, just slower).
    # When the caller hands ``raw=(ds, shingle_n, text_col)`` the prune runs
    # on CORPUS ROWS before any shingle hashing — the verify pass then only
    # re-shingles candidate docs instead of recomputing every doc's hashes
    # a second time (the explode is pure compute the signature stage already
    # paid once for the whole corpus).
    cand = cand.materialize()
    id_parts = []
    for b in cand.select_columns(["a", "b"]).iter_batches(batch_format="pyarrow"):
        id_parts.append(b["a"].to_numpy(zero_copy_only=False).astype(np.int64))
        id_parts.append(b["b"].to_numpy(zero_copy_only=False).astype(np.int64))
    cand_docs = (
        np.unique(np.concatenate(id_parts)) if id_parts else np.empty(0, np.int64)
    )
    if cand_docs.size == 0:
        return rd.from_arrow(_PAIR_SCHEMA.empty_table())
    if raw is not None and cand_docs.size <= _VERIFY_DRIVER_DOC_CAP:
        # SMALL-candidate fast path (r5): LSH at a real threshold leaves a
        # pair set that is tiny relative to the corpus by construction
        # (same argument as cluster_pairs' driver union-find, which the
        # corpus-scale design review already accepts).  The two groupby
        # exchanges below cost ~1.5 s EACH in fixed all-to-all machinery at
        # 32 CPUs even when they move a few hundred rows — so when the
        # candidate docs' shingle sets fit an explicit driver budget, skip
        # both: one pruned narrow pass computes each candidate doc's
        # distinct shingle set (a doc's text lives in exactly one corpus
        # row, so its set needs NO exchange to assemble), the driver
        # collects ≤ _VERIFY_DRIVER_HASH_CAP hashes (~64 MB) and finishes
        # the exact Jaccards vectorized.  If the budget is exceeded
        # mid-collect, fall through to the fully distributed path —
        # results are identical either way.
        got = _driver_verify(cand, cand_docs, raw, threshold, id_col)
        if got is not None:
            return got
    if cand_docs.size <= _VERIFY_BCAST_CAP:
        docs_ref = ray.put(cand_docs)  # sorted by np.unique

        def prune(t: pa.Table, *, _ref=docs_ref) -> pa.Table:
            ids = ray.get(_ref)  # zero-copy plasma read per task
            col = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(ids, col)
            pos[pos == ids.size] = 0
            return t.filter(pa.array(ids[pos] == col))

        if raw is not None:
            ds_r, n_sh, text_col = raw
            shingles = shingle_explode(
                ds_r.select_columns([id_col, text_col]).map_batches(
                    prune, batch_format="pyarrow"
                ),
                n_sh,
                text_col,
                id_col,
            )
        else:
            shingles = shingles.map_batches(prune, batch_format="pyarrow")
    elif shingles is None:
        ds_r, n_sh, text_col = raw
        shingles = shingle_explode(ds_r, n_sh, text_col, id_col)

    def pair_rows(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = a.size
        return pa.table(
            {
                "doc": pa.array(np.concatenate([a, bb])),
                "pair_a": pa.array(np.concatenate([a, a])),
                "pair_b": pa.array(np.concatenate([bb, bb])),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int32), np.ones(n, np.int32)]
                    )
                ),
                "shingle": pa.nulls(2 * n, pa.uint64()),
            },
            schema=_DIST_SCHEMA,
        )

    def shingle_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "doc": t[id_col].cast(pa.int64()),
                "pair_a": pa.nulls(n, pa.int64()),
                "pair_b": pa.nulls(n, pa.int64()),
                "side": pa.array(np.full(n, -1, np.int32)),
                "shingle": t["shingle"],
            },
            schema=_DIST_SCHEMA,
        )

    need = cand.map_batches(pair_rows, batch_format="pyarrow")
    shr = shingles.map_batches(shingle_rows, batch_format="pyarrow")

    def distribute(g: pa.Table) -> pa.Table:
        doc = g["doc"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        own = side == -1
        # each doc's shingle rows, as one slice per doc of a doc-sorted array
        o = np.flatnonzero(own)
        o = o[np.argsort(doc[o], kind="stable")]
        sh = g["shingle"].to_numpy(zero_copy_only=False)[o].astype(np.uint64)
        sdoc = doc[o]
        sh_start = np.flatnonzero(run_starts(sdoc))
        sh_cnt = np.diff(np.append(sh_start, sdoc.size))
        # pair rows, deduped per doc: a pair colliding in k LSH bands
        # arrives k times, and replicating the doc's shingles once per copy
        # would multiply the pair exchange.  Within one doc a pair has a
        # single side (the doc is either a or b), so (doc, pair_a, pair_b)
        # identifies the copies.
        p = np.flatnonzero(~own)
        pdoc = doc[p]
        pa_ = g["pair_a"].to_numpy(zero_copy_only=False)[p].astype(np.int64)
        pb_ = g["pair_b"].to_numpy(zero_copy_only=False)[p].astype(np.int64)
        pside = side[p]
        order = np.lexsort((pb_, pa_, pdoc))
        order = order[run_starts(pdoc[order], pa_[order], pb_[order])]
        pdoc, pa_, pb_, pside = pdoc[order], pa_[order], pb_[order], pside[order]
        # pair rows of docs without shingle rows deliver nothing
        heads = sdoc[sh_start]
        at = np.searchsorted(heads, pdoc)
        has = at < heads.size
        has[has] = heads[at[has]] == pdoc[has]
        at, pa_, pb_, pside = at[has], pa_[has], pb_[has], pside[has]
        reps = sh_cnt[at]
        out0 = np.cumsum(reps) - reps
        gather = np.arange(int(reps.sum())) - np.repeat(out0 - sh_start[at], reps)
        n = gather.size
        return pa.table(
            {
                "doc": pa.nulls(n, pa.int64()),
                "pair_a": pa.array(np.repeat(pa_, reps)),
                "pair_b": pa.array(np.repeat(pb_, reps)),
                "side": pa.array(np.repeat(pside, reps).astype(np.int32)),
                "shingle": pa.array(sh[gather]),
            },
            schema=_DIST_SCHEMA,
        )

    def finish(g: pa.Table) -> pa.Table:
        pa_ = g["pair_a"].to_numpy(zero_copy_only=False)
        pb_ = g["pair_b"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        sh = g["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((side, sh, pb_, pa_))
        pa_, pb_, side, sh = pa_[order], pb_[order], side[order], sh[order]
        # distinct (pair, shingle, side) rows: a shingle is then shared by
        # both docs of a pair iff it is the second row of its (pair, shingle) run
        d = run_starts(pa_, pb_, sh, side)
        pa_, pb_, side, sh = pa_[d], pb_[d], side[d], sh[d]
        starts = run_starts(pa_, pb_)
        pair = np.cumsum(starts) - 1
        n_pairs = int(starts.sum())
        size_a = np.bincount(pair, weights=side == 0, minlength=n_pairs)
        size_b = np.bincount(pair, weights=side == 1, minlength=n_pairs)
        inter = np.bincount(pair[~run_starts(pa_, pb_, sh)], minlength=n_pairs)
        ok = (size_a > 0) & (size_b > 0)
        j = np.zeros(n_pairs)
        j[ok] = inter[ok] / (size_a[ok] + size_b[ok] - inter[ok])
        hit = ok & (j >= threshold)
        first = np.flatnonzero(starts)[hit]
        return pa.table(
            {
                "a": pa.array(pa_[first].astype(np.int64)),
                "b": pa.array(pb_[first].astype(np.int64)),
                "jaccard": pa.array(round_half_away(j[hit], 4)),
            },
            schema=_PAIR_SCHEMA,
        )

    dist = shard_groups(need.union(shr), "doc", distribute)
    return shard_groups(dist, ["pair_a", "pair_b"], finish)


def minhash_lsh_pairs(
    ds,
    cfg: MinHashCfg | None = None,
    threshold: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """MinHash → LSH banding → candidate pairs → EXACT Jaccard verify ≥ t.

    Plan: narrow vectorized signature stage → bucket-keyed
    ``shard_groups`` emits candidate pairs → DISTRIBUTED exact
    verification (`_verified_jaccard`: doc-keyed co-location with the
    shingle explode, which also dedupes the pairs).  Every stage is a
    keyed exchange or narrow map — no driver-side materialization of
    corpus-sized state, so the op survives the 100 TB regime (the v1
    broadcast-shingle-sets verify did not).
    Output (a, b, jaccard); approximate RECALL (LSH can miss pairs — tune
    ``cfg.bands`` up for higher recall), exact PRECISION (verified).
    """
    cfg = cfg or MinHashCfg()

    # the band is baked into the bucket hash, so the bucket alone keys the
    # exchange (no band column travels); one kernel call emits the pairs of
    # many whole buckets
    bands = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: minhash_band_table(b, cfg, text_col, id_col),
        batch_format="pyarrow",
    )
    # no groupby(a, b) dedupe shuffle here: pairs colliding in >1 band are
    # deduped inside the verify's doc-keyed distribute kernel — one fewer
    # all-to-all, and the duplicate rows ride an exchange the verify pays
    # anyway (they are bounded by bands × true pairs)
    cand = shard_groups(bands, "bucket", lambda g: _emit_run_pairs(g, id_col, "bucket"))
    # shingles=None + raw: the verify stage builds the explode itself with
    # the candidate-doc row prune applied BEFORE hashing (one full-corpus
    # shingle pass instead of two)
    return _verified_jaccard(
        cand, None, threshold, id_col, raw=(ds, cfg.shingle_n, text_col)
    )


# ---------------------------------------------------------------------------
# near-dup clustering + survivor selection
# ---------------------------------------------------------------------------


def cluster_pairs(pairs) -> dict[int, int]:
    """Union-find over near-dup pairs → {doc_id: cluster_root}.  The pair
    set is tiny relative to the corpus by construction (already thresholded),
    so this runs on the driver even at 100 TB corpus scale — the heavy work
    (finding the pairs) stayed distributed."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def cluster_pairs_distributed(pairs, max_iters: int = 60):
    """Connected components of an (a, b) pair Dataset, fully distributed:
    iterated min-label propagation.  Returns a Dataset of (node, root)
    where root = the component's minimum node id — the SAME root
    convention as the driver ``cluster_pairs`` (union by min), so the two
    paths are interchangeable.

    Per iteration (2 keyed shuffles over the PAIR set, never the corpus):
      1. co-locate static edge rows with current label rows by node
         (``shard_groups``); inside one vectorized kernel call, compute
         each node's current label lu = min(own labels, node) with
         ``np.minimum.reduceat`` over node-sorted runs, then emit lu to
         every neighbor plus a self row — NO per-node Python dispatch
         (the singleton-group trap the shuffle-merge rework fixed);
      2. ``groupby(node).min(val)`` (native vectorized aggregate) folds
         the proposals into the new label table.

    Labels are elementwise non-increasing and bounded, so the global label
    SUM is a convergence certificate: equal sums ⇒ fixed point.  Rounds
    needed = O(max component diameter); near-dup components are
    clique-like (diameter ≲ 4), and ``max_iters`` bounds pathological
    chains.  Driver memory: O(1) — only the sum scalar is collected."""
    import ray.data as rd  # noqa: F401  (documents the Dataset-native contract)

    def edge_rows(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = b["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, c])),
                "val": pa.array(np.concatenate([c, a])),
                "is_label": pa.array(np.zeros(2 * a.size, np.int8)),
            }
        )

    edges = pairs.map_batches(edge_rows, batch_format="pyarrow").materialize()

    def propagate(g: pa.Table) -> pa.Table:
        node = g["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        val = g["val"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_lab = g["is_label"].to_numpy(zero_copy_only=False)
        order = np.argsort(node, kind="stable")
        node, val, is_lab = node[order], val[order], is_lab[order]
        # edge rows contribute the identity label (node itself): min over
        # ALL of a node's rows = min(current labels, node) — which also
        # makes iteration 0 (no label rows yet) the correct L=identity start
        eff = np.where(is_lab == 1, val, node)
        uniq, starts, counts = np.unique(node, return_index=True, return_counts=True)
        lu = np.minimum.reduceat(eff, starts)
        lu_rows = np.repeat(lu, counts)
        e = is_lab == 0
        return pa.table(
            {
                "node": pa.array(np.concatenate([val[e], uniq])),
                "val": pa.array(np.concatenate([lu_rows[e], lu])),
            }
        )

    def as_label_rows(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["node", "val"])
        return t.append_column("is_label", pa.array(np.ones(t.num_rows, np.int8)))

    labels = None
    prev_sum = None
    for _ in range(max_iters):
        rows = edges if labels is None else edges.union(labels)
        new_labels = (
            shard_groups(rows, "node", propagate)
            .groupby("node")
            .min("val")
            .map_batches(as_label_rows, batch_format="pyarrow")
            .materialize()
        )
        s = new_labels.sum("val")
        labels = new_labels
        if s == prev_sum:
            break
        prev_sum = s

    return labels.select_columns(["node", "val"]).map_batches(
        lambda t: t.rename_columns(["node", "root"]), batch_format="pyarrow"
    )


def _near_dedup_distributed(ds, labels, text_col: str, id_col: str):
    """Keep-best-per-cluster with NO corpus-sized driver state — the
    dup-dominated regime (pairs ~ O(N)) where ``near_dedup``'s driver
    union-find/loser-broadcast assumption breaks.  Three linear keyed
    shuffles, all on narrow columns except the final corpus filter:

      1. attach roots: (id, quality) corpus rows ∪ (id, root) label rows,
         co-located by id-hash shard → member rows (id, root, quality);
      2. survivor election: shard by root, lexsort (root, -quality, id),
         first row per root wins → LOSER id rows;
      3. anti-join: corpus rows ∪ loser marker rows co-located by id —
         corpus rows with a marker in their group are dropped.
    """
    def qrows(b: pa.Table) -> pa.Table:
        q = quality_score_batch(b, text_col, id_col)
        n = q.num_rows
        return pa.table(
            {
                "id": q[id_col].cast(pa.int64()),
                "root": pa.nulls(n, pa.int64()),
                "quality": q["quality"].cast(pa.float64()),
                "kind": pa.array(np.zeros(n, np.int8)),
            }
        )

    def lrows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "id": b["node"].cast(pa.int64()),
                "root": b["root"].cast(pa.int64()),
                "quality": pa.nulls(n, pa.float64()),
                "kind": pa.array(np.ones(n, np.int8)),
            }
        )

    def attach_root(g: pa.Table) -> pa.Table:
        """doc ids are unique and every pair endpoint is a corpus doc, so a
        member id's run is exactly [quality row (kind 0), label row
        (kind 1)] after the (id, kind) sort; non-members have length-1
        runs and drop out."""
        ids = g["id"].to_numpy(zero_copy_only=False)
        kind = g["kind"].to_numpy(zero_copy_only=False)
        order = np.lexsort((kind, ids))
        ids, kind = ids[order], kind[order]
        root = g["root"].to_numpy(zero_copy_only=False)[order]
        qual = g["quality"].to_numpy(zero_copy_only=False)[order]
        uniq, starts, counts = np.unique(ids, return_index=True, return_counts=True)
        m = counts == 2
        return pa.table(
            {
                "id": pa.array(uniq[m].astype(np.int64)),
                "root": pa.array(root[starts[m] + 1].astype(np.int64)),
                "quality": pa.array(qual[starts[m]].astype(np.float64)),
            }
        )

    def elect(g: pa.Table) -> pa.Table:
        ids = g["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        roots = g["root"].to_numpy(zero_copy_only=False).astype(np.int64)
        qual = g["quality"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((ids, -qual, roots))
        ids, roots = ids[order], roots[order]
        first = np.ones(roots.size, bool)
        first[1:] = roots[1:] != roots[:-1]
        return pa.table({"id": pa.array(ids[~first])})  # losers

    members = shard_groups(
        ds.map_batches(qrows, batch_format="pyarrow").union(
            labels.map_batches(lrows, batch_format="pyarrow")
        ),
        "id",
        attach_root,
    )
    losers = shard_groups(members, "root", elect)

    # ---- anti-join corpus vs losers (co-location, schema-padded) --------
    try:
        base_schema = ds.schema().base_schema
    except AttributeError:  # older Ray Data Schema wrapper
        base_schema = pa.schema(list(zip(ds.schema().names, ds.schema().types)))
    id_type = base_schema.field(id_col).type

    def corpus_tag(b: pa.Table) -> pa.Table:
        return b.append_column("__loser", pa.array(np.zeros(b.num_rows, np.int8)))

    def loser_pad(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {
            f.name: (b["id"].cast(id_type) if f.name == id_col else pa.nulls(n, f.type))
            for f in base_schema
        }
        cols["__loser"] = pa.array(np.ones(n, np.int8))
        return pa.table(cols)

    def drop_marked(g: pa.Table) -> pa.Table:
        kind = g["__loser"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        loser_ids = np.unique(ids[kind == 1])
        keep = (kind == 0) & ~np.isin(ids, loser_ids)
        return g.filter(pa.array(keep)).drop_columns(["__loser"])

    return shard_groups(
        ds.map_batches(corpus_tag, batch_format="pyarrow").union(
            losers.map_batches(loser_pad, batch_format="pyarrow")
        ),
        id_col,
        drop_marked,
    )


_NEAR_DEDUP_DRIVER_PAIRS = 2_000_000  # verified pairs clustered on the driver


def near_dedup(
    ds,
    threshold: float = 0.5,
    cfg: MinHashCfg | None = None,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Near-duplicate removal keeping the BEST doc per cluster: MinHash+LSH
    verified pairs → connected components → per cluster keep the highest
    quality_score (ties → lowest id); singletons survive untouched.
    Returns the survivor Dataset (original columns).

    Pair sets up to ``_NEAR_DEDUP_DRIVER_PAIRS`` cluster on the driver
    (union-find over an already-thresholded, usually tiny set).  Above it —
    the dup-DOMINATED regime where pairs ~ O(N) and the driver heap
    assumption breaks — clustering switches to ``cluster_pairs_distributed``
    (iterated min-label propagation) and survivor election/removal to the
    co-located anti-join of ``_near_dedup_distributed``.  Both paths
    produce identical survivors (same
    component-min root convention and (quality desc, id asc) election;
    tests assert set equality)."""
    import ray

    pairs = minhash_lsh_pairs(
        ds, cfg=cfg, threshold=threshold, text_col=text_col, id_col=id_col
    ).materialize()
    if pairs.count() > _NEAR_DEDUP_DRIVER_PAIRS:
        labels = cluster_pairs_distributed(pairs)
        return _near_dedup_distributed(ds, labels, text_col, id_col)

    pairs_df = pairs.to_pandas()
    if pairs_df.empty:
        return ds  # zero pairs (an empty input too): every doc survives
    roots = cluster_pairs(zip(pairs_df["a"], pairs_df["b"]))
    if not roots:
        return ds

    # pick the survivor of each cluster by (quality desc, id asc)
    member_ids = np.array(sorted(roots), dtype=np.int64)

    def quality_of_members(b: pa.Table) -> pa.Table:
        keep = np.isin(b[id_col].to_numpy(zero_copy_only=False), member_ids)
        sub = b.filter(pa.array(keep))
        if sub.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()), "quality": pa.array([], pa.float64())})
        q = quality_score_batch(sub, text_col, id_col)
        return q.select([id_col, "quality"])

    qdf = ds.map_batches(quality_of_members, batch_format="pyarrow").to_pandas()
    best: dict[int, tuple] = {}
    for did, qual in zip(qdf[id_col], qdf["quality"]):
        r = roots[int(did)]
        cand = (-float(qual), int(did))
        if r not in best or cand < best[r]:
            best[r] = cand
    survivors = {did for _, did in best.values()}
    losers = np.array(sorted(set(roots) - survivors), dtype=np.int64)
    losers_ref = ray.put(losers)

    def drop_losers(b: pa.Table) -> pa.Table:
        ls = ray.get(losers_ref)
        keep = ~np.isin(b[id_col].to_numpy(zero_copy_only=False), ls)
        return b.filter(pa.array(keep))

    return ds.map_batches(drop_losers, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_BIT_IDX = np.arange(64, dtype=np.uint64)
_MD5_MEMO: dict[str, int] = {}


def _md5_hash64(arr) -> np.ndarray:
    """uint64 = first 8 bytes (big-endian) of md5 per string — the ONE
    hash that must stay md5: the dd_simhash SQL oracle reproduces it as
    ('0x' || substr(md5(w),1,16))::UBIGINT.  Memoized per worker process
    (Zipf vocab ⇒ the md5 loop runs once per distinct token, not per
    occurrence)."""
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = arr.to_numpy(zero_copy_only=False)
    out = np.empty(len(arr), dtype=np.uint64)
    memo = _MD5_MEMO
    for i, s in enumerate(arr):
        v = memo.get(s)
        if v is None:
            v = int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
            if len(memo) < 4_000_000:
                memo[s] = v
        out[i] = v
    return out


def _pack_sign_bits(acc: np.ndarray) -> np.ndarray:
    """(D, 64) signed accumulators → uint64 simhash per row (bit i set iff
    acc[:, i] > 0)."""
    return ((acc > 0).astype(np.uint64) << _BIT_IDX[None, :]).sum(axis=1, dtype=np.uint64)


def simhash64(tokens: list[str]) -> int:
    """Classic 64-bit SimHash over tf-weighted token hashes (scalar
    reference — same hash family and sign rule as ``simhash_batch``)."""
    if not tokens:
        return 0
    uniq, tf = np.unique(np.array(tokens, dtype=object), return_counts=True)
    h = _md5_hash64(uniq)
    bits = ((h[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)).astype(np.float64)
    acc = ((2.0 * bits - 1.0) * tf[:, None].astype(np.float64)).sum(axis=0)
    return int(_pack_sign_bits(acc[None, :])[0])


def simhash_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Vectorized SimHash: token explode → per-(row, token) tf by run-length
    over a lexsort → bit outer-product → ``np.add.reduceat`` per row.  No
    per-token Python loop (this is the map-side hot stage of the 100 TB
    simhash dedup job)."""
    flat, parent, n_tok = _explode_tokens(pc.fill_null(batch[text_col], ""))
    n_rows = batch.num_rows
    if len(flat):
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        vocab_h = _md5_hash64(enc.dictionary)
        th = vocab_h[enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)]
    else:
        th = np.empty(0, np.uint64)
    out = np.zeros(n_rows, dtype=np.uint64)
    if th.size:
        order = np.lexsort((th, parent))
        p, h = parent[order], th[order]
        new_run = np.concatenate(([True], (p[1:] != p[:-1]) | (h[1:] != h[:-1])))
        run_idx = np.flatnonzero(new_run)
        tf = np.diff(np.concatenate((run_idx, [p.size]))).astype(np.float64)
        pu, hu = p[run_idx], h[run_idx]
        bits = ((hu[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)).astype(np.float64)
        w = (2.0 * bits - 1.0) * tf[:, None]
        doc_starts = np.flatnonzero(np.concatenate(([True], pu[1:] != pu[:-1])))
        acc = np.add.reduceat(w, doc_starts, axis=0)
        out[pu[doc_starts]] = _pack_sign_bits(acc)
    return pa.table({id_col: batch[id_col], "simhash": pa.array(out, pa.uint64())})


def simhash_pairs(ds, max_hamming: int = 3, text_col: str = "text", id_col: str = "doc_id"):
    """Near-dup pairs with hamming(simhash) ≤ d via the pigeonhole LSH:
    split 64 bits into d+1 chunks; any pair within d differs in ≤ d chunks so
    it collides on ≥ 1 chunk → groupby (chunk_idx, chunk_value) buckets (ONE
    shuffle), verify hamming inside buckets, dedupe pairs."""
    n_chunks = max_hamming + 1
    chunk_bits = 64 // n_chunks

    ds = ds.select_columns([id_col, text_col])

    def explode_chunks(b: pa.Table) -> pa.Table:
        sh = simhash_batch(b, text_col, id_col)
        ids = sh[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = sh["simhash"].to_numpy(zero_copy_only=False)
        n = ids.size
        mask = np.uint64((1 << chunk_bits) - 1)
        vals = np.concatenate(
            [(h >> np.uint64(c * chunk_bits)) & mask for c in range(n_chunks)]
        ) if n else np.empty(0, np.uint64)
        return pa.table(
            {
                id_col: pa.array(np.tile(ids, n_chunks)),
                "chunk": pa.array(np.repeat(np.arange(n_chunks, dtype=np.int32), n)),
                "val": pa.array(vals),
                "simhash": pa.array(np.tile(h, n_chunks)),
            }
        )

    def chunk_pairs(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        chunk = g["chunk"].to_numpy(zero_copy_only=False)
        vals = g["val"].to_numpy(zero_copy_only=False).astype(np.int64)
        hs = g["simhash"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, vals, chunk))
        c, v, i, h = chunk[order], vals[order], ids[order], hs[order]
        starts = np.flatnonzero(run_starts(c, v))
        sizes = np.diff(np.concatenate((starts, [v.size])))
        out_a, out_b, out_h = ([np.empty(0, np.int64)] for _ in range(3))
        for s, n in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            if n > _BUCKET_CAP:
                import logging

                logging.getLogger(__name__).warning(
                    "simhash bucket with %d docs exceeds cap %d — dropped", n, _BUCKET_CAP
                )
                continue
            run_i, run_h = i[s : s + n], h[s : s + n]
            ia, ib = np.triu_indices(int(n), k=1)
            x = run_h[ia] ^ run_h[ib]
            ham = np.array([bin(int(t)).count("1") for t in x], dtype=np.int64)
            ok = ham <= max_hamming
            out_a.append(run_i[ia][ok])
            out_b.append(run_i[ib][ok])
            out_h.append(ham[ok])
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a)),
                "b": pa.array(np.concatenate(out_b)),
                "hamming": pa.array(np.concatenate(out_h)),
            }
        )

    return (
        shard_groups(
            ds.map_batches(explode_chunks, batch_format="pyarrow"),
            ["chunk", "val"],
            chunk_pairs,
        )
        .groupby(["a", "b"])
        .min("hamming")  # native aggregate dedupe (equal hamming per dup)
        .map_batches(
            lambda t: t.rename_columns(["a", "b", "hamming"]), batch_format="pyarrow"
        )
    )


# ---------------------------------------------------------------------------
# embedding similarity
# ---------------------------------------------------------------------------


def _normalize(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return mat / n


def _vec_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    """(B, d) float64 from a list<float> column — via the flattened values
    buffer, not to_pylist (zero Python objects)."""
    col = batch[vec_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    widths = pc.list_value_length(col).to_numpy(zero_copy_only=False)
    d = int(widths[0]) if len(widths) else 0
    if d and not np.all(widths == d):
        raise ValueError("ragged embedding column")
    return flat.reshape(-1, d) if d else np.empty((0, 0))


_EMB_TOPK_SCHEMA = pa.schema(
    [("query_idx", pa.int64()), ("vec_id", pa.int64()), ("cosine", pa.float64())]
)


def brute_topk_batch(
    batch: pa.Table,
    *,
    queries_ref,
    k: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Task-pool form of :class:`BruteForceTopK`: the query matrix arrives
    pre-normalized in the object store (ray.put once by the caller) and is
    ray.get'd zero-copy per task — there is no other per-worker state, so
    running as tasks in prestarted workers skips the actor pool's
    per-process spawn entirely (the r4 cold-query lesson)."""
    import ray

    q = queries_ref
    if not isinstance(q, np.ndarray):
        q = ray.get(q)
    return BruteForceTopK.score(batch, q, k, id_col, vec_col)


class BruteForceTopK:
    """Actor-pool stage: cosine top-k of every batch against a broadcast
    query matrix.  Queries are put in the object store ONCE (ray.put by the
    caller) and fetched in __init__ — never re-shipped per batch.  The
    PARTIAL top-k happens inside __call__, so only Q×k rows per block leave
    the actor (not the full B×Q score matrix)."""

    def __init__(self, queries_ref, k: int, id_col: str = "vec_id", vec_col: str = "embedding"):
        import ray

        q = queries_ref
        if not isinstance(q, np.ndarray):
            q = ray.get(q)
        self.q = _normalize(np.asarray(q, dtype=np.float64))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.score(batch, self.q, self.k, self.id_col, self.vec_col)

    @staticmethod
    def score(
        batch: pa.Table, qnorm: np.ndarray, k: int, id_col: str, vec_col: str
    ) -> pa.Table:
        vecs = _vec_matrix(batch, vec_col)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if ids.size == 0:
            return _EMB_TOPK_SCHEMA.empty_table()
        sims = _normalize(vecs) @ qnorm.T  # (B, Q)
        k = min(k, ids.size)
        out_q = np.empty(qnorm.shape[0] * k, np.int64)
        out_id = np.empty_like(out_q)
        out_s = np.empty(qnorm.shape[0] * k, np.float64)
        for qi in range(qnorm.shape[0]):
            # exact tie-break (cosine desc, id asc) — same rule as the final
            # reduce, so partial pruning can never flip a tied boundary
            sel = np.lexsort((ids, -sims[:, qi]))[:k]
            out_q[qi * k : (qi + 1) * k] = qi
            out_id[qi * k : (qi + 1) * k] = ids[sel]
            out_s[qi * k : (qi + 1) * k] = sims[sel, qi]
        return pa.table(
            {"query_idx": out_q, id_col: out_id, "cosine": out_s},
            schema=pa.schema(
                [("query_idx", pa.int64()), (id_col, pa.int64()), ("cosine", pa.float64())]
            ),
        )


def embedding_topk(ds, queries: np.ndarray, k: int = 10, id_col: str = "vec_id", vec_col: str = "embedding"):
    """Brute-force cosine top-k per query over an embedding Dataset:
    per-batch matmul against broadcast queries with FUSED partial top-k
    (narrow; Q×k rows per block), then one tiny per-query reduce."""
    import ray

    # normalize ONCE on the driver so tasks do pure matmul; ray.put once,
    # zero-copy ray.get per task.  Task pool (r4): there is no per-worker
    # state beyond the broadcast matrix, so tasks in prestarted workers do
    # the identical work without the actor pool's per-process spawn.
    q_ref = ray.put(_normalize(np.asarray(queries, dtype=np.float64)))
    scored = ds.map_batches(
        brute_topk_batch,
        fn_kwargs={"queries_ref": q_ref, "k": k, "id_col": id_col, "vec_col": vec_col},
        batch_format="pyarrow",
        num_cpus=1,
    )

    def final_topk(g: pa.Table) -> pa.Table:
        sims = g["cosine"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = np.lexsort((ids, -sims))[:k]
        return pa.table(
            {
                "query_idx": g["query_idx"].take(pa.array(sel)),
                id_col: pa.array(ids[sel]),
                "cosine": pa.array(round_half_away(sims[sel], 4)),
                "rank": pa.array(np.arange(1, sel.size + 1, dtype=np.int64)),
            }
        )

    return scored.groupby("query_idx").map_groups(final_topk, batch_format="pyarrow")


def embedding_neardup_pairs(
    ds,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    method: str = "lsh",
    n_planes: int = 8,
    n_tables: int = 6,
    seed: int = 42,
    bucket_cap: int = 20_000,
):
    """All (a < b) pairs with cosine ≥ t.

    ``method="lsh"`` (DEFAULT — the 100 TB path): banded random-hyperplane
    LSH.  Each vector hashes into ``n_tables`` independent sign-pattern
    buckets (a narrow map that explodes rows ×T); candidates are pairs
    colliding in ANY table; each bucket group verifies its pairs with an
    EXACT vectorized cosine scan, and a final (a, b) groupby dedupes
    cross-table repeats.  Precision is exact; recall is the LSH collision
    probability — for threshold t, a pair survives one table with
    p₁ = (1 − arccos(t)/π)^n_planes and is missed overall with
    (1 − p₁)^n_tables (defaults: t=0.95 → miss ≤ 1e-4; pin corpus-verified
    params like the minhash op does).  Below t≈0.8 the collision odds decay
    so fast that no table count is affordable — the op REFUSES and asks for
    an explicit ``method="brute"`` (low-threshold near-dup is inherently a
    dense-graph problem).

    ``method="brute"`` (explicit opt-in): exact distributed block-pair
    sweep — the dataset's Arrow blocks stay in the object store
    (``to_arrow_refs``) and one Ray task per block pair (i ≤ j) computes
    that gram-matrix tile.  O(N²/2) tiles by construction: right up to
    ~10⁷ vectors or for thresholds the LSH path refuses."""
    import ray
    import ray.data as rd

    if method == "lsh":
        return _embedding_neardup_lsh(
            ds, threshold, id_col, vec_col, n_planes, n_tables, seed, bucket_cap
        )
    if method != "brute":
        raise ValueError(f"method must be 'lsh' or 'brute', got {method!r}")

    refs = ds.select_columns([id_col, vec_col]).materialize().to_arrow_refs()

    @ray.remote(num_cpus=1)
    def tile(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ia = ta[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ib = tb[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if ia.size == 0 or ib.size == 0:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        va = _normalize(_vec_matrix(ta, vec_col))
        vb = _normalize(_vec_matrix(tb, vec_col))
        sims = va @ vb.T
        hit = sims >= threshold
        if same:
            # upper triangle by id: each unordered pair once, no self-pairs
            hit &= ia[:, None] < ib[None, :]
        else:
            hit &= ia[:, None] != ib[None, :]
        r, c = np.nonzero(hit)
        x, y = ia[r], ib[c]
        a = np.minimum(x, y)  # orient a < b (cross tiles carry either order)
        b = np.maximum(x, y)
        return pa.table(
            {
                "a": pa.array(a),
                "b": pa.array(b),
                "cosine": pa.array(round_half_away(sims[r, c], 4)),
            }
        )

    futs = [
        tile.remote(refs[i], refs[j], i == j)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    tables = [t for t in ray.get(futs) if t.num_rows]
    if not tables:
        return rd.from_arrow(
            pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
        )
    return rd.from_arrow(pa.concat_tables(tables))


_NEARDUP_PLANES: dict[tuple, np.ndarray] = {}


def _neardup_planes(seed: int, n_tables: int, n_planes: int, dim: int) -> np.ndarray:
    """(T, p, dim) deterministic hyperplanes, memoized per worker — every
    task regenerates the same planes from the seed (no broadcast needed,
    generation is microseconds)."""
    key = (seed, n_tables, n_planes, dim)
    hit = _NEARDUP_PLANES.get(key)
    if hit is None:
        rng = np.random.default_rng(seed)
        hit = rng.standard_normal((n_tables, n_planes, dim))
        _NEARDUP_PLANES[key] = hit
    return hit


def _embedding_neardup_lsh(
    ds, threshold, id_col, vec_col, n_planes, n_tables, seed, bucket_cap
):
    """Banded hyperplane-LSH near-dup pairs (see embedding_neardup_pairs):
    explode ×T tables (narrow) → ONE (table, bucket)-keyed
    ``shard_groups`` exchange → exact within-bucket cosine verify
    (vectorized gram tile, upper triangle by id) → (a, b) groupby dedup.
    Shuffle volume is T× the vector column — linear in the corpus, never
    O(N²)."""
    import math as _math

    if threshold < 0.8:
        raise ValueError(
            f"hyperplane LSH cannot reach usable recall at threshold {threshold}"
            " (collision probability decays too fast below ~0.8); pass"
            " method='brute' explicitly for exact low-threshold pair scans"
        )
    # document the design recall in the lineage of anyone reading stats:
    # p1 = (1 - acos(t)/pi)^p ; miss = (1 - p1)^T
    _p1 = (1.0 - _math.acos(min(1.0, threshold)) / _math.pi) ** n_planes

    def explode_tables(b: pa.Table) -> pa.Table:
        b = bare_schema(b).select([id_col, vec_col])
        n = b.num_rows
        if n == 0:
            return b.append_column("table", pa.array([], pa.int64())).append_column(
                "bucket", pa.array([], pa.int64())
            )
        vecs = _normalize(_vec_matrix(b, vec_col))
        planes = _neardup_planes(seed, n_tables, n_planes, vecs.shape[1])
        weights = 1 << np.arange(n_planes, dtype=np.uint64)
        rep = b.take(pa.array(np.repeat(np.arange(n), n_tables)))
        tbl_ids = np.tile(np.arange(n_tables, dtype=np.int64), n)
        # (n, T) sign-pattern buckets, flattened row-major to match rep
        bks = np.empty((n, n_tables), dtype=np.int64)
        for t in range(n_tables):
            bks[:, t] = (
                ((vecs @ planes[t].T) > 0).astype(np.uint64) @ weights
            ).astype(np.int64)
        return rep.append_column("table", pa.array(tbl_ids)).append_column(
            "bucket", pa.array(bks.reshape(-1))
        )

    def verify_buckets(g: pa.Table) -> pa.Table:
        tbl = g["table"].to_numpy(zero_copy_only=False)
        bkt = g["bucket"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, bkt, tbl))
        starts = np.flatnonzero(run_starts(tbl[order], bkt[order]))
        sizes = np.diff(np.append(starts, order.size))
        # degenerate hot buckets (e.g. all-zero vectors) are skipped, same
        # contract as the minhash bucket cap — cap² pairwork bound per bucket
        multi = (sizes >= 2) & (sizes <= bucket_cap)
        vecs = _normalize(_vec_matrix(g, vec_col)) if multi.any() else None
        out_a, out_b, out_c = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
        for s, n in zip(starts[multi], sizes[multi]):
            rows = order[s : s + n]
            rid = ids[rows]
            sims = vecs[rows] @ vecs[rows].T
            r, c = np.nonzero((sims >= threshold) & (rid[:, None] < rid[None, :]))
            out_a.append(rid[r])
            out_b.append(rid[c])
            out_c.append(round_half_away(sims[r, c], 4))
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a)),
                "b": pa.array(np.concatenate(out_b)),
                "cosine": pa.array(np.concatenate(out_c)),
            }
        )

    return (
        shard_groups(
            ds.map_batches(explode_tables, batch_format="pyarrow"),
            ["table", "bucket"],
            verify_buckets,
        )
        .groupby(["a", "b"])
        .min("cosine")  # dedupe cross-table repeats (cosine identical)
        .map_batches(
            lambda t: t.rename_columns(["a", "b", "cosine"]), batch_format="pyarrow"
        )
    )


def _bottom_k_rows_by_id(ds, k: int, id_col: str, vec_col: str) -> pa.Table:
    """Global bottom-``k`` rows by ``id_col`` WITHOUT a global sort: every
    batch emits its own bottom-k (a few KB), the driver streams the partials
    and keeps the global bottom-k — one narrow scan instead of an all-to-all
    sort of the whole embedding table (the partial-top-k idiom the collation
    query uses).  Returns a pyarrow Table sorted ascending by id."""

    def _bottomk(b: pa.Table) -> pa.Table:
        if b.num_rows > k:
            b = b.take(
                pc.select_k_unstable(b, k=k, sort_keys=[(id_col, "ascending")])
            )
        return b

    parts = [
        b
        for b in (
            ds.select_columns([id_col, vec_col])
            .map_batches(_bottomk, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        )
        if b.num_rows
    ]
    merged = pa.concat_tables(parts)
    if merged.num_rows > k:
        return merged.take(
            pc.select_k_unstable(merged, k=k, sort_keys=[(id_col, "ascending")])
        )
    return merged.sort_by(id_col)


def embedding_ivf_topk(
    ds,
    queries: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    centroids: np.ndarray | None = None,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """IVF-flat ANN: vectors are assigned to the nearest coarse centroid
    (narrow stage); each query scans only its ``nprobe`` nearest inverted
    lists, so per-query work is ~N·nprobe/n_centroids instead of N.

    Pinned coarse codebook: when ``centroids`` is not given, the
    ``n_centroids`` vectors with the SMALLEST ids — deterministic and
    SQL-reproducible (a real deployment trains k-means offline and passes
    ``centroids=``; the quantizer choice only moves recall, never
    precision, since lists are scanned exactly).  Assignment tie-break:
    lowest centroid index.  Approximate recall; exact cosine within the
    probed lists."""
    import ray

    if centroids is None:
        # partial bottom-K per batch + driver merge — no global sort (the
        # same fix train_kmeans_codebook's init got; a full-table sort to
        # pick 16 rows is the most expensive possible head at 100 TB)
        head = _bottom_k_rows_by_id(ds, n_centroids, id_col, vec_col).to_pandas()
        centroids = np.array(head[vec_col].to_list(), dtype=np.float64)
    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    qn = _normalize(np.asarray(queries, dtype=np.float64))

    # per-query probe lists: nprobe nearest centroids (cos desc, idx asc)
    qsims = qn @ cn.T
    probe: dict[int, list[int]] = {}
    for qi in range(qn.shape[0]):
        order = np.lexsort((np.arange(cn.shape[0]), -qsims[qi]))[:nprobe]
        for c in order:
            probe.setdefault(int(c), []).append(qi)
    probe_keys = np.array(sorted(probe), dtype=np.int64)
    cn_ref = ray.put(cn)

    def assign(b: pa.Table) -> pa.Table:
        import ray as _ray

        cmat = _ray.get(cn_ref) if not isinstance(cn_ref, np.ndarray) else cn_ref
        b = bare_schema(b)
        vecs = _normalize(_vec_matrix(b, vec_col))
        sims = vecs @ cmat.T
        lists = np.argmax(sims, axis=1).astype(np.int64)  # first max = lowest idx
        keep = np.isin(lists, probe_keys)
        return b.append_column("ivf_list", pa.array(lists)).filter(pa.array(keep))

    filtered = ds.map_batches(assign, batch_format="pyarrow")

    def score_list(g: pa.Table) -> pa.Table:
        lid = int(g["ivf_list"][0].as_py())
        qis = probe.get(lid, [])
        if not qis:
            return _EMB_TOPK_SCHEMA.empty_table()
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = _normalize(_vec_matrix(g, vec_col))
        sims = vecs @ qn[qis].T
        out_q, out_id, out_s = [], [], []
        for col, qi in enumerate(qis):
            sel = np.lexsort((ids, -sims[:, col]))[:k]
            out_q.extend([qi] * sel.size)
            out_id.extend(ids[sel].tolist())
            out_s.extend(sims[sel, col].tolist())
        return pa.table(
            {
                "query_idx": pa.array(out_q, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    def final_topk(g: pa.Table) -> pa.Table:
        sims = g["cosine"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = np.lexsort((ids, -sims))[:k]
        return pa.table(
            {
                "query_idx": g["query_idx"].take(pa.array(sel)),
                id_col: pa.array(ids[sel]),
                "cosine": pa.array(round_half_away(sims[sel], 4)),
            }
        )

    return (
        filtered.groupby("ivf_list")
        .map_groups(score_list, batch_format="pyarrow")
        .groupby("query_idx")
        .map_groups(final_topk, batch_format="pyarrow")
    )


def train_kmeans_codebook(
    ds,
    n_centroids: int = 16,
    n_iters: int = 10,
    tol: float = 1e-4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Distributed spherical k-means — trains the IVF coarse codebook
    INSIDE the engine (closes the "codebook is an external input" seam of
    ``embedding_ivf_topk``).

    Lloyd iterations as narrow Ray Data passes: centroids are broadcast
    once per iteration (``ray.put``), every ``map_batches`` task assigns
    its batch by argmax cosine and emits ONE (K × dim sums, K counts)
    partial; the driver streams the partials (``iter_batches`` — bounded
    memory at any corpus size) and reduces O(K·dim) state.  The corpus
    never leaves the workers and is re-read per iteration via the lazy
    Dataset — at 100 TB each iteration is one narrow scan, no shuffle.

    Deterministic: init = the ``n_centroids`` smallest-id vectors (the
    same pinned head the IVF default uses), argmax ties break to the
    lowest centroid index, no RNG — identical inputs give identical
    codebooks.  Empty clusters keep their previous centroid.  Stops early
    when max centroid movement (1 − cos) < ``tol``.  Returns the
    normalized (K, dim) codebook for ``embedding_ivf_topk(centroids=)``."""
    import ray

    # Deterministic init WITHOUT a global sort (see _bottom_k_rows_by_id).
    head = _bottom_k_rows_by_id(ds, n_centroids, id_col, vec_col).to_pandas()
    cn = _normalize(np.array(head[vec_col].to_list(), dtype=np.float64))
    K, dim = cn.shape
    src = ds.select_columns([vec_col])

    for _ in range(n_iters):
        cref = ray.put(cn)

        def partial(b: pa.Table, *, _cref=cref) -> pa.Table:
            import ray as _ray

            cmat = _ray.get(_cref)
            vecs = _normalize(_vec_matrix(b, vec_col))
            # argmax = first max = lowest centroid index (the pinned tie)
            a = np.argmax(vecs @ cmat.T, axis=1)
            sums = np.zeros((K, dim), dtype=np.float64)
            np.add.at(sums, a, vecs)
            counts = np.bincount(a, minlength=K).astype(np.int64)
            return pa.table(
                {
                    "centroid": pa.array(np.arange(K, dtype=np.int64)),
                    "count": pa.array(counts),
                    "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                }
            )

        sums = np.zeros((K, dim), dtype=np.float64)
        counts = np.zeros(K, dtype=np.int64)
        for b in src.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            c = b["centroid"].to_numpy(zero_copy_only=False)
            counts[c] += b["count"].to_numpy(zero_copy_only=False)
            flat = np.asarray(b["vsum"].combine_chunks().flatten(), dtype=np.float64)
            sums[c] += flat.reshape(len(c), dim)

        new = cn.copy()  # empty clusters keep their previous centroid
        nz = counts > 0
        new[nz] = _normalize(sums[nz] / counts[nz, None])
        moved = float(np.max(1.0 - np.sum(new * cn, axis=1)))
        cn = new
        if moved < tol:
            break
    return cn


def embedding_lsh_topk(
    ds,
    queries: np.ndarray,
    k: int = 10,
    n_planes: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    probe_radius: int = 1,
):
    """Scale-path ANN: random-hyperplane LSH bucketing.  Vectors are bucketed
    by sign pattern (narrow stage); each query probes its own bucket ∪ all
    buckets within hamming distance ``probe_radius``, so per-query work is
    ~N·Σ_{i≤r}C(p,i)/2^p instead of N.  Approximate (recall < 1 in
    general); raise ``probe_radius`` to trade compute for recall — the
    driver query pins a radius measured to reach recall 1.0 on its corpus."""
    from itertools import combinations

    rng = np.random.default_rng(seed)
    dim = len(np.asarray(queries)[0])
    planes = rng.standard_normal((n_planes, dim))
    qn = _normalize(np.asarray(queries, dtype=np.float64))

    def bucket_of(mat: np.ndarray) -> np.ndarray:
        return ((mat @ planes.T) > 0).astype(np.uint64) @ (1 << np.arange(n_planes, dtype=np.uint64))

    masks = [0]
    for r in range(1, max(0, int(probe_radius)) + 1):
        for bits in combinations(range(n_planes), r):
            masks.append(sum(1 << b for b in bits))
    q_buckets = bucket_of(qn)
    probe: dict[int, list[int]] = {}
    for qi, qb in enumerate(q_buckets):
        for m in masks:
            probe.setdefault(int(qb) ^ m, []).append(qi)

    probe_keys = np.array(sorted(probe), dtype=np.int64)

    def assign(b: pa.Table) -> pa.Table:
        b = bare_schema(b)
        vecs = _normalize(_vec_matrix(b, vec_col))
        bk = bucket_of(vecs).astype(np.int64)
        keep = np.isin(bk, probe_keys)
        t = b.append_column("bucket", pa.array(bk))
        return t.filter(pa.array(keep))

    filtered = ds.map_batches(assign, batch_format="pyarrow")

    def score_bucket(g: pa.Table) -> pa.Table:
        bk = int(g["bucket"][0].as_py())
        qis = probe.get(bk, [])
        if not qis:
            return pa.table({"query_idx": pa.array([], pa.int64()), id_col: pa.array([], pa.int64()), "cosine": pa.array([], pa.float64())})
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = _normalize(_vec_matrix(g, vec_col))
        sims = vecs @ qn[qis].T
        out_q, out_id, out_s = [], [], []
        for col, qi in enumerate(qis):
            # exact (cosine desc, id asc) tie-break — same rule as the final
            # reduce, so partial pruning can never flip a tied boundary
            order = np.lexsort((ids, -sims[:, col]))[:k]
            out_q.extend([qi] * len(order))
            out_id.extend(ids[order].tolist())
            out_s.extend(sims[order, col].tolist())
        return pa.table(
            {
                "query_idx": pa.array(out_q, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    def final_topk(g: pa.Table) -> pa.Table:
        # each vector lives in exactly ONE bucket (bucket_of is a function
        # of the vector), so (query, id) appears at most once — plain
        # pinned-tie-break selection
        sims = g["cosine"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = np.lexsort((ids, -sims))[:k]
        return pa.table(
            {
                "query_idx": g["query_idx"].take(pa.array(sel)),
                id_col: pa.array(ids[sel]),
                "cosine": pa.array(round_half_away(sims[sel], 4)),
            }
        )

    return (
        filtered.groupby("bucket")
        .map_groups(score_bucket, batch_format="pyarrow")
        .groupby("query_idx")
        .map_groups(final_topk, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# training-data curation rules (Gopher-style), repetition, decontamination,
# PII scrubbing.  Reference semantics: the rule families published with
# Gopher (Rae et al. 2021, "Scaling Language Models", table A1) and C4
# (Raffel et al. 2020) — pinned here to exact thresholds documented in the
# SQL oracles.  All four are narrow single-pass map_batches stages: no
# shuffle, no materialization; the only non-streaming input is the
# decontamination benchmark set, which is SMALL by definition and rides the
# object store as one broadcast (`ray.put` once, read per task).
# ---------------------------------------------------------------------------


def gopher_rules_batch(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    min_words: int = 25,
    max_words: int = 100_000,
    min_mean_len: float = 3.0,
    max_mean_len: float = 10.0,
    min_alpha_frac: float = 0.8,
    min_stop_hits: int = 2,
) -> pa.Table:
    """Pinned Gopher-rule subset over whitespace words (the corpus has no
    newlines, so the line-shape rules are omitted rather than vacuously
    true): word-count bounds, mean word length bounds, alphabetic-word
    fraction, and a stopword requirement (total occurrences of the pinned
    STOPWORDS set).  `pass_gopher` is computed on UNROUNDED ratios; the
    reported ratio columns are round-half-away(4) to match DuckDB."""
    flat, parent, n_tok = _explode_tokens(batch[text_col])
    n_rows = batch.num_rows
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    char_sum = np.bincount(parent, weights=tok_lens, minlength=n_rows)
    nt = np.maximum(n_tok, 1).astype(np.float64)
    mean_len = char_sum / nt
    has_alpha = pc.match_substring_regex(flat, "[a-zA-Z]").to_numpy(zero_copy_only=False)
    alpha_frac = np.bincount(parent, weights=has_alpha.astype(np.float64), minlength=n_rows) / nt
    is_stop = pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(zero_copy_only=False)
    stop_hits = np.bincount(parent, weights=is_stop.astype(np.float64), minlength=n_rows).astype(
        np.int64
    )
    ok = (
        (n_tok >= min_words)
        & (n_tok <= max_words)
        & (mean_len >= min_mean_len)
        & (mean_len <= max_mean_len)
        & (alpha_frac >= min_alpha_frac)
        & (stop_hits >= min_stop_hits)
    )
    return pa.table(
        {
            id_col: batch[id_col],
            "n_words": pa.array(n_tok),
            "mean_word_len": pa.array(round_half_away(mean_len, 4)),
            "alpha_frac": pa.array(round_half_away(alpha_frac, 4)),
            "stop_hits": pa.array(stop_hits),
            "pass_gopher": pa.array(ok.astype(np.int64)),
        }
    )


def gopher_rules(ds, text_col: str = "text", id_col: str = "doc_id", **thresholds):
    return ds.map_batches(
        lambda b: gopher_rules_batch(b, text_col, id_col, **thresholds),
        batch_format="pyarrow",
    )


def repetition_stats_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id", n: int = 2
) -> pa.Table:
    """Intra-document repetition (Gopher's duplicate-n-gram family, pinned
    to occurrence fractions): per doc over word n-grams,
    `top_ngram_frac`   = count(most frequent n-gram) / total n-grams and
    `dup_ngram_frac`   = occurrences belonging to any n-gram seen >1 time
                         / total n-grams  (both 0.0 when the doc has fewer
                         than n words).  Vectorized: token hashes mixed
    pairwise, lexsort + run-length per (row, gram) — no Python loop."""
    flat, parent, n_tok = _explode_tokens(batch[text_col])
    n_rows = batch.num_rows
    tg = np.maximum(n_tok - (n - 1), 0).astype(np.int64)  # grams per row
    top = np.zeros(n_rows, dtype=np.int64)
    dup = np.zeros(n_rows, dtype=np.int64)
    if len(flat) >= n:
        h = _hash_strings(flat).astype(np.uint64)
        key = h[: len(h) - n + 1].copy()
        for j in range(1, n):
            key = key * np.uint64(0x9E3779B97F4A7C15) ^ h[j : len(h) - n + 1 + j]
        gp = parent[: len(h) - n + 1]
        valid = gp == parent[n - 1 :]  # gram stays inside one row
        key, gp = key[valid], gp[valid]
        if len(key):
            order = np.lexsort((key, gp))
            ks, gs = key[order], gp[order]
            brk = np.empty(len(ks), dtype=bool)
            brk[0] = True
            brk[1:] = (ks[1:] != ks[:-1]) | (gs[1:] != gs[:-1])
            starts = np.flatnonzero(brk)
            counts = np.diff(np.append(starts, len(ks)))
            grp_row = gs[starts]
            np.maximum.at(top, grp_row, counts)
            dup_counts = np.where(counts > 1, counts, 0)
            np.add.at(dup, grp_row, dup_counts)
    tgf = np.maximum(tg, 1).astype(np.float64)
    return pa.table(
        {
            id_col: batch[id_col],
            "n_ngrams": pa.array(tg),
            "top_ngram_frac": pa.array(
                round_half_away(np.where(tg > 0, top / tgf, 0.0), 4)
            ),
            "dup_ngram_frac": pa.array(
                round_half_away(np.where(tg > 0, dup / tgf, 0.0), 4)
            ),
        }
    )


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id", n: int = 2):
    return ds.map_batches(
        lambda b: repetition_stats_batch(b, text_col, id_col, n), batch_format="pyarrow"
    )


def decontaminate(
    ds,
    benchmark_ngrams,
    n: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Benchmark decontamination (GPT-3 appendix C / Gopher style): flag
    every document sharing at least one word n-gram with a benchmark set.
    `benchmark_ngrams` is a set[str] of space-joined n-grams or a
    `ray.ObjectRef` to one — the benchmark side is SMALL by definition, so
    it is broadcast once via the object store and each task reads it
    zero-copy; the corpus side streams through one map_batches with no
    shuffle.  Returns (id, n_contaminated = DISTINCT matched n-grams,
    contaminated 0/1).  Membership is on exact strings (no hash-collision
    caveat)."""
    import ray

    ref = benchmark_ngrams if isinstance(benchmark_ngrams, ray.ObjectRef) else ray.put(
        frozenset(benchmark_ngrams)
    )

    def f(batch: pa.Table, *, _ref=ref) -> pa.Table:
        import pandas as pd

        bench = ray.get(_ref)
        flat, parent, n_tok = _explode_tokens(batch[text_col])
        n_rows = batch.num_rows
        hits = np.zeros(n_rows, dtype=np.int64)
        if len(flat) >= n and len(bench):
            toks = np.asarray(flat.to_pylist(), dtype=object)
            m = len(toks) - n + 1
            grams = toks[:m].copy()
            for j in range(1, n):
                grams = grams + " "
                grams = grams + toks[j : m + j]
            gp = parent[:m]
            valid = gp == parent[n - 1 :]
            grams, gp = grams[valid], gp[valid]
            matched = pd.Series(grams).isin(bench).to_numpy()
            if matched.any():
                mg, mp = grams[matched], gp[matched]
                # distinct (row, gram) pairs
                codes, _ = pd.factorize(pd.Series(mg), sort=False)
                pair = mp.astype(np.int64) * (codes.max() + 1) + codes
                upair = np.unique(pair)
                rows = (upair // (codes.max() + 1)).astype(np.int64)
                hits = np.bincount(rows, minlength=n_rows).astype(np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_contaminated": pa.array(hits),
                "contaminated": pa.array((hits > 0).astype(np.int64)),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# RE2 patterns shared verbatim by the engine (pyarrow::compute, RE2) and the
# DuckDB oracle (also RE2) — identical engines, so replace/count parity is
# exact, not approximate.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def pii_scrub_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Count and redact e-mail addresses and IPv4 literals: one RE2 count +
    one RE2 replace kernel per pattern, all Arrow-native."""
    txt = pc.fill_null(batch[text_col], "")
    n_email = pc.count_substring_regex(txt, PII_EMAIL).cast(pa.int64())
    n_ip = pc.count_substring_regex(txt, PII_IPV4).cast(pa.int64())
    red = pc.replace_substring_regex(txt, PII_EMAIL, "<EMAIL>")
    red = pc.replace_substring_regex(red, PII_IPV4, "<IP>")
    return pa.table(
        {
            id_col: batch[id_col],
            "n_emails": n_email,
            "n_ipv4": n_ip,
            "redacted": red,
        }
    )


def pii_scrub(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(lambda b: pii_scrub_batch(b, text_col, id_col), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# HTML boilerplate stripping (Common-Crawl-style text extraction)
# ---------------------------------------------------------------------------

# RE2 patterns shared verbatim with the DuckDB oracle (both engines are RE2,
# so replace/count parity is exact).  RE2 has no backreferences, hence one
# pattern per container tag instead of <(script|style)>.*?</\1>.
HTML_SCRIPT = r"(?is)<script\b[^>]*>.*?</script>"
HTML_STYLE = r"(?is)<style\b[^>]*>.*?</style>"
HTML_COMMENT = r"(?s)<!--.*?-->"
HTML_TAG = r"<[^>]*>"
# entity decode order matters: &amp; LAST so "&amp;lt;" decodes to "&lt;"
# (literal), not "<" — the HTML5 non-double-decode rule, mirrored in SQL.
HTML_ENTITIES = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
    ("&amp;", "&"),
]


def html_strip_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Strip HTML to clean text, vectorized Arrow-native: drop
    script/style/comment containers (content included), count then remove
    the remaining tags, decode the six core entities, collapse whitespace.
    Emits integer length/count columns (no floats — value-hash-stable
    across engines) plus the cleaned text."""
    raw = pc.fill_null(batch[text_col], "")
    s = pc.replace_substring_regex(raw, HTML_SCRIPT, " ")
    s = pc.replace_substring_regex(s, HTML_STYLE, " ")
    s = pc.replace_substring_regex(s, HTML_COMMENT, " ")
    n_tags = pc.count_substring_regex(s, HTML_TAG).cast(pa.int64())
    s = pc.replace_substring_regex(s, HTML_TAG, " ")
    for ent, ch in HTML_ENTITIES:
        s = pc.replace_substring(s, ent, ch)
    s = pc.replace_substring_regex(s, r"\s+", " ")
    s = pc.utf8_trim(s, " ")
    return pa.table(
        {
            id_col: batch[id_col],
            "clean_text": s,
            "n_tags": n_tags,
            "raw_len": pc.utf8_length(raw).cast(pa.int64()),
            "clean_len": pc.utf8_length(s).cast(pa.int64()),
        }
    )


def html_strip(ds, text_col: str = "text", id_col: str = "doc_id"):
    """One narrow ``map_batches`` — no shuffle, no state; at 100 TB this is
    embarrassingly parallel and IO-bound on the pruned (id, text) read."""
    return ds.map_batches(lambda b: html_strip_batch(b, text_col, id_col), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Context-window chunking (training-sample windowing with overlap)
# ---------------------------------------------------------------------------


def chunk_windows_batch(
    batch: pa.Table,
    window: int = 64,
    stride: int = 48,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Explode each document into overlapping token windows of `window`
    tokens advancing by `stride` (stride < window ⇒ window-stride token
    overlap, the standard LM context-window prep).  n_chunks =
    1 if n<=window else ceil((n-window)/stride)+1, so the final window is
    the (possibly short) tail.  Fully vectorized: one split, one ragged
    arange gather, one list-join — no Python loop over rows or chunks."""
    flat, _parent, n_tok = _explode_tokens(batch[text_col])
    n_rows = batch.num_rows
    n_chunks = np.where(
        n_tok <= window, 1, ((n_tok - window + stride - 1) // stride) + 1
    ).astype(np.int64)
    # token offset of each row inside `flat`
    row_off = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
    doc_rep = np.repeat(np.arange(n_rows), n_chunks)
    # chunk_idx within each doc: ragged arange over n_chunks
    total_chunks = int(n_chunks.sum())
    chunk_idx = np.arange(total_chunks) - np.repeat(
        np.concatenate(([0], np.cumsum(n_chunks)))[:-1], n_chunks
    )
    start = chunk_idx * stride  # token start within the doc
    clen = np.minimum(window, n_tok[doc_rep] - start)
    # ragged arange gather into `flat`: absolute token index per output token
    out_off = np.concatenate(([0], np.cumsum(clen)))
    tot = int(out_off[-1])
    idx = (
        np.arange(tot)
        - np.repeat(out_off[:-1], clen)
        + np.repeat(row_off[doc_rep] + start, clen)
    )
    toks = pc.take(flat, pa.array(idx, pa.int64()))
    lists = pa.ListArray.from_arrays(pa.array(out_off, pa.int32()), toks)
    return pa.table(
        {
            id_col: pc.take(batch[id_col], pa.array(doc_rep, pa.int64())),
            "chunk_idx": pa.array(chunk_idx),
            "chunk_n_tokens": pa.array(clen.astype(np.int64)),
            "chunk_text": pc.binary_join(lists, " "),
        }
    )


def chunk_windows(ds, window: int = 64, stride: int = 48, text_col: str = "text", id_col: str = "doc_id"):
    """Narrow flat-map-shaped ``map_batches`` (rows out > rows in).  Scale
    note: output blocks grow by ~window/stride×; Ray's dynamic block
    splitting re-targets block size downstream, so no repartition needed."""
    return ds.map_batches(
        lambda b: chunk_windows_batch(b, window, stride, text_col, id_col),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Greedy sequence packing (concat-and-chunk, distributed prefix sum)
# ---------------------------------------------------------------------------


def sequence_pack(
    ds,
    capacity: int = 2048,
    bucket_size: int = 4096,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Concat-and-chunk sequence packing (the GPT-style pretraining layout):
    the corpus is one global token stream ordered by `id_col`, cut into
    fixed `capacity`-token bins; documents may span bin boundaries.  Emits
    per doc: n_tokens, tok_start (global exclusive prefix sum), bin_first,
    bin_last, n_bins.

    Scale design — a DISTRIBUTED PREFIX SUM, not a global sort:
      1. one narrow map_batches computes (doc_id, n_tokens,
         bucket = doc_id // bucket_size); the token counts are materialized
         (3 int64 columns — ~24 B/doc, metadata-scale, NOT the corpus);
      2. per-bucket token sums are pre-aggregated INSIDE map_batches
         (one partial row per bucket per batch), so the driver reduces
         n_buckets×tasks tiny rows and runs the exclusive scan over
         n_buckets offsets locally — O(N / bucket_size), never O(N);
      3. one groupby(bucket) shuffle co-locates each bucket;
         map_groups sorts the bucket by id (bounded: ≤ bucket_size rows)
         and adds the broadcast bucket offset to a local cumsum.
    Total: two passes over the narrow projection, ONE keyed shuffle of
    24 B/doc rows.  At 10^12 turns the shuffled payload is ~24 TB/1000
    (counts only), and no stage holds more than one bucket.

    Requires non-negative integer ids (true for doc_id and for the dense
    turn remap used by the transcript tables)."""
    import ray

    def count_tokens(b: pa.Table) -> pa.Table:
        _f, _p, n_tok = _explode_tokens(b[text_col])
        did = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(did),
                "n_tokens": pa.array(n_tok),
                "bucket": pa.array(did // bucket_size),
            }
        )

    counts = ds.map_batches(count_tokens, batch_format="pyarrow").materialize()

    def partial_bucket_sums(b: pa.Table) -> pa.Table:
        import pandas as pd

        g = pd.DataFrame(
            {"bucket": b["bucket"].to_numpy(), "s": b["n_tokens"].to_numpy()}
        ).groupby("bucket", sort=False)["s"].sum()
        return pa.table({"bucket": pa.array(g.index.to_numpy()), "s": pa.array(g.to_numpy())})

    import pandas as pd

    parts = counts.map_batches(partial_bucket_sums, batch_format="pyarrow").to_pandas()
    sums = parts.groupby("bucket")["s"].sum().sort_index()
    offsets = dict(zip(sums.index.to_numpy(), np.concatenate(([0], np.cumsum(sums.to_numpy())))[:-1]))
    off_ref = ray.put(offsets)

    def pack_group(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = g.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        n = g["n_tokens"].to_numpy(dtype=np.int64)
        start = int(off[int(g["bucket"].iloc[0])]) + np.concatenate(([0], np.cumsum(n)))[:-1]
        end = start + np.maximum(n, 1) - 1  # 0-token docs occupy their start bin
        return pd.DataFrame(
            {
                id_col: g[id_col],
                "n_tokens": n,
                "tok_start": start,
                "bin_first": start // capacity,
                "bin_last": end // capacity,
                "n_bins": end // capacity - start // capacity + 1,
            }
        )

    return counts.groupby("bucket").map_groups(pack_group)


# ---------------------------------------------------------------------------
# Corpus vocabulary (global term frequencies) + unigram-LM surprisal scoring
# ---------------------------------------------------------------------------


def _token_counts(ds, text_col: str):
    """Global (token, freq) table: per-batch ``pc.value_counts`` partials
    (map-side combine — each batch emits its DISTINCT tokens once, not every
    occurrence), then ONE token-keyed groupby-sum.  The shuffled payload is
    the per-batch vocabulary, typically 100-1000× smaller than the token
    stream; classic word-count shape."""

    def partial(b: pa.Table) -> pa.Table:
        flat, _p, _n = _explode_tokens(b[text_col])
        vc = pc.value_counts(flat)
        return pa.table(
            {"token": vc.field("values"), "freq": vc.field("counts").cast(pa.int64())}
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("token").sum("freq")

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"token": b["token"], "freq": b["sum(freq)"].cast(pa.int64())})

    return agg.map_batches(rename, batch_format="pyarrow")


def _topk_by_freq(counts_ds, k: int) -> pa.Table:
    """Deterministic top-k (freq DESC, token ASC) without a global sort:
    per-block partial top-k inside map_batches, tiny driver merge over
    k×n_blocks rows — the ft_collation_sort idiom."""

    def part(b: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({"token": b["token"].to_pandas(), "freq": b["freq"].to_numpy()})
        df = df.sort_values(["freq", "token"], ascending=[False, True], kind="mergesort")
        return pa.Table.from_pandas(df.head(k), preserve_index=False)

    import pandas as pd

    tops = counts_ds.map_batches(part, batch_format="pyarrow").to_pandas()
    tops = tops.sort_values(["freq", "token"], ascending=[False, True], kind="mergesort").head(k)
    return pa.Table.from_pandas(tops.reset_index(drop=True), preserve_index=False)


def vocab_topk(ds, k: int = 100, text_col: str = "text") -> pa.Table:
    """Top-k corpus vocabulary by global frequency (ties broken by token
    ascending, pinned on both sides).  Small result — returns a pa.Table."""
    return _topk_by_freq(_token_counts(ds, text_col), k)


def unigram_surprisal(
    ds,
    vocab_size: int = 4096,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Unigram-LM quality score (the CCNet / KenLM-style perplexity filter,
    reduced to its scalable skeleton): train a unigram model on the corpus
    itself — top-`vocab_size` tokens by global frequency (freq DESC, token
    ASC ties), p(tok) = freq / N_total with an OOV floor of 1/N_total — and
    score each document by its mean negative log-likelihood.  High avg_nll
    = far from the corpus distribution (the CCNet tail bucket).

    Scale shape: ONE token-keyed shuffle of per-batch vocabulary partials
    (map-side combined) trains the model; the top-V cut uses the partial
    top-k idiom (no global sort); the model (V entries + one scalar) is
    ray.put-broadcast; scoring is one narrow vectorized pass.  The corpus
    token stream itself is never shuffled."""
    import math

    import ray

    counts = _token_counts(ds, text_col).materialize()
    n_total = int(counts.sum("freq"))
    vocab_tbl = _topk_by_freq(counts, vocab_size)
    vocab = dict(
        zip(vocab_tbl["token"].to_pylist(), vocab_tbl["freq"].to_numpy().astype(np.int64))
    )
    model_ref = ray.put((vocab, n_total))

    def score(b: pa.Table, *, _ref=model_ref) -> pa.Table:
        import pandas as pd

        voc, n_tot = ray.get(_ref)
        flat, parent, n_tok = _explode_tokens(b[text_col])
        log_n = math.log(n_tot)
        freqs = flat.to_pandas().map(voc).fillna(1.0).to_numpy(dtype=np.float64)
        nll = log_n - np.log(freqs)
        tot = np.bincount(parent, weights=nll, minlength=b.num_rows)
        return pa.table(
            {
                id_col: b[id_col],
                "n_tokens": pa.array(n_tok),
                "avg_nll": pa.array(np.round(tot / np.maximum(n_tok, 1), 4)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Stratified selection: per-stratum top-n and deterministic hash sampling
# ---------------------------------------------------------------------------


def stratified_topn(
    ds,
    by: str = "lang",
    order_col: str = "n_chars",
    k: int = 25,
    id_col: str = "doc_id",
):
    """Per-stratum top-n (quota sampling — e.g. the n longest documents per
    language).  Scale shape: a per-batch PARTIAL top-n per stratum inside
    map_batches (each batch emits ≤ strata×n rows, bounded regardless of
    batch size), then one groupby(stratum) shuffle of those partials and a
    final in-group top-n.  The corpus never shuffles — only the candidate
    rows do.  Order is (order_col DESC, id ASC), pinned on both sides."""

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        df = pa.table(
            {id_col: b[id_col], by: b[by], order_col: b[order_col]}
        ).to_pandas()
        df = df.sort_values([order_col, id_col], ascending=[False, True], kind="mergesort")
        return pa.Table.from_pandas(df.groupby(by, sort=False).head(k), preserve_index=False)

    def final(g) -> "pd.DataFrame":
        g = g.sort_values([order_col, id_col], ascending=[False, True], kind="mergesort")
        return g.head(k)

    import pandas as pd  # noqa: F401  (map_groups pandas format)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(by)
        .map_groups(final)
    )


# Knuth multiplicative constant — shared verbatim with the SQL oracle; pure
# int arithmetic, so the "hash" is engine-independent by construction.
_SAMPLE_MULT = 2654435761
_SAMPLE_MOD = 4294967296


def hash_sample(ds, rate: float = 0.1, id_col: str = "doc_id"):
    """Deterministic Bernoulli sampling: keep rows where
    (id * 2654435761) mod 2^32 < rate·2^32.  No RNG state — the sample is a
    pure function of the id, so a resumed or re-run 100 TB job selects the
    SAME rows (idempotent sampling), and any engine (SQL included) can
    reproduce the selection exactly.  One narrow filter pass."""
    thresh = int(rate * _SAMPLE_MOD)

    def f(b: pa.Table) -> pa.Table:
        did = b[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        # reduce mod 2^32 BEFORE multiplying: (a mod m · c) mod m ≡ (a·c) mod m,
        # and the reduced product fits uint64 exactly — no silent 2^64 wrap,
        # so the engine matches the SQL HUGEINT arithmetic for ANY int64 id.
        keep = ((did % np.uint64(_SAMPLE_MOD)) * np.uint64(_SAMPLE_MULT)) % np.uint64(
            _SAMPLE_MOD
        ) < np.uint64(thresh)
        return b.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact substring (duplicated L-gram span) dedup
# ---------------------------------------------------------------------------
# The ExactSubstr formulation of Lee et al. 2022 ("Deduplicating Training
# Data Makes Language Models Better"): any token window of length L whose
# exact token sequence occurs >= 2 times ANYWHERE in the corpus (across or
# within documents) is duplicated text; overlapping duplicated windows merge
# into maximal spans.  The paper builds one corpus-wide suffix array — a
# global sorted structure no 100 TB pipeline wants.  The window-hash
# formulation below is exactly equivalent for a FIXED L (the suffix array
# finds all L' >= L matches at once; a fixed-L scan finds the same covered
# positions, since any longer match is a union of overlapping L-windows) and
# needs only keyed shuffles:
#
#   1. map_batches: every L-window -> (h1, h2, doc, pos) with two
#      independent 64-bit polynomial hashes over siphashed tokens (128 bits
#      of key: at 10^12 windows the expected number of colliding PAIRS is
#      ~10^24/2^129 ~ 10^-15 — exactness holds at any realistic scale,
#      without shipping the L-token window text through the shuffle).
#   2. ONE (h1, h2)-keyed ``shard_groups`` exchange: every occurrence of a
#      key reaches the same kernel call, so "key occurs >= 2 times" is a
#      local vectorized run-length test — no join, no second pass over the
#      corpus.  Only duplicated occurrences (the candidate set, typically a
#      tiny fraction of windows) leave this stage.  A call holds
#      ~|windows|/SHARDS rows; at 256 shards an int64 column of a call
#      stays under Arrow's 2 GB single-array limit up to ~5·10^10 windows.
#   3. ONE doc-keyed exchange merges each document's duplicated windows into
#      maximal spans (vectorized gap scan; a gap > L between window starts
#      breaks a span) and emits per-doc span stats.

_WIN_MULT_A = np.uint64(0x9E3779B97F4A7C15)
_WIN_MULT_B = np.uint64(0xC2B2AE3D27D4EB4F)

_OCC_SCHEMA = pa.schema(
    [
        ("h1", pa.int64()),
        ("h2", pa.int64()),
        ("doc", pa.int64()),
        ("pos", pa.int64()),
        ("ntok", pa.int64()),
    ]
)


def _window_poly(tok_hash: np.ndarray, L: int, mult: np.uint64) -> np.ndarray:
    """Degree-(L-1) polynomial hash of every length-L window of ``tok_hash``
    (uint64, wrapping).  L vectorized passes over the array — no per-window
    Python work."""
    n = tok_hash.size - L + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    acc = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(L):
            acc = acc * mult + tok_hash[i : i + n]
    return acc


def window_occurrences_batch(
    batch: pa.Table, L: int, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """One row per L-token window occurrence: (h1, h2, doc, pos, ntok).
    ``pos`` is the 0-based token index of the window start; ``ntok`` carries
    the document's token count so the final stage needs no extra join."""
    flat, parent, n_tok = _explode_tokens(batch[text_col])
    th = _hash_strings(flat)
    h1 = _window_poly(th, L, _WIN_MULT_A)
    n = h1.size
    if n == 0:
        return _OCC_SCHEMA.empty_table()
    h2 = _window_poly(th, L, _WIN_MULT_B)
    # a window is real only when it lies entirely inside one document: the
    # flat token array concatenates every row of the batch
    keep = parent[:n] == parent[L - 1 : L - 1 + n]
    idx = np.nonzero(keep)[0]
    if idx.size == 0:
        return _OCC_SCHEMA.empty_table()
    row_start = np.concatenate([[0], np.cumsum(n_tok)[:-1]]).astype(np.int64)
    par = parent[idx]
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "h1": pa.array(h1[idx].view(np.int64)),
            "h2": pa.array(h2[idx].view(np.int64)),
            "doc": pa.array(ids[par]),
            "pos": pa.array(idx - row_start[par]),
            "ntok": pa.array(n_tok[par]),
        },
        schema=_OCC_SCHEMA,
    )


def _dup_windows(g: pa.Table) -> np.ndarray:
    """Row indices of ``g`` whose (h1, h2) window key occurs ≥ 2 times —
    every occurrence of a key is in the same ``shard_groups`` call."""
    h1 = g["h1"].to_numpy(zero_copy_only=False)
    h2 = g["h2"].to_numpy(zero_copy_only=False)
    order = np.lexsort((h2, h1))
    run_id = np.cumsum(run_starts(h1[order], h2[order])) - 1
    return order[np.bincount(run_id)[run_id] >= 2]


def substring_dedup(ds, L: int = 8, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc duplicated-substring span stats: (doc_id, n_tokens,
    dup_tokens, dup_spans) for every document containing at least one
    corpus-duplicated L-gram (docs with zero duplicated windows are simply
    absent).  ALL occurrences are marked, including the "first" one — the
    symmetric formulation (the keep-one-copy policy is a downstream choice;
    marking every occurrence is what the span statistics measure)."""

    occ = ds.map_batches(
        lambda b: window_occurrences_batch(b, L, text_col, id_col),
        batch_format="pyarrow",
    )

    def dup_occurrences(g: pa.Table) -> pa.Table:
        return g.select(["doc", "pos", "ntok"]).take(pa.array(_dup_windows(g)))

    def doc_spans(g: pa.Table) -> pa.Table:
        doc = g["doc"].to_numpy(zero_copy_only=False)
        pos = g["pos"].to_numpy(zero_copy_only=False)
        ntok = g["ntok"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, doc))
        doc, pos, ntok = doc[order], pos[order], ntok[order]
        # span break: new doc, or a start gap > L (gap == L means the two
        # windows' covered intervals touch — still one contiguous span)
        brk = run_starts(doc)
        brk[1:] |= pos[1:] - pos[:-1] > L
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], doc.size)[: starts.size] - 1
        covered = pos[ends] - pos[starts] + L  # contiguous within a span
        span_doc = doc[starts]
        # reduce spans -> per-doc rows (spans are doc-sorted)
        dstarts = np.flatnonzero(run_starts(span_doc))
        return pa.table(
            {
                "doc_id": pa.array(span_doc[dstarts], pa.int64()),
                "n_tokens": pa.array(ntok[starts][dstarts], pa.int64()),
                "dup_tokens": pa.array(np.add.reduceat(covered, dstarts), pa.int64()),
                "dup_spans": pa.array(
                    np.diff(np.concatenate([dstarts, [span_doc.size]])), pa.int64()
                ),
            }
        )

    dups = shard_groups(occ, ["h1", "h2"], dup_occurrences)
    return shard_groups(dups, "doc", doc_spans)


def remove_duplicate_substrings(
    ds, L: int = 8, text_col: str = "text", id_col: str = "doc_id"
):
    """Cleaned corpus: every token covered by a corpus-duplicated L-gram is
    dropped and the survivors re-joined with single spaces -> (doc_id,
    clean_text, n_tokens, dup_tokens).  Docs with no duplicated window pass
    through verbatim.  Plan = substring_dedup's window-keyed exchange to
    find duplicated occurrences, then ONE doc-keyed exchange co-locating
    each doc's text row with its duplicated window starts (union +
    ``shard_groups`` — the join idiom used by the jaccard/minhash verify
    stages)."""

    occ = ds.map_batches(
        lambda b: window_occurrences_batch(b, L, text_col, id_col),
        batch_format="pyarrow",
    )

    def dup_starts(g: pa.Table) -> pa.Table:
        sel = pa.array(_dup_windows(g))
        return pa.table(
            {
                "doc": g["doc"].take(sel),
                "pos": g["pos"].take(sel),
                "txt": pa.nulls(len(sel), pa.string()),
                "side": pa.array(np.ones(len(sel), dtype=np.int32)),
            }
        )

    def text_rows(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc": pa.array(ids),
                "pos": pa.array(np.zeros(len(ids), dtype=np.int64)),
                "txt": pc.fill_null(b[text_col].combine_chunks().cast(pa.string()), ""),
                "side": pa.array(np.zeros(len(ids), dtype=np.int32)),
            }
        )

    def rebuild(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        tg = g.filter(pa.array(side == 0))
        og = g.filter(pa.array(side == 1))
        texts = tg["txt"].combine_chunks()
        docs = tg["doc"].to_numpy(zero_copy_only=False)
        flat, parent, n_tok = _explode_tokens(texts)
        row_start = np.concatenate([[0], np.cumsum(n_tok)[:-1]]).astype(np.int64)
        # mark covered flat-token positions from the duplicated window starts
        covered = np.zeros(len(flat), dtype=bool)
        if og.num_rows:
            # docs may be unsorted in the group — map doc id -> row index
            order = np.argsort(docs, kind="mergesort")
            dpos = order[np.searchsorted(docs[order], og["doc"].to_numpy(zero_copy_only=False))]
            base = row_start[dpos] + og["pos"].to_numpy(zero_copy_only=False)
            for off in range(L):  # L vectorized scatters, not a row loop
                covered[base + off] = True
        kept = ~covered
        new_counts = np.bincount(parent[kept], minlength=len(docs)).astype(np.int64)
        kept_flat = pa.chunked_array([flat], pa.string()).combine_chunks().filter(pa.array(kept))
        # 64-bit offsets: a doc-shard group's token total is unbounded by
        # any single doc, so don't let int32 cumsum be the silent ceiling
        offsets = np.concatenate([[0], np.cumsum(new_counts)]).astype(np.int64)
        lists = pa.LargeListArray.from_arrays(pa.array(offsets), kept_flat)
        clean = pc.binary_join(lists, " ")
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.int64()),
                "clean_text": clean,
                "n_tokens": pa.array(n_tok, pa.int64()),
                "dup_tokens": pa.array(n_tok - new_counts, pa.int64()),
            }
        )

    dups = shard_groups(occ, ["h1", "h2"], dup_starts)
    texts = ds.map_batches(text_rows, batch_format="pyarrow")
    return shard_groups(dups.union(texts), "doc", rebuild)


# ---------------------------------------------------------------------------
# BPE tokenizer training (byte-pair merge learning from distributed counts)
# ---------------------------------------------------------------------------
# Classic Sennrich et al. 2016 BPE.  The scalable decomposition is the one
# every production tokenizer trainer uses: the corpus-sized work is ONE
# word-count aggregation (map-side value_counts partials + one token-keyed
# groupby-sum — the corpus token stream never shuffles), and the merge
# learning then runs over the compact (word, freq) vocabulary, which is
# corpus-size-independent (bounded further by ``max_words``).  The driver
# holds only that bounded table; the 100 TB corpus is touched exactly once.


def _bpe_merges_from_counts(words: list, freqs: np.ndarray, num_merges: int) -> list:
    """Greedy BPE merge learning over a (word, freq) vocabulary with
    incremental pair-count maintenance (only words containing the merged
    pair are re-scanned).  Deterministic: best pair = (count DESC, pair
    lexicographic ASC); merges stop early when no pair repeats."""
    from collections import defaultdict

    syms = [tuple(w) + ("</w>",) for w in words]
    pair_counts: dict = defaultdict(int)
    pair_words: dict = defaultdict(set)
    for wi, s in enumerate(syms):
        f = int(freqs[wi])
        for p in zip(s, s[1:]):
            pair_counts[p] += f
            pair_words[p].add(wi)

    merges = []
    for _rank in range(num_merges):
        live = [(c, p) for p, c in pair_counts.items() if c > 0]
        if not live:
            break
        best = min(live, key=lambda cp: (-cp[0], cp[1]))[1]
        best_count = pair_counts[best]
        merges.append((best[0], best[1], int(best_count)))
        new_sym = best[0] + best[1]
        for wi in list(pair_words.get(best, ())):
            s = syms[wi]
            f = int(freqs[wi])
            changed = False
            out = []
            i = 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == best[0] and s[i + 1] == best[1]:
                    out.append(new_sym)
                    i += 2
                    changed = True
                else:
                    out.append(s[i])
                    i += 1
            if not changed:
                # stale index entry (the pair was merged away by an earlier
                # round's rewrite of this word) — nothing to do
                continue
            for p in zip(s, s[1:]):
                pair_counts[p] -= f
            s2 = tuple(out)
            syms[wi] = s2
            for p in zip(s2, s2[1:]):
                pair_counts[p] += f
                pair_words[p].add(wi)
        pair_counts.pop(best, None)
        pair_words.pop(best, None)
    return merges


def train_bpe(
    ds,
    num_merges: int = 200,
    text_col: str = "text",
    max_words: int = 100_000,
):
    """Learn a BPE merge table from the corpus -> pa.Table (rank, left,
    right, freq).  ``max_words`` bounds the driver-side vocabulary via the
    partial-top-k idiom (freq DESC, word ASC — no global sort); words below
    the cut contribute nothing, the standard frequency-floor approximation.
    """
    counts = _token_counts(ds, text_col).materialize()
    vocab_tbl = _topk_by_freq(counts, max_words)
    words = vocab_tbl["token"].to_pylist()
    freqs = vocab_tbl["freq"].to_numpy().astype(np.int64)
    # drop the empty-string token null texts pin to — it has no characters
    keep = [i for i, w in enumerate(words) if w]
    merges = _bpe_merges_from_counts(
        [words[i] for i in keep], freqs[keep], num_merges
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(len(merges), dtype=np.int64)),
            "left": pa.array([m[0] for m in merges], type=pa.string()),
            "right": pa.array([m[1] for m in merges], type=pa.string()),
            "freq": pa.array([m[2] for m in merges], type=pa.int64()),
        }
    )


def bpe_encode_word(word: str, ranks: dict) -> list:
    """Greedy BPE segmentation of one word: repeatedly merge ALL
    occurrences of the lowest-rank adjacent pair (the canonical apply
    rule matching the training loop's all-occurrences merge)."""
    s = list(word) + ["</w>"]
    while len(s) >= 2:
        best_rank = None
        best = None
        for p in zip(s, s[1:]):
            r = ranks.get(p)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best = r, p
        if best is None:
            break
        out = []
        i = 0
        while i < len(s):
            if i + 1 < len(s) and s[i] == best[0] and s[i + 1] == best[1]:
                out.append(best[0] + best[1])
                i += 2
            else:
                out.append(s[i])
                i += 1
        s = out
    return s


def bpe_apply(ds, merges: pa.Table, text_col: str = "text", id_col: str = "doc_id"):
    """Segment the corpus with a learned merge table -> (doc_id, n_tokens,
    n_pieces, fertility).  The merge table is ray.put-broadcast once; each
    batch encodes only its DISTINCT words (value_counts first), so the
    per-word Python segmentation runs on the batch vocabulary, not the
    token stream, and the counts expand back vectorized."""
    import ray

    ranks_ref = ray.put(
        {
            (l, r): i
            for i, (l, r) in enumerate(
                zip(merges["left"].to_pylist(), merges["right"].to_pylist())
            )
        }
    )

    def f(b: pa.Table, *, _ref=ranks_ref) -> pa.Table:
        ranks = ray.get(_ref)
        flat, parent, n_tok = _explode_tokens(b[text_col])
        enc = pc.dictionary_encode(flat)
        dict_vals = enc.dictionary.to_pylist() if len(flat) else []
        pieces_per = np.array(
            [len(bpe_encode_word(w, ranks)) for w in dict_vals], dtype=np.int64
        )
        codes = (
            enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            if len(flat)
            else np.empty(0, dtype=np.int64)
        )
        per_tok = pieces_per[codes] if codes.size else codes
        n_pieces = np.bincount(parent, weights=per_tok, minlength=b.num_rows).astype(
            np.int64
        )
        return pa.table(
            {
                id_col: b[id_col],
                "n_tokens": pa.array(n_tok),
                "n_pieces": pa.array(n_pieces),
                "fertility": pa.array(
                    round_half_away(n_pieces / np.maximum(n_tok, 1), 4)
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SemDeDup — semantic (embedding-space) deduplication
# ---------------------------------------------------------------------------


_GREEDY_BLOCK = 256


def _greedy_keep(
    vecs: np.ndarray, threshold: float, block: int = _GREEDY_BLOCK
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy near-dup keep over the rows of a row-normalized matrix, in row
    order: a row is dropped iff its cosine to some earlier KEPT row is
    >= ``threshold``.  Returns (kept, nearest, max_sim): ``nearest`` = the
    row index of the first earlier kept row with the highest cosine (-1 for
    row 0), ``max_sim`` = that cosine (0.0 for row 0).

    Each block of rows is compared with the kept rows before it in one
    product, then with the block's own kept rows one row at a time, so
    memory is O(block x kept) rather than n x n."""
    n = len(vecs)
    kept = np.zeros(n, dtype=bool)
    nearest = np.full(n, -1, dtype=np.int64)
    max_sim = np.zeros(n, dtype=np.float64)
    kmat = np.empty_like(vecs)  # kept rows, in row order
    krow = np.empty(n, dtype=np.int64)  # their row indices
    nk = 0
    for a in range(0, n, block):
        vb = vecs[a : a + block]
        m = len(vb)
        if nk:
            s = vb @ kmat[:nk].T
            jk = np.argmax(s, axis=1)
            best = s[np.arange(m), jk]
            near = krow[jk]
            del s
        else:
            best = np.full(m, -np.inf)
            near = np.full(m, -1, dtype=np.int64)
        w = vb @ vb.T
        mine: list[int] = []  # block offsets of the block's kept rows
        for i in range(m):
            b, j = best[i], near[i]
            if mine:
                sw = w[i, mine]
                t = int(np.argmax(sw))
                # ties go to the earlier kept row, i.e. the one before the block
                if sw[t] > b:
                    b, j = sw[t], a + mine[t]
            if j < 0:
                mine.append(i)
                continue
            nearest[a + i] = j
            max_sim[a + i] = b
            if b < threshold:
                mine.append(i)
        rows = a + np.asarray(mine, dtype=np.int64)
        kept[rows] = True
        kmat[nk : nk + len(mine)] = vecs[rows]
        krow[nk : nk + len(mine)] = rows
        nk += len(mine)
    return kept, nearest, max_sim


def semantic_dedup(
    ds,
    n_clusters: int = 16,
    threshold: float = 0.95,
    n_iters: int = 10,
    centroids: np.ndarray | None = None,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    cluster_cap: int = 50_000,
):
    """SemDeDup (Abbas et al. 2023): k-means-partition the embedding space,
    then WITHIN each cluster greedily drop every vector whose cosine to an
    already-kept lower-id vector is >= ``threshold``.  The defining scale
    property: candidate pairs only ever form inside a cluster, so the
    quadratic pair work is bounded per cluster and the corpus-wide cost is
    one codebook training (narrow Lloyd passes), one assignment pass, and
    ONE cluster-keyed shuffle — never an all-pairs exchange.

    Deterministic: the in-engine codebook (pinned smallest-id init, lowest-
    index argmax ties) + id-ascending greedy keep order.  Clusters larger
    than ``cluster_cap`` process their id-sorted head exactly and pass the
    overflow through as survivors with a logged warning (the hot-bucket cap
    idiom — a cluster that big means K is undersized for the corpus).

    Returns (vec_id, cluster, kept, dup_of, max_sim): ``dup_of`` = the kept
    id that shadowed a dropped row (-1 for survivors), ``max_sim`` = its
    cosine to that id (survivors: max cosine to any kept lower-id member,
    0.0 for the cluster's first row)."""
    import logging

    import ray

    if centroids is None:
        centroids = train_kmeans_codebook(
            ds, n_centroids=n_clusters, n_iters=n_iters, id_col=id_col, vec_col=vec_col
        )
    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    cn_ref = ray.put(cn)

    def assign(b: pa.Table) -> pa.Table:
        cmat = ray.get(cn_ref)
        b = bare_schema(b)
        vecs = _normalize(_vec_matrix(b, vec_col))
        cl = np.argmax(vecs @ cmat.T, axis=1).astype(np.int64)
        return pa.table(
            {
                id_col: b[id_col].cast(pa.int64()),
                vec_col: b[vec_col],
                "cluster": pa.array(cl),
            }
        )

    def dedup_cluster(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="mergesort")
        g = g.take(pa.array(order))
        ids = ids[order]
        n = len(ids)
        head = min(n, cluster_cap)
        if head < n:
            logging.getLogger(__name__).warning(
                "semantic_dedup: cluster %s has %d rows > cap %d; overflow kept",
                int(g["cluster"][0].as_py()),
                n,
                cluster_cap,
            )
        kept_mask, nearest, head_sim = _greedy_keep(
            _normalize(_vec_matrix(g.slice(0, head), vec_col)), threshold
        )
        kept = np.ones(n, dtype=bool)
        kept[:head] = kept_mask
        dup_of = np.full(n, -1, dtype=np.int64)
        dup_of[:head][~kept_mask] = ids[nearest[~kept_mask]]
        max_sim = np.zeros(n, dtype=np.float64)
        max_sim[:head] = head_sim
        return pa.table(
            {
                id_col: pa.array(ids),
                "cluster": g["cluster"],
                "kept": pa.array(kept),
                "dup_of": pa.array(dup_of),
                "max_sim": pa.array(round_half_away(max_sim, 4)),
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(dedup_cluster, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Temperature-based mixture sampling (multilingual / multi-source rebalance)
# ---------------------------------------------------------------------------


def temperature_sample(
    ds,
    by: str = "lang",
    alpha: float = 0.5,
    rate: float = 0.5,
    id_col: str = "doc_id",
):
    """Deterministic temperature sampling (the mC4 / XLM-R mixing rule):
    stratum s gets mixture weight w_s = n_s^alpha / sum_t n_t^alpha (alpha<1
    upweights tail strata), target output size = rate * N_total, and a row
    survives iff knuth_hash(id) < q_s * 2^32 where q_s = min(1, target *
    w_s / n_s).  No RNG state — the sample is a pure function of (id,
    stratum counts), so re-runs/resumes select identical rows and any SQL
    engine reproduces the selection exactly.

    Scale shape: ONE tiny stratum-count groupby (result is |strata| rows on
    the driver — bounded by construction), per-stratum thresholds broadcast,
    then one narrow vectorized filter pass; the corpus never shuffles.
    ``q_s`` is rounded to 6 decimals BEFORE the 2^32 floor on both the
    engine and SQL sides so float ulps can't flip a boundary row, with the
    SQL ROUND rule (half away from zero).  Rows with a null ``by`` belong
    to no stratum: they raise ValueError instead of being sampled."""
    import ray

    counts = ds.groupby(by).count().to_pandas()
    null_rows = int(counts.loc[counts[by].isna(), "count()"].sum())
    if null_rows:
        raise ValueError(
            f"temperature_sample: {null_rows} rows have a null {by!r}; "
            "drop or fill them first"
        )
    n = counts["count()"].to_numpy().astype(np.float64)
    strata = counts[by].astype(str).tolist()
    w = np.power(n, alpha)
    w = w / w.sum()
    target = rate * n.sum()
    q = np.minimum(1.0, round_half_away(target * w / n, 6))
    thresh = {s: np.uint64(np.floor(qq * _SAMPLE_MOD)) for s, qq in zip(strata, q)}
    thr_ref = ray.put(thresh)

    def f(b: pa.Table, *, _ref=thr_ref) -> pa.Table:
        th = ray.get(_ref)
        did = b[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = ((did % np.uint64(_SAMPLE_MOD)) * np.uint64(_SAMPLE_MULT)) % np.uint64(
            _SAMPLE_MOD
        )
        # dictionary-encode the stratum column: thresholds resolve once per
        # DISTINCT stratum in the batch and expand by code (no row loop)
        enc = pc.dictionary_encode(b[by].combine_chunks())
        per_dict = np.array(
            [th.get(str(s), np.uint64(0)) for s in enc.dictionary.to_pylist()],
            dtype=np.uint64,
        )
        lim = per_dict[enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)]
        return b.filter(pa.array(h < lim))

    return ds.map_batches(f, batch_format="pyarrow")
