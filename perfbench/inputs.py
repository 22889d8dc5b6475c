"""Seeded input generation for the benchmark workloads (set-up only).

Everything here derives from the ``--seed`` argument; the program under
test only ever sees the generated files and filter objects.  Transcript
text comes from the library's own generator (``sources.transcripts``), so
term frequencies follow its Zipf(1.1) vocabulary with the hot head.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray.sources.transcripts import VOCAB, _CUM, gen_transcripts_range

FAMILIES = ("term", "or3", "and2", "minmatch", "phrase", "prefix", "fuzzy")
BATCH_QUERIES = 16
# one block = 9 single queries + 1 pooled batch, in a seeded order
BLOCK_SINGLES = 9
# curate rows come from a conv-index range far from the corpus and batches
CURATE_CONV_BASE = 50_000_000
# probe terms are drawn from this Zipf-rank window: common enough to hit
# every generation, rare enough that the count is not the whole corpus
PROBE_RANKS = (20, 200)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_conv_range(path: str, start: int, end: int, seed: int) -> dict:
    """Generate conversations [start, end) and write them as one parquet
    file.  Returns the facts the checks need."""
    tbl = gen_transcripts_range(start, end, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(tbl, path)
    return {
        "path": path,
        "rows": tbl.num_rows,
        "arrow_bytes": tbl.nbytes,
        "sha256": file_digest(path),
    }


def corpus_plan(root: str, n_convs: int, chunk_convs: int, n_batches: int,
                batch_convs: int) -> list[tuple[str, int, int]]:
    """(path, start, end) for every corpus chunk and append batch; corpus
    chunks live in ``root/corpus``, batch i in ``root/batch-<i>``."""
    plan = []
    for i, start in enumerate(range(0, n_convs, chunk_convs)):
        end = min(start + chunk_convs, n_convs)
        plan.append((os.path.join(root, "corpus", f"part-{i:05d}.parquet"), start, end))
    for i in range(n_batches):
        start = n_convs + i * batch_convs
        plan.append((os.path.join(root, f"batch-{i:03d}", "part-00000.parquet"),
                     start, start + batch_convs))
    return plan


def zipf_terms(rng: np.random.Generator, n: int) -> list[str]:
    return [VOCAB[i] for i in np.searchsorted(_CUM, rng.random(n))]


class StratifiedZipf:
    """Zipf term draws, stratified per key: every run of ``STRATA`` draws
    under one key takes one uniform from each 1/STRATA slice of the CDF (in
    seeded order).  Any prefix of the stream then holds head and tail terms
    in close to their population shares, whatever the seed."""

    STRATA = 32

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.queues: dict = {}

    def draw(self, key) -> str:
        q = self.queues.get(key)
        if not q:
            n = self.STRATA
            q = self.queues[key] = list((self.rng.permutation(n) + self.rng.random(n)) / n)
        return VOCAB[int(np.searchsorted(_CUM, q.pop()))]


def query_spec(z: StratifiedZipf, family: str, key: str) -> tuple:
    """One query as a hashable spec tuple: (family, *terms)."""
    n = {"term": 1, "or3": 3, "minmatch": 3, "and2": 2, "phrase": 2,
         "prefix": 1, "fuzzy": 1}[family]
    terms = [z.draw((key, family, j)) for j in range(n)]
    if family == "prefix":
        return (family, terms[0][: max(2, len(terms[0]) - 1)])
    return (family, *terms)


def to_filter(spec: tuple):
    from iresearch_ray.query import filters as F

    family, *terms = spec
    if family == "term":
        return F.Term("text", terms[0])
    if family == "or3":
        return F.Or(tuple(F.Term("text", t) for t in terms))
    if family == "minmatch":
        return F.Or(tuple(F.Term("text", t) for t in terms), min_match=2)
    if family == "and2":
        return F.And(tuple(F.Term("text", t) for t in terms))
    if family == "phrase":
        return F.Phrase("text", tuple(terms))
    if family == "prefix":
        return F.Prefix("text", terms[0])
    if family == "fuzzy":
        return F.Fuzzy("text", terms[0], 1)
    raise ValueError(f"unknown query family {family!r}")


def query_stream(seed: int, n_blocks: int) -> list[tuple]:
    """Closed-loop op stream: ("single", spec) or ("batch", [specs]).

    Every block holds 9 singles and one 16-query batch at a seeded slot.
    Families rotate through seeded permutations (singles and batch members
    separately), so each family gets a 1/7 share of both; terms are
    stratified Zipf draws per family and slot."""
    rng = np.random.default_rng([seed, 1])
    z = StratifiedZipf(rng)
    queues: dict[str, list[str]] = {"single": [], "batch": []}

    def next_family(kind: str) -> str:
        if not queues[kind]:
            queues[kind] = [FAMILIES[i] for i in rng.permutation(len(FAMILIES))]
        return queues[kind].pop()

    ops: list[tuple] = []
    for _ in range(n_blocks):
        batch_slot = int(rng.integers(0, BLOCK_SINGLES + 1))
        for slot in range(BLOCK_SINGLES + 1):
            if slot == batch_slot:
                ops.append(("batch", [query_spec(z, next_family("batch"), "batch")
                                      for _ in range(BATCH_QUERIES)]))
            else:
                ops.append(("single", query_spec(z, next_family("single"), "single")))
    return ops


def probe_terms(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng([seed, 2])
    lo, hi = PROBE_RANKS
    return [VOCAB[i] for i in rng.integers(lo, hi, n)]


def count_rows_with_term(paths: list[str], term: str) -> int:
    """Rows whose text holds ``term`` as a whole token.  Generated text is
    lower-case vocabulary words joined by single spaces, so a token match is
    a space-delimited substring match."""
    import pyarrow.compute as pc

    pat = rf"(^| ){term}( |$)"
    return sum(
        int(pc.sum(pc.match_substring_regex(pq.read_table(p, columns=["text"])["text"], pat)).as_py() or 0)
        for p in paths
    )


def curate_table(seed: int, n_base: int, exact_share: float, near_share: float,
                 min_near_words: int = 24) -> tuple[pa.Table, dict]:
    """A (doc_id, text) table with planted duplicates.

    ``n_base`` distinct transcript texts, plus ``exact_share`` × n_base
    verbatim copies and ``near_share`` × n_base near-copies (one or two
    words swapped in a text of at least ``min_near_words`` words).  Rows are
    shuffled and numbered, so a copy may get a lower id than its original.
    Returns the table and the planted facts the checks use."""
    rng = np.random.default_rng([seed, 3])
    texts: list[str] = []
    seen: set[str] = set()
    ci = CURATE_CONV_BASE
    while len(texts) < n_base:
        chunk = gen_transcripts_range(ci, ci + 256, seed)["text"].to_pylist()
        ci += 256
        for t in chunk:
            if t not in seen and len(texts) < n_base:
                seen.add(t)
                texts.append(t)
    n_exact = int(round(exact_share * n_base))
    n_near = int(round(near_share * n_base))
    exact_src = rng.choice(n_base, n_exact, replace=False)
    long_rows = np.flatnonzero([len(t.split(" ")) >= min_near_words for t in texts])
    near_src = rng.choice(long_rows, min(n_near, long_rows.size), replace=False)
    rows = list(texts)
    near_pairs: list[tuple[int, int]] = []  # (base row, new row)
    for b in exact_src:
        rows.append(texts[b])
    for b in near_src:
        words = texts[b].split(" ")
        for _ in range(int(rng.integers(1, 3))):
            pos = int(rng.integers(0, len(words)))
            repl = zipf_terms(rng, 1)[0]
            while repl == words[pos]:
                repl = zipf_terms(rng, 1)[0]
            words[pos] = repl
        new = " ".join(words)
        if new in seen:  # vanishingly rare; keep the exact-dup count honest
            continue
        seen.add(new)
        near_pairs.append((int(b), len(rows)))
        rows.append(new)
    order = rng.permutation(len(rows))
    doc_id = np.empty(len(rows), dtype=np.int64)
    doc_id[order] = np.arange(len(rows), dtype=np.int64)  # row r gets id doc_id[r]
    tbl = pa.table({
        "doc_id": pa.array(np.arange(len(rows), dtype=np.int64)),
        "text": pa.array([rows[r] for r in order], pa.string()),
    })
    facts = {
        "rows": len(rows),
        "planted_exact": n_exact,
        "near_pairs": sorted(
            (int(min(doc_id[a], doc_id[b])), int(max(doc_id[a], doc_id[b]))) for a, b in near_pairs
        ),
    }
    return tbl, facts


def table_digest(tbl: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def stream_digest(ops: list[tuple]) -> str:
    return hashlib.sha256(repr(ops).encode()).hexdigest()
