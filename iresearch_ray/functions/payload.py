"""Payload read surface — the ``payload`` token attribute served back from
the posting format (SURVEY §2.1 token_attributes.hpp payload; indexed via
``IndexConfig(payloads=True)`` + the ``delimited_payload`` analyzer).

Two consumers:

- :func:`term_payloads` — every (doc, [payload bytes...]) of one term, the
  raw attribute access (what the reference exposes through its payload
  iterator).
- :func:`payload_sum_topk` — top-k docs by the SUM of a term's payloads
  parsed as floats (the public idiom is Lucene's PayloadScoreQuery with the
  sum function): payload-carried weights replace tf as the relevance
  signal.  Non-numeric payloads contribute 0 (documented, asserted in
  tests) rather than erroring, matching the skip-quietly behavior a mixed
  corpus needs.

Deletes are honored through the same tombstone masks the search path uses.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from iresearch_ray.functions.codec import decode_payloads
from iresearch_ray.pipelines.search import merge_topk


def _reader_term_payloads(reader, field: str, term: str):
    """One segment's (local doc ids, tfs, flat payload list) for a term."""
    row = reader.term_row(field, term)
    if row is None:
        return None
    t = reader.terms
    pay_blob = t["pay_blob"][row].as_py() if "pay_blob" in t.column_names else None
    if not pay_blob:
        raise ValueError(
            "payload access needs the index built with IndexConfig(payloads=True)"
        )
    cnt = np.asarray(t["block_doc_count"][row].as_py(), dtype=np.int64)
    pay_off = np.asarray(t["pay_off"][row].as_py(), dtype=np.int64)
    docs, tfs = reader.bulk_postings([row])[row]
    pays: list[bytes] = []
    for b in range(cnt.size):
        pays += decode_payloads(pay_blob, pay_off, tfs, b, cnt.size, cnt)
    return docs, tfs, pays


def term_payloads(searcher, field: str, term: str) -> pd.DataFrame:
    """(conv_id, turn_idx, payloads) for every live doc containing ``term``
    — payloads in position order, as a list of bytes per row."""
    out_conv, out_turn, out_pays = [], [], []
    shard = searcher._shard()
    for r, deleted in zip(shard.readers, shard.deleted):
        hit = _reader_term_payloads(r, field, term)
        if hit is None:
            continue
        docs, tfs, pays = hit
        conv_all, turn_all = r.doc_keys
        ends = np.cumsum(tfs)
        starts = ends - tfs
        for j in range(docs.size):
            d = int(docs[j])
            if deleted is not None and deleted[d - 1]:
                continue
            out_conv.append(conv_all[d - 1])
            out_turn.append(int(turn_all[d - 1]))
            out_pays.append(pays[int(starts[j]) : int(ends[j])])
    df = pd.DataFrame({"conv_id": out_conv, "turn_idx": out_turn, "payloads": out_pays})
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def reader_payload_topk(reader, field: str, term: str, k: int, deleted=None) -> pd.DataFrame:
    """One segment's top-k by payload-weight sum — the per-shard kernel
    (runs inside pool actors for the distributed path).  Vectorized:
    payloads parse as utf-8 floats in one pandas pass (non-numeric /
    undecodable bytes weigh 0), per-doc sums via np.add.reduceat — no
    per-doc python loop on the O(df) path."""
    hit = _reader_term_payloads(reader, field, term)
    if hit is None:
        return pd.DataFrame(columns=["conv_id", "turn_idx", "score"])
    docs, tfs, pays = hit
    conv_all, turn_all = reader.doc_keys
    vals = (
        pd.to_numeric(
            pd.Series(pays, dtype=object).str.decode("utf-8", errors="ignore"),
            errors="coerce",
        )
        .fillna(0.0)
        .to_numpy()
    )
    starts = np.cumsum(tfs) - tfs
    scores = np.add.reduceat(vals, starts) if vals.size else np.zeros(0)
    keep = (
        ~deleted[docs - 1]
        if deleted is not None
        else np.ones(docs.size, dtype=bool)
    )
    df = pd.DataFrame(
        {
            "conv_id": conv_all[docs - 1][keep],
            "turn_idx": turn_all[docs - 1][keep].astype("int64"),
            "score": scores[keep],
        }
    )
    df = df.sort_values(["score", "conv_id", "turn_idx"], ascending=[False, True, True])
    return df.head(k).reset_index(drop=True)


def _merge(parts: list[pd.DataFrame], k: int) -> pd.DataFrame:
    return merge_topk(pd.concat(parts, ignore_index=True), k)


def payload_sum_topk(searcher, field: str, term: str, k: int = 10) -> pd.DataFrame:
    """Top-k (conv_id, turn_idx, score) where score = Σ float(payload) over
    the term's occurrences in the doc; ties broken by (conv_id, turn_idx)
    ascending — the same total order the BM25 path pins."""
    return _merge(searcher._run("payload_topk", field, term, k), k)


def payload_sum_topk_pooled(
    searcher, field: str, term: str, k: int = 10, num_actors: int = 8
) -> pd.DataFrame:
    """Distributed payload ranking through the cached QueryPool: each actor
    ranks its shard's docs, the driver merges k survivors per segment —
    segment payload streams never leave the pool (the full-scale path;
    identical results to payload_sum_topk)."""
    parts = searcher._run("payload_topk", field, term, k, pooled=True, num_actors=num_actors)
    return _merge(parts, k)
