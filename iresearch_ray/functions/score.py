"""Scorers — SURVEY.md §2.6 (parity-critical, formulas pinned).

BM25 (ref: core/search/bm25.cpp; defaults k1=1.2 b=0.75 per BASELINE.json):

    score = boost * idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avg_dl))
    idf   = ln(1 + (N - n + 0.5) / (n + 0.5))

with index-GLOBAL stats (all segments; ref: filter.hpp prepare() collects
across the snapshot): N = docs containing the field, n = docs containing the
term, dl = token count of the field in the doc, avg_dl = total_term_freq / N.
b=0 => BM15 (norms unused), b=1 => BM11.

TFIDF (ref: core/search/tfidf.cpp; Lucene-classic):

    score = boost * sqrt(tf) * idf,   idf = 1 + ln(N / (n + 1))
    with norms: multiplied by 1/sqrt(dl).

All kernels vectorized float64; summation order is pinned term-at-a-time in
query-term order (SURVEY §7.4 rank-identity under floats).
"""

from __future__ import annotations

import math

import numpy as np

K1_DEFAULT = 1.2
B_DEFAULT = 0.75


def bm25_idf(n: float, N: float) -> float:
    """Pinned idf — ln(1 + (N - n + 0.5)/(n + 0.5))."""
    return math.log(1.0 + (N - n + 0.5) / (n + 0.5))


def bm25_tf_factor(
    tf: np.ndarray | float,
    dl: np.ndarray | float,
    avg_dl: float,
    k1: float = K1_DEFAULT,
    b: float = B_DEFAULT,
) -> np.ndarray | float:
    """(tf*(k1+1)) / (tf + k1*(1 - b + b*dl/avg_dl)) — vectorized float64."""
    tf = np.asarray(tf, dtype=np.float64) if isinstance(tf, np.ndarray) else float(tf)
    dl = np.asarray(dl, dtype=np.float64) if isinstance(dl, np.ndarray) else float(dl)
    norm = k1 * (1.0 - b + b * (dl / avg_dl)) if b != 0.0 else k1
    return (tf * (k1 + 1.0)) / (tf + norm)


def tfidf_idf(n: float, N: float) -> float:
    return 1.0 + math.log(N / (n + 1.0))


def tfidf_tf_factor(tf, dl, avg_dl=None, k1=None, b=None):
    """Lucene-classic tf factor with norms folded in: sqrt(tf)/sqrt(dl)."""
    import numpy as _np

    return _np.sqrt(_np.asarray(tf, dtype=_np.float64)) / _np.sqrt(
        _np.asarray(dl, dtype=_np.float64)
    )


# ---------------------------------------------------------------------------
# registry — SURVEY §2.11 (REGISTER_SCORER analog): custom scorers plug in a
# (idf_fn, tf_factor_fn) pair under a name usable via ScorerCfg(name=...)
# ---------------------------------------------------------------------------

SCORERS: dict[str, dict] = {
    "bm25": {"idf": bm25_idf, "tf_factor": bm25_tf_factor},
    "tfidf": {"idf": tfidf_idf, "tf_factor": tfidf_tf_factor},
}


def register_scorer(name: str, idf, tf_factor) -> None:
    """Register a custom scorer (SURVEY §2.11 REGISTER_SCORER analog)."""
    SCORERS[name] = {"idf": idf, "tf_factor": tf_factor}
