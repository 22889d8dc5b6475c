"""Query pipeline — SURVEY.md §3.2 (entry point 2).

driver: manifest snapshot → global stats (cached per generation) → prepare
each query (expansion + idf weights) → one ``Shard`` op per placement
(``stages/searcher.py``): the in-process shard over every segment, each
actor of a persistent QueryPool (``search_pooled``), or one Ray task per
segment (``search_ray``) → driver k-way merge of per-segment top-k under
the pinned total order (score desc, conv_id asc, turn_idx asc — SURVEY
§2.6).

Because the build partitions by hash(conv_id), a document exists in exactly
one segment, so the merge is a pure k-way top-k selection (no score
re-combination across segments).  The merge input is tiny — k rows per
(query, segment) — so it is a driver-side sort, not a shuffle.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa

from iresearch_ray.pipelines.delete import _entries
from iresearch_ray.query.filters import Filter, Prepared, ScorerCfg, prepare
from iresearch_ray.stages.searcher import (
    RESULT_SCHEMA,
    Shard,
    _topk_order,
    deleted_masks,
    search_batch_task,
)
from iresearch_ray.stages.segment import IndexConfig, SegmentReader, open_readers
from iresearch_ray.state.manifest import load_manifest, segment_dirs
from iresearch_ray.state.stats import build_global_stats


# the pinned tie-break after score desc (SURVEY §2.6)
_TIES = ("conv_id", "turn_idx")


def merge_topk(frames: pd.DataFrame, k: int, ties: tuple[str, ...] = _TIES) -> pd.DataFrame:
    """Pinned tie-break merge, per ``query_id`` when the frame has one:
    score desc, then the ``ties`` columns asc (global doc order
    (conv_id, turn_idx) by default); stable for exact rank-identity.
    Extra columns ride along."""
    if frames.empty:
        return frames
    qid = frames["query_id"].to_numpy() if "query_id" in frames.columns else None
    order = _topk_order(k, qid, frames["score"].to_numpy(),
                        *(frames[c].to_numpy() for c in ties))
    return frames.iloc[order].reset_index(drop=True)


def _merge_rows(tables: list[pa.Table], k: int, ties: tuple[str, ...] = _TIES) -> pd.DataFrame:
    """``merge_topk`` of the shards' ``RESULT_SCHEMA`` rows (plus any
    extra tie-break columns): the merge runs on the key arrays and only
    the survivors become a DataFrame."""
    t = pa.concat_tables(tables) if tables else RESULT_SCHEMA.empty_table()
    cols = {c: t[c].to_numpy() for c in t.column_names}
    order = _topk_order(k, cols["query_id"], cols["score"], *(cols[c] for c in ties))
    return pd.DataFrame({c: a[order] for c, a in cols.items()})


class Searcher:
    """Point-in-time searcher over one index generation (the
    directory_reader snapshot analog).

    It pins the manifest loaded at construction; later commits are
    invisible until a new Searcher is opened.  Its segment readers come
    from the process-level reader cache (``stages.segment.open_readers``):
    segments are immutable, so a Searcher on a new generation reuses the
    loaded readers of every segment it shares with an older one and reads
    only the new segments.  Tombstone masks depend on the generation and
    stay per Searcher.

    Every op prepares plans here, runs one ``Shard`` op per placement —
    the in-process shard over every segment, or each actor of the cached
    QueryPool — and merges the per-shard rows here."""

    def __init__(self, index_dir: str, crypto=None):
        self.index_dir = index_dir
        self.crypto = crypto
        manifest = load_manifest(index_dir)
        if manifest is None:
            raise FileNotFoundError(f"no manifest in {index_dir}")
        self.manifest = manifest
        self.cfg = IndexConfig.from_json(manifest["config"])
        self.stats = build_global_stats(index_dir, manifest, crypto=crypto)
        self.seg_dirs = segment_dirs(index_dir, manifest)
        # normalized entries: legacy string tombstones carry implicit global
        # scope, which a raw copy shipped to a pool or task would lose
        self.tombstones = _entries(manifest)
        self._local: Shard | None = None
        self._pool: "QueryPool | None" = None

    # -- prepare ----------------------------------------------------------
    def prepare(self, flt: Filter, scorer: ScorerCfg | None = None) -> Prepared:
        return prepare(flt, self.stats, scorer)

    def _plans(self, queries: dict[str, Filter], scorer: ScorerCfg | None) -> dict[str, dict]:
        return {qid: self.prepare(f, scorer).plan for qid, f in queries.items()}

    # -- placements: one Shard op, in-process or on every pool actor -------
    def _shard(self) -> Shard:
        """The in-process shard over every segment of this generation."""
        if self._local is None:
            readers = open_readers(self.seg_dirs, self.crypto)
            deleted = deleted_masks(self.index_dir, self.tombstones, readers, self.crypto)
            self._local = Shard(readers, deleted)
        return self._local

    def _submit(self, op: str, *args, num_actors: int = 8) -> list:
        """Refs of ``op`` on every actor of the cached QueryPool, created on
        first use (``num_actors`` applies then only)."""
        if self._pool is None:
            self._pool = QueryPool(self.index_dir, num_actors=num_actors, searcher=self)
        return self._pool.submit(op, *args)

    def _run(self, op: str, *args, pooled: bool = False, num_actors: int = 8) -> list:
        """Per-shard results of ``op``: one from the in-process shard, or
        one per pool actor."""
        if pooled:
            import ray

            return ray.get(self._submit(op, *args, num_actors=num_actors))
        return [getattr(self._shard(), op)(*args)]

    # -- ops ---------------------------------------------------------------
    def search_local(
        self,
        flt: Filter,
        k: int = 10,
        wand: bool = True,
        scorer: ScorerCfg | None = None,
    ) -> pd.DataFrame:
        """Top-k of one filter over every segment, in this process.
        ``wand`` is ignored: there is one evaluation path; the parameter is
        kept until perfbench drops it (ROADMAP F12)."""
        plan = self.prepare(flt, scorer).plan
        conv, turn, score = self._shard().topk_arrays({"q": plan}, k)["q"]
        order = _topk_order(k, None, score, conv, turn)
        return pd.DataFrame({
            "conv_id": conv[order],
            "turn_idx": turn[order].astype(np.int32, copy=False),
            "score": score[order],
        })

    def count(self, flt: Filter, scorer: ScorerCfg | None = None,
              pooled: bool = False, num_actors: int = 8) -> int:
        """Exact hit count without scoring output (the COUNT collector
        analog): per-segment full boolean evaluation — one integer per
        shard crosses, never doc rows.  ``pooled=True`` fans the count
        across the cached QueryPool's shard-owning actors (the 100 TB
        path); default counts in-process."""
        plan = self.prepare(flt, scorer).plan
        return sum(self._run("count", plan, pooled=pooled, num_actors=num_actors))

    def _highlights(self, queries, k, scorer, field, source, pooled=False,
                    num_actors=8) -> pd.DataFrame:
        frames = self._run("highlight", self._plans(queries, scorer), k, field,
                           source, pooled=pooled, num_actors=num_actors)
        return merge_topk(pd.concat(frames, ignore_index=True), k)

    def highlights(self, flt: Filter, k: int = 10, scorer: ScorerCfg | None = None,
                   field: str = "text", source: str = "stored") -> pd.DataFrame:
        """Top-k with character highlight spans — recomputed from the stored
        text column (source="stored") or read from the indexed offset stream
        (source="index"; functions/highlight.py, SURVEY §2.1 offsets)."""
        out = self._highlights({"q": flt}, k, scorer, field, source)
        return out.drop(columns=["query_id"])

    def highlights_pooled(
        self,
        queries: dict[str, Filter],
        k: int = 10,
        scorer: ScorerCfg | None = None,
        field: str = "text",
        source: str = "stored",
        num_actors: int = 8,
    ) -> pd.DataFrame:
        """Distributed highlights through the cached QueryPool: spans are
        computed inside the shard-owning actors, so the driver never loads
        segment data (the 100 TB path; results identical to highlights()
        plus a query_id column)."""
        return self._highlights(queries, k, scorer, field, source, pooled=True,
                                num_actors=num_actors)

    # -- distributed execution: one Ray task per segment ---------------------
    def search_ray(
        self,
        queries: dict[str, Filter],
        k: int = 10,
        scorer: ScorerCfg | None = None,
        concurrency: int | tuple[int, int] | None = None,
    ) -> pd.DataFrame:
        """Run a batch of named queries; returns (query_id, conv_id,
        turn_idx, score) with ranks merged across segments.

        Each segment runs every query as one Ray TASK: segment state is
        loaded fresh per task (the cold path stays cold), but tasks execute
        in Ray's prestarted worker processes, so a one-shot batch does not
        pay an actor pool's per-process spawn+import (~2 s) before the
        first posting is read.  Repeat callers should use
        ``search_pooled``, whose actors keep their segment shards."""
        import ray
        import ray.data as rd

        if not self.seg_dirs or not queries:
            return RESULT_SCHEMA.empty_table().to_pandas()
        ds = rd.from_items([{"seg_dir": d} for d in self.seg_dirs])
        # plans, tombstones and index_dir ship ONCE (fn_kwargs)
        res = ds.map_batches(
            search_batch_task,
            fn_kwargs={
                "plans": self._plans(queries, scorer),
                "k": k,
                "tombstones": self.tombstones,
                "index_dir": self.index_dir,
                "crypto": self.crypto,
            },
            batch_format="pyarrow",
            batch_size=1,
            concurrency=concurrency,
            num_cpus=1,
        )
        return _merge_rows(ray.get(res.to_arrow_refs()), k)

    # -- pooled execution: cached persistent QueryPool ---------------------
    def search_pooled(
        self,
        queries: dict[str, Filter],
        k: int = 10,
        scorer: ScorerCfg | None = None,
        num_actors: int = 8,
    ) -> pd.DataFrame:
        """Same results as ``search_ray`` but through a LAZILY-CREATED,
        CACHED QueryPool: repeat callers pay one RPC round instead of a
        fresh Ray Data job (which re-loads segment shards on every
        call).  This is the serving path — use it whenever
        the same Searcher answers more than one batch.

        Snapshot semantics (directory_reader analog): a Searcher pins the
        manifest generation loaded at construction — later commits
        (deletes, consolidations) are invisible to BOTH local and pooled
        paths until a new Searcher is opened.  ``num_actors`` applies on
        the first call only (the pool persists); call ``close()`` to tear
        it down."""
        rows = self._run("topk", self._plans(queries, scorer), k, pooled=True,
                         num_actors=num_actors)
        return _merge_rows(rows, k)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class PoolShard(Shard):
    """One persistent QueryPool actor owning a slice of the segments
    (segments are partitioned round-robin across the pool, not
    replicated — pool memory = index size, not index × actors)."""

    def __init__(self, index_dir: str, seg_dirs: list[str], tombstones: list[dict],
                 crypto=None, cache_size: int = 256):
        import collections

        # the posting-cache budget is PER PROCESS, divided across this
        # actor's readers (an actor holding 16 segments must not pin
        # 16 x the per-reader default)
        per_reader = max(
            8 << 20, SegmentReader.POSTING_CACHE_BYTES // max(1, len(seg_dirs))
        )
        readers = [SegmentReader(d, cache_bytes=per_reader, crypto=crypto) for d in seg_dirs]
        super().__init__(readers, deleted_masks(index_dir, tombstones, readers, crypto))
        # proxy/caching-filter analog (SURVEY §2.5 bitset/cached iterators):
        # per-actor LRU of evaluated shard results keyed by the plan JSON —
        # repeat queries skip evaluation entirely
        self._cache: "collections.OrderedDict[tuple, tuple]" = collections.OrderedDict()
        self._cache_size = cache_size

    def _plan_topk(self, plan: dict, k: int) -> tuple:
        key = (json.dumps(plan), k)
        t = self._cache.get(key)
        if t is not None:
            self._cache.move_to_end(key)
            return t
        t = self._cache[key] = super()._plan_topk(plan, k)
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return t

    def topk(self, plans: dict[str, dict], k: int) -> pa.Table:
        from iresearch_ray.state.meter import cpu_mark, report_since

        mk = cpu_mark()
        out = super().topk(plans, k)
        report_since("query_pool", mk)
        return out


_POOL_CLS_CACHE: dict = {}


class QueryPool:
    """Persistent serving pool over one index generation: N raw Ray actors
    each caching a disjoint shard of segments (SURVEY §3.2 — the long-lived
    alternative to per-call ``map_batches`` tasks, which re-load shards on
    every batch).  Query latency after warm-up is one RPC
    round to the pool."""

    def __init__(
        self,
        index_dir: str,
        num_actors: int = 8,
        num_cpus: float = 1,
        searcher: "Searcher | None" = None,
    ):
        import ray

        self.searcher = searcher if searcher is not None else Searcher(index_dir)
        seg_dirs = self.searcher.seg_dirs
        # cap by schedulable CPUs: requesting more num_cpus=1 actors than the
        # cluster has would deadlock the first ray.get on small clusters.
        # Leave CPUs unreserved — 2 on clusters over 2 CPUs, else 1: a pool
        # that pins EVERY CPU starves any Dataset stage scheduled while it
        # lives (observed: an 8-CPU correctness session deadlocked when
        # cached pools summed to 8 actors and the next query's map_batches
        # tasks could never start; a 2-CPU cluster's 2-actor pool left
        # ``search_ray`` waiting forever).  On big clusters the reserve is
        # negligible.
        try:
            cluster_cpus = int(ray.cluster_resources().get("CPU", num_actors))
        except Exception:
            cluster_cpus = num_actors
        spare = max(0, cluster_cpus - (2 if cluster_cpus > 2 else 1))
        # an actor never reserves more than the spare CPUs (none on a
        # 1-CPU cluster, whose one actor then reserves nothing)
        num_cpus = min(num_cpus, spare)
        # budget in ACTORS, not CPUs: each actor reserves `num_cpus`, so a
        # num_cpus=2 pool capped only by actor count could still reserve
        # 2× the cluster and recreate the starvation deadlock.
        cpu_budget = max(1, int(spare / num_cpus)) if num_cpus else 1
        num_actors = max(1, min(num_actors, max(1, len(seg_dirs)), cpu_budget))
        shards = [seg_dirs[i::num_actors] for i in range(num_actors)]
        shards = [sh for sh in shards if sh]
        # cache the remote actor class per num_cpus: re-wrapping mints a new
        # class id and re-exports the pickled definition on every pool
        # construction (cold-start path)
        actor_cls = _POOL_CLS_CACHE.get(num_cpus)
        if actor_cls is None:
            actor_cls = _POOL_CLS_CACHE[num_cpus] = ray.remote(num_cpus=num_cpus)(PoolShard)
        self.actors = [
            actor_cls.remote(index_dir, sh, self.searcher.tombstones, crypto=self.searcher.crypto)
            for sh in shards
        ]

    def submit(self, op: str, *args) -> list:
        """Refs of the ``Shard`` op ``op`` on every actor."""
        return [getattr(a, op).remote(*args) for a in self.actors]

    def search(self, queries: dict[str, Filter], k: int = 10,
               scorer: ScorerCfg | None = None) -> pd.DataFrame:
        import ray

        plans = self.searcher._plans(queries, scorer)
        return _merge_rows(ray.get(self.submit("topk", plans, k)), k)

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []


def search(
    index_dir: str,
    flt: Filter,
    k: int = 10,
    scorer: ScorerCfg | None = None,
) -> pd.DataFrame:
    """Convenience one-shot local search."""
    return Searcher(index_dir).search_local(flt, k=k, scorer=scorer)
