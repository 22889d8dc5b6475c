"""Query pipeline — SURVEY.md §3.2 (entry point 2).

driver: manifest snapshot → global stats (cached per generation) → prepare
each query (expansion + idf weights) → fan (query × segment) work units out
as Ray tasks (``search_ray``) or to a persistent QueryPool (``search_pooled``)
→ driver k-way merge of per-segment top-k under the pinned total order
(score desc, conv_id asc, turn_idx asc — SURVEY §2.6).

Because the build partitions by hash(conv_id), a document exists in exactly
one segment, so the merge is a pure k-way top-k selection (no score
re-combination across segments).  The merge input is tiny — k rows per
(query, segment) — so it is a driver-side sort, not a shuffle.
"""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa

from iresearch_ray.query.exec import segment_topk
from iresearch_ray.query.filters import Filter, Prepared, ScorerCfg, prepare
from iresearch_ray.stages.searcher import RESULT_SCHEMA, search_batch_task
from iresearch_ray.stages.segment import IndexConfig, SegmentReader, open_readers
from iresearch_ray.state.manifest import load_manifest, segment_dirs
from iresearch_ray.state.stats import build_global_stats


def merge_topk(frames: pd.DataFrame, k: int) -> pd.DataFrame:
    """Pinned tie-break merge: score desc, then global doc order
    (conv_id, turn_idx) asc; stable for exact rank-identity."""
    if frames.empty:
        return frames
    out = frames.sort_values(
        ["query_id", "score", "conv_id", "turn_idx"],
        ascending=[True, False, True, True],
        kind="mergesort",
    )
    return out.groupby("query_id", sort=True).head(k).reset_index(drop=True)


class Searcher:
    """Point-in-time searcher over one index generation (the
    directory_reader snapshot analog).

    It pins the manifest loaded at construction; later commits are
    invisible until a new Searcher is opened.  Its segment readers come
    from the process-level reader cache (``stages.segment.open_readers``):
    segments are immutable, so a Searcher on a new generation reuses the
    loaded readers of every segment it shares with an older one and reads
    only the new segments.  Tombstone masks depend on the generation and
    stay per Searcher."""

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
        self._readers: list[SegmentReader] | None = None
        self._tomb_keys = None  # lazy; most indexes have no deletes
        self._masks: dict[int, object] = {}
        self._pool: "QueryPool | None" = None

    def _deleted_for(self, i: int, reader: SegmentReader):
        if i not in self._masks:
            from iresearch_ray.pipelines.delete import segment_deleted_mask

            self._masks[i] = segment_deleted_mask(
                self.index_dir, self.manifest, self.seg_dirs[i], reader
            )
        return self._masks[i]

    # -- prepare ----------------------------------------------------------
    def prepare(self, flt: Filter, scorer: ScorerCfg | None = None) -> Prepared:
        return prepare(flt, self.stats, scorer)

    # -- local (in-process) execution: tests, tiny indexes ----------------
    def _local_readers(self) -> list[SegmentReader]:
        if self._readers is None:
            self._readers = open_readers(self.seg_dirs, self.crypto)
        return self._readers

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
        parts = [
            segment_topk(r, plan, k, deleted=self._deleted_for(i, r))
            for i, r in enumerate(self._local_readers())
        ]
        merged = pa.concat_tables(parts).to_pandas()
        merged.insert(0, "query_id", "q")
        return merge_topk(merged, k).drop(columns=["query_id"])

    def count(self, flt: Filter, scorer: ScorerCfg | None = None,
              pooled: bool = False, num_actors: int = 8) -> int:
        """Exact hit count without scoring output (the COUNT collector
        analog): per-segment full boolean evaluation — one integer per
        segment/actor crosses, never doc rows.  ``pooled=True`` fans the
        count across the cached QueryPool's shard-owning actors (the 100 TB
        path; the driver sums num_actors ints); default counts over local
        readers."""
        from iresearch_ray.query.exec import segment_count

        plan = self.prepare(flt, scorer).plan
        if pooled:
            import ray as _ray

            if self._pool is None:
                self._pool = QueryPool(self.index_dir, num_actors=num_actors, searcher=self)
            pj = json.dumps(plan)
            return sum(_ray.get([a.count.remote(pj) for a in self._pool.actors]))
        return sum(
            segment_count(r, plan, deleted=self._deleted_for(i, r))
            for i, r in enumerate(self._local_readers())
        )

    def highlights(self, flt: Filter, k: int = 10, scorer: ScorerCfg | None = None,
                   field: str = "text", source: str = "stored") -> pd.DataFrame:
        """Top-k with character highlight spans — recomputed from the stored
        text column (source="stored") or read from the indexed offset stream
        (source="index"; functions/highlight.py, SURVEY §2.1 offsets)."""
        from iresearch_ray.functions.highlight import highlights as _hl

        return _hl(self, flt, k=k, scorer=scorer, field=field, source=source)

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
        if self._pool is None:
            self._pool = QueryPool(self.index_dir, num_actors=num_actors, searcher=self)
        return self._pool.highlights(queries, k=k, scorer=scorer, field=field, source=source)

    # -- distributed execution: one Ray task per work-unit batch ----------
    def search_ray(
        self,
        queries: dict[str, Filter],
        k: int = 10,
        scorer: ScorerCfg | None = None,
        concurrency: int | tuple[int, int] | None = None,
        batch_size: int | None = None,
    ) -> pd.DataFrame:
        """Run a batch of named queries; returns (query_id, conv_id,
        turn_idx, score) with ranks merged across segments.

        Each (segment × query-batch) work unit runs as a Ray TASK: segment
        state is loaded fresh per unit (the cold path stays cold), but tasks
        execute in Ray's prestarted worker processes, so a one-shot batch
        does not pay an actor pool's per-process spawn+import (~2 s) before
        the first posting is read.  Repeat callers should use
        ``search_pooled``, whose actors keep their segment shards."""
        import ray.data as rd

        plans = {
            qid: json.dumps(self.prepare(f, scorer).plan) for qid, f in queries.items()
        }
        # group items per segment so one opened reader serves a whole batch
        # of queries per block (cache locality, SURVEY §3.2)
        from iresearch_ray.pipelines.delete import _entries

        tombs_json = json.dumps(_entries(self.manifest))
        if tombs_json == "[]":
            tombs_json = ""
        items = [
            {
                "seg_dir": d,
                "query_id": qid,
                "plan": plan,
                "k": k,
            }
            for d in self.seg_dirs
            for qid, plan in plans.items()
        ]
        if not items:
            return RESULT_SCHEMA.empty_table().to_pandas()
        if batch_size is None:
            batch_size = max(1, len(plans))
        ds = rd.from_items(items)
        # tombstones + index_dir ship ONCE (fn_kwargs) instead of being
        # duplicated into every (segment x query) work item
        res = ds.map_batches(
            search_batch_task,
            fn_kwargs={
                "tombstones_json": tombs_json,
                "index_dir": self.index_dir,
                "crypto": self.crypto,
            },
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
            num_cpus=1,
        )
        frames = res.to_pandas()
        return merge_topk(frames, k)

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
        if self._pool is None:
            self._pool = QueryPool(self.index_dir, num_actors=num_actors, searcher=self)
        return self._pool.search(queries, k=k, scorer=scorer)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class _PoolWorker:
    """One persistent query actor owning a SHARD of segments (segments are
    partitioned round-robin across the pool, not replicated — pool memory =
    index size, not index × actors)."""

    def __init__(self, index_dir: str, seg_dirs: list[str], tombs_json: str, cache_size: int = 256, crypto=None):
        import collections
        import json as _json

        # proxy/caching-filter analog (SURVEY §2.5 bitset/cached iterators):
        # per-worker LRU of fully-evaluated shard results keyed by the plan
        # JSON — repeat queries skip evaluation entirely
        self._cache: "collections.OrderedDict[tuple, object]" = collections.OrderedDict()
        self._cache_size = cache_size
        # the posting-cache budget is PER PROCESS, divided across this
        # worker's shard readers (a worker holding 16 segments must not pin
        # 16 x the per-reader default)
        per_reader = max(
            8 << 20, SegmentReader.POSTING_CACHE_BYTES // max(1, len(seg_dirs))
        )
        self.readers = [SegmentReader(d, cache_bytes=per_reader, crypto=crypto) for d in seg_dirs]
        from iresearch_ray.pipelines.delete import segment_deleted_mask

        # tombstone entries arrive pre-scoped ({"file", "segments"} dicts)
        tombs = {"tombstones": _json.loads(tombs_json) if tombs_json else []}
        self.deleted = [
            segment_deleted_mask(index_dir, tombs, d, r) for d, r in zip(seg_dirs, self.readers)
        ]

    def run(self, plans: dict[str, str], k: int):
        import json as _json

        import pyarrow as _pa

        from iresearch_ray.state.meter import cpu_mark, report_since

        _mk = cpu_mark()
        out = []
        for qid, pj in plans.items():
            key = (pj, k)
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                tables = cached
            else:
                plan = _json.loads(pj)
                tables = [
                    segment_topk(r, plan, k, deleted=dmask)
                    for r, dmask in zip(self.readers, self.deleted)
                ]
                self._cache[key] = tables
                if len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
            for t in tables:
                out.append(
                    _pa.table(
                        {
                            "query_id": _pa.array([qid] * t.num_rows, _pa.string()),
                            "conv_id": t["conv_id"].cast(_pa.string()),
                            "turn_idx": t["turn_idx"].cast(_pa.int32()),
                            "score": t["score"],
                        }
                    )
                )
        report_since("query_pool", _mk)
        if not out:
            return RESULT_SCHEMA.empty_table()
        return _pa.concat_tables(out).cast(RESULT_SCHEMA)

    def count(self, plan_json: str) -> int:
        """Shard-local scoreless hit count (COUNT collector): one int
        leaves the actor."""
        import json as _json

        from iresearch_ray.query.exec import segment_count

        plan = _json.loads(plan_json)
        return sum(
            segment_count(r, plan, deleted=d)
            for r, d in zip(self.readers, self.deleted)
        )

    def highlight(self, plans: dict[str, str], k: int, field: str, source: str):
        """Shard-local top-k WITH highlight spans: spans are computed inside
        the actor from its own readers (stored-text retokenize or indexed
        offsets), so the driver never loads segment data — the 100 TB
        highlight path.  Spans ship as a JSON column; the driver merges
        the global top-k."""
        import json as _json

        import pyarrow as _pa

        from iresearch_ray.functions.highlight import plan_terms, spans_for_hits

        out = []
        for qid, pj in plans.items():
            plan = _json.loads(pj)
            terms = sorted(plan_terms(plan["root"], field))
            for r, dmask in zip(self.readers, self.deleted):
                t = segment_topk(r, plan, k, deleted=dmask)
                if t.num_rows == 0:
                    continue
                texts, spans, _ok = spans_for_hits(r, t, terms, field, source)
                out.append(
                    _pa.table(
                        {
                            "query_id": _pa.array([qid] * t.num_rows, _pa.string()),
                            "conv_id": t["conv_id"].cast(_pa.string()),
                            "turn_idx": t["turn_idx"].cast(_pa.int32()),
                            "score": t["score"],
                            "text": _pa.array(texts, _pa.string()),
                            "spans_json": _pa.array(
                                [_json.dumps(sp) for sp in spans], _pa.string()
                            ),
                        }
                    )
                )
        if not out:
            return None
        return _pa.concat_tables(out)

    def payload_topk(self, field: str, term: str, k: int):
        """Shard-local payload-weight-sum top-k (functions/payload.py
        kernel) — the distributed payload ranking path."""
        import pandas as _pd

        from iresearch_ray.functions.payload import reader_payload_topk

        parts = [
            reader_payload_topk(r, field, term, k, deleted=dmask)
            for r, dmask in zip(self.readers, self.deleted)
        ]
        return _pd.concat(parts, ignore_index=True)


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
        # Leave 2 CPUs of headroom on small clusters: a pool that pins EVERY
        # CPU starves any Dataset stage scheduled while it lives (observed:
        # an 8-CPU correctness session deadlocked when cached pools summed
        # to 8 actors and the next query's map_batches tasks could never
        # start).  On big clusters the reserve is negligible.
        try:
            cluster_cpus = int(ray.cluster_resources().get("CPU", num_actors))
        except Exception:
            cluster_cpus = num_actors
        if cluster_cpus > 2:
            cluster_cpus -= 2
        # budget in ACTORS, not CPUs: each actor reserves `num_cpus`, so a
        # num_cpus=2 pool capped only by actor count could still reserve
        # 2× the cluster and recreate the starvation deadlock.
        cpu_budget = max(1, int(cluster_cpus / max(float(num_cpus), 1e-9)))
        num_actors = max(1, min(num_actors, max(1, len(seg_dirs)), cpu_budget))
        shards = [seg_dirs[i::num_actors] for i in range(num_actors)]
        shards = [sh for sh in shards if sh]
        from iresearch_ray.pipelines.delete import _entries

        # NORMALIZED entries (legacy string tombstones carry implicit global
        # scope — serializing the raw list dropped their scope and the pool
        # silently served deleted docs)
        tombs = json.dumps(_entries(self.searcher.manifest))
        if tombs == "[]":
            tombs = ""
        # cache the remote actor class per num_cpus: re-wrapping mints a new
        # class id and re-exports the pickled definition on every pool
        # construction (cold-start path)
        worker = _POOL_CLS_CACHE.get(num_cpus)
        if worker is None:
            worker = _POOL_CLS_CACHE[num_cpus] = ray.remote(num_cpus=num_cpus)(
                _PoolWorker
            )
        self.actors = [
            worker.remote(index_dir, sh, tombs, crypto=self.searcher.crypto)
            for sh in shards
        ]

    def search(self, queries: dict[str, Filter], k: int = 10,
               scorer: ScorerCfg | None = None) -> pd.DataFrame:
        import ray

        plans = {
            qid: json.dumps(self.searcher.prepare(f, scorer).plan)
            for qid, f in queries.items()
        }
        tables = ray.get([a.run.remote(plans, k) for a in self.actors])
        frames = pa.concat_tables(tables).to_pandas()
        return merge_topk(frames, k)

    def highlights(
        self,
        queries: dict[str, Filter],
        k: int = 10,
        scorer: ScorerCfg | None = None,
        field: str = "text",
        source: str = "stored",
    ) -> pd.DataFrame:
        """Distributed highlights: each actor computes spans for ITS shard's
        hits (same kernel as Searcher.highlights), the driver merges only
        the k survivors per query — segment data never leaves the pool."""
        import json as _json

        import ray

        plans = {
            qid: _json.dumps(self.searcher.prepare(f, scorer).plan)
            for qid, f in queries.items()
        }
        tables = [
            t
            for t in ray.get(
                [a.highlight.remote(plans, k, field, source) for a in self.actors]
            )
            if t is not None
        ]
        if not tables:
            empty = RESULT_SCHEMA.empty_table().to_pandas()
            empty["text"] = pd.Series(dtype=object)
            empty["spans"] = pd.Series(dtype=object)
            return empty
        frames = pa.concat_tables(tables).to_pandas()
        merged = merge_topk(frames, k)
        merged["spans"] = [
            [tuple(p) for p in _json.loads(s)] for s in merged["spans_json"]
        ]
        return merged.drop(columns=["spans_json"])

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
