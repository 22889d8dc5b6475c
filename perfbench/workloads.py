"""The benchmark workloads and the activities they share.

Every workload runs the same user session, in one process and one Ray
session, from one single-threaded closed-loop client (each call waits for
its result before the next is issued):

  build    ``build_index_direct`` over the seeded corpus (8 partitions)
  query    seeded single ``search_local`` calls, and 16-query
           ``search_pooled`` batches in two short pool phases
  cycle    ``append_index`` -> ``consolidate(tier, gc, repeat)`` -> open a
           new ``Searcher`` -> one probe query
  curate   ``exact_dedup``, ``minhash_lsh_pairs`` or ``quality_scores``
           over a seeded table with planted duplicates

After two builds the run repeats rounds (a slice of every activity) until
``--seconds`` have passed, then builds once more.  The workloads differ in
input sizes and in how much of each round goes to each activity (see
``PROFILES``), so a different set of layers dominates each one; every metric
is defined on every workload.  Outputs are checked outside the timed calls.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from perfbench import inputs as I
from perfbench.trace import Tracer

NUM_CPUS = 4  # pinned Ray num_cpus, independent of the host
NUM_PARTITIONS = 8
TOP_K = 10
OBJECT_STORE_BYTES = 768 << 20
PLASMA_PREFAULT_BYTES = 512 << 20  # touched once in set-up; the store reuses the pages

# Per-workload sizes and per-round work: ``singles`` queries, a cycle every
# ``cycle_every`` rounds, ``curate_passes`` curate passes.
PROFILES = {
    "ingest": {
        "n_convs": 14_000, "chunk_convs": 1_000, "n_batches": 16, "batch_convs": 400,
        "curate_rows": 6_000, "singles": 20, "cycle_every": 1, "curate_passes": 2,
    },
    "search": {
        "n_convs": 12_000, "chunk_convs": 1_000, "n_batches": 10, "batch_convs": 200,
        "curate_rows": 6_000, "singles": 45, "cycle_every": 2, "curate_passes": 1,
    },
}
# ``--scale tiny``: the benchmark's own smoke tests
TINY = {
    "n_convs": 300, "chunk_convs": 150, "n_batches": 8, "batch_convs": 40,
    "curate_rows": 400,
}
MIN_ROUNDS = 6          # with 20 singles a round: p90 has >= 10 samples beyond it
CURATE_ROTATION = ("dedup", "quality", "minhash", "quality")
# quality_scores is narrow and cheap: one pass over this many copies of the
# curate table keeps Ray Data's per-pass start-up from dominating its figure
QUALITY_COPIES = 4
POOL_AT = (1 / 3, 2 / 3)  # pool phases start at these fractions of --seconds
POOL_BATCHES = 10
STREAM_BLOCKS = 150     # query stream length: 1350 singles, 150 batches
WARM_SINGLES = 40       # untimed queries that fill reader caches first
SETUP_REPS = 3
CHECK_CONVS = 400       # oracle-checked index size
CHECK_PER_FAMILY = 2    # oracle-checked queries per family
BATCHES_FULLY_CHECKED = 1
CURATE_EXACT_SHARE = 0.05
CURATE_NEAR_SHARE = 0.05
NEAR_RECALL_MIN = 0.9
CURATE_BLOCKS = NUM_CPUS  # Dataset blocks, so every pass runs in parallel
# Keep idle Ray workers alive for the whole run: a respawned worker re-pays
# interpreter start-up and the library's heap pre-fault inside a timed op.
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000}
WAND_OFF_EVERY = 4      # traced run: re-run every 4th single with wand=False
OVERHEAD_REPLAY = 60    # traced run: singles replayed traced and untraced
# the library modules the benchmark calls into (span name prefix)
LAYERS = (
    "sources.transcripts", "pipelines.build", "functions.analysis",
    "stages.segment", "state.stats", "pipelines.consolidate", "query.filters",
    "query.exec", "pipelines.search", "pipelines.dataops", "state.meter",
)

# curate throughputs: printed in every run's detail line, not gated (see
# Run.curate_rates)
CURATE_RATES = ("dedup_docs_per_s", "near_dup_docs_per_s", "quality_docs_per_s")
# per-layer metric -> (library layer, end-to-end or detail-line metric it
# should move, workload where it should show).  Written into every trace file.
FEEDS = {
    "search.prepare_ms": ("query.filters", "query_p50_ms", "search"),
    "prepare.terms_per_query": ("query.filters", "query_p50_ms", "search"),
    **{f"exec.ms.{fam}": ("query.exec", "query_p90_ms", "search")
       for fam in ("term", "or3", "and2", "minmatch", "phrase", "prefix", "fuzzy")},
    "exec.segments_per_query": ("query.exec", "query_qps", "search"),
    "exec.wand_off_ms": ("query.exec", "query_p90_ms", "search"),
    "exec.wand_saving_share": ("query.exec", "query_qps", "search"),
    "merge.ms": ("pipelines.search", "query_p50_ms", "search"),
    "pool.start_s": ("pipelines.search", "batch_p50_ms", "search"),
    "pool.batch_ms": ("pipelines.search", "batch_p50_ms", "search"),
    "pool.overhead_ms": ("pipelines.search", "batch_p50_ms", "search"),
    "query_pool.user_cpu_s": ("state.meter", "batch_p50_ms", "search"),
    "segment.open_ms": ("stages.segment", "refresh_ms", "ingest"),
    "stats.build_ms": ("state.stats", "refresh_ms", "ingest"),
    "build.wall_s": ("pipelines.build", "build_turns_per_s", "ingest"),
    "build.user_cpu_s": ("state.meter", "build_turns_per_s", "ingest"),
    "build.sys_cpu_s": ("state.meter", "build_turns_per_s", "ingest"),
    "analysis.explode_s": ("functions.analysis", "build_turns_per_s", "ingest"),
    "segment.build_tables_s": ("stages.segment", "build_turns_per_s", "ingest"),
    "segment.write_s": ("stages.segment", "build_turns_per_s", "ingest"),
    "append.wall_s": ("pipelines.build", "append_turns_per_s", "ingest"),
    "consolidate.wall_s": ("pipelines.consolidate", "append_turns_per_s", "ingest"),
    "consolidate.user_cpu_s": ("state.meter", "append_turns_per_s", "ingest"),
    "consolidate.rounds": ("pipelines.consolidate", "append_turns_per_s", "ingest"),
    "consolidate.segments_in": ("pipelines.consolidate", "append_turns_per_s", "ingest"),
    "consolidate.segments_out": ("pipelines.consolidate", "append_turns_per_s", "ingest"),
    "consolidate.bytes_written": ("pipelines.consolidate", "append_turns_per_s", "ingest"),
    "consolidate.write_amp": ("pipelines.consolidate", "append_turns_per_s", "ingest"),
    "index.terms_bytes": ("stages.segment", "index_bytes_per_source_byte", "ingest"),
    "index.docs_bytes": ("stages.segment", "index_bytes_per_source_byte", "ingest"),
    "dataops.dedup.wall_s": ("pipelines.dataops", "dedup_docs_per_s", "all"),
    "dataops.minhash.wall_s": ("pipelines.dataops", "near_dup_docs_per_s", "all"),
    "dataops.quality.wall_s": ("pipelines.dataops", "quality_docs_per_s", "all"),
    "dataops.dedup.kernel_s": ("pipelines.dataops", "dedup_docs_per_s", "all"),
    "dataops.dedup.groups": ("pipelines.dataops", "dedup_docs_per_s", "all"),
    "dataops.dedup.dispatch_share": ("pipelines.dataops", "dedup_docs_per_s", "all"),
    "self_s.sources.transcripts": ("sources.transcripts", "setup_s", "all"),
    "self_s.pipelines.build": ("pipelines.build", "build_turns_per_s", "ingest"),
    "self_s.functions.analysis": ("functions.analysis", "build_turns_per_s", "ingest"),
    "self_s.stages.segment": ("stages.segment", "refresh_ms", "ingest"),
    "self_s.state.stats": ("state.stats", "refresh_ms", "ingest"),
    "self_s.pipelines.consolidate": ("pipelines.consolidate", "append_turns_per_s", "ingest"),
    "self_s.query.filters": ("query.filters", "query_p50_ms", "search"),
    "self_s.query.exec": ("query.exec", "query_p90_ms", "search"),
    "self_s.pipelines.search": ("pipelines.search", "batch_p50_ms", "search"),
    "self_s.pipelines.dataops": ("pipelines.dataops", "dedup_docs_per_s", "all"),
    "self_s.state.meter": ("state.meter", "none (traced run only)", "all"),
    "trace.spans": ("benchmark", "none (traced run only)", "all"),
    "trace.overhead_ms": ("benchmark", "none (traced run only)", "all"),
}


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def supported_percentile(n: int) -> int | None:
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    for q in (99, 90, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def timing_summary(values_s: list[float]) -> dict:
    """Median and the highest supported percentile, in ms, with the count."""
    ms = [v * 1000 for v in values_s]
    out = {"n": len(ms)}
    if ms:
        out["p50_ms"] = percentile(ms, 50)
        q = supported_percentile(len(ms))
        if q is not None and q != 50:
            out[f"p{q}_ms"] = percentile(ms, q)
    return out


def _children() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        out.setdefault(ppid, []).append(int(name))
    return out


def descendants(root_pid: int) -> list[int]:
    """Every live process below ``root_pid``: the Ray daemons a local
    ``ray.init`` starts and their worker processes."""
    children = _children()
    out, todo = [], list(children.get(root_pid, ()))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def proc_tree_rss_bytes(root_pid: int) -> int:
    """Summed resident set size of ``root_pid`` and its descendants."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in [root_pid, *descendants(root_pid)]:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except OSError:
            continue
    return total


def plan_terms(node) -> int:
    """Terms a prepared plan scores: term leaves plus phrase slot terms."""
    if isinstance(node, dict):
        if node.get("op") == "term":
            return 1
        if node.get("op") == "phrase":
            return sum(len(p) for p in node.get("parts", ()))
        return sum(plan_terms(v) for v in node.values() if isinstance(v, (dict, list)))
    if isinstance(node, list):
        return sum(plan_terms(v) for v in node)
    return 0


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def as_blocks(tbl, n: int) -> list:
    step = -(-tbl.num_rows // n)
    return [tbl.slice(i, step) for i in range(0, tbl.num_rows, step)]


def same_hits(a, b) -> bool:
    """Equal ranked (conv_id, turn_idx) lists and scores within 1e-6."""
    ka = list(zip(a["conv_id"], a["turn_idx"].astype(int)))
    kb = list(zip(b["conv_id"], b["turn_idx"].astype(int)))
    if ka != kb:
        return False
    return bool(np.allclose(a["score"].to_numpy(float), b["score"].to_numpy(float),
                            atol=1e-6, rtol=0))


class Run:
    """One workload run: set-up, builds, rounds, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work_dir: str, scale: str = "full", log=None):
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.tracer = Tracer(trace)
        self.work_dir = work_dir
        self.cfg = dict(PROFILES[workload])
        if scale == "tiny":
            self.cfg.update(TINY)
        self.log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.facts: dict = {}
        self.times: dict[str, list[float]] = {}
        self.layer: dict[str, float] = {}
        self.peak_rss = 0
        self._last_rss_sample = 0.0
        self.pid = os.getpid()

    # -- bookkeeping -------------------------------------------------------
    def _rec(self, key: str, secs: float) -> None:
        self.times.setdefault(key, []).append(secs)

    def _check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.log(f"check failed: {name}")

    def sample_rss(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._last_rss_sample >= 0.25:
            self._last_rss_sample = now
            self.peak_rss = max(self.peak_rss, proc_tree_rss_bytes(self.pid))

    def op(self, fn, *args, **kwargs):
        """Run one client op; a failure is counted, logged and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.log(traceback.format_exc())
            return None
        finally:
            self.sample_rss()

    def _read_meter(self) -> dict:
        if not self.tracer.enabled:
            return {}
        from iresearch_ray.state.meter import read_meter

        with self.tracer.span("state.meter:read_meter"):
            return read_meter()

    # -- set-up --------------------------------------------------------------
    def _generate(self, root: str) -> dict:
        """Transcript files are written by Ray tasks while this process builds
        the curate table, the query stream and the oracle-check rows."""
        import ray

        from perfbench.inputs import write_conv_range

        c = self.cfg
        plan = I.corpus_plan(root, c["n_convs"], c["chunk_convs"], c["n_batches"],
                             c["batch_convs"])
        gen = ray.remote(num_cpus=1)(write_conv_range)
        refs = [gen.remote(p, s, e, self.seed) for p, s, e in plan]
        table, planted = I.curate_table(self.seed, c["curate_rows"], CURATE_EXACT_SHARE,
                                        CURATE_NEAR_SHARE)
        stream = I.query_stream(self.seed, STREAM_BLOCKS)
        singles = [p for kind, p in stream if kind == "single"]
        check_tbl = I.gen_transcripts_range(0, min(CHECK_CONVS, c["n_convs"]), self.seed)
        files = ray.get(refs)
        n_corpus = len(range(0, c["n_convs"], c["chunk_convs"]))
        return {
            "root": root,
            "corpus": files[:n_corpus],
            "batches": files[n_corpus:],
            "curate": table,
            "planted": planted,
            "warm_singles": singles[-WARM_SINGLES:],
            "singles": singles[:-WARM_SINGLES],
            "batches_q": [p for kind, p in stream if kind == "batch"],
            "check_tbl": check_tbl,
            "probes": I.probe_terms(self.seed, c["n_batches"]),
            "digest": {
                "files": [f["sha256"] for f in files],
                "curate": I.table_digest(table),
                "stream": I.stream_digest(stream),
            },
        }

    def _warm(self, inp: dict) -> None:
        """Tiny calls into each layer so worker imports and Ray Data's
        first-use costs are paid before timing, and one pass over most of
        the object store so its pages are faulted in before timing."""
        import ray
        import ray.data as rd

        from iresearch_ray.pipelines import dataops as D
        from iresearch_ray.pipelines.build import build_index_direct
        from iresearch_ray.pipelines.search import Searcher

        d = os.path.join(inp["root"], "warm-idx")
        build_index_direct(inp["batches"][0]["path"], d, num_partitions=1)
        s = Searcher(d)
        s.search_local(I.to_filter(("term", "the")), k=TOP_K)
        D.exact_dedup(rd.from_arrow(as_blocks(inp["curate"].slice(0, 400), CURATE_BLOCKS))).materialize()
        D.quality_scores(rd.from_arrow(as_blocks(inp["curate"], CURATE_BLOCKS))).materialize()
        chunk = 64 << 20
        refs = [ray.put(np.ones(chunk, dtype=np.uint8)) for _ in range(PLASMA_PREFAULT_BYTES // chunk)]
        del refs

    def setup(self) -> None:
        """Generate every input SETUP_REPS times into fresh directories
        (repetitions must be byte-identical), then warm up once.  Set-up
        time is the median generation plus the warm-up."""
        walls, digests = [], []
        self.inp = None
        for rep in range(SETUP_REPS):
            root = os.path.join(self.work_dir, f"inputs-{rep}")
            t0 = time.perf_counter()
            with self.tracer.span("sources.transcripts:generate", self.tracer.new_op()):
                inp = self._generate(root)
            walls.append(time.perf_counter() - t0)
            digests.append(inp["digest"])
            if self.inp is not None:
                shutil.rmtree(self.inp["root"], ignore_errors=True)
            self.inp = inp
            self.sample_rss(force=True)
        t0 = time.perf_counter()
        with self.tracer.span("op:warm", self.tracer.new_op()):
            self._warm(self.inp)
        warm = time.perf_counter() - t0
        self.times["generate"] = walls
        self.times["setup"] = [statistics.median(walls) + warm]
        self.facts["warm_s"] = warm
        self._check("inputs_deterministic", all(d == digests[0] for d in digests))
        self.facts["input_digest"] = digests[0]

    # -- build -----------------------------------------------------------------
    def build(self, name: str) -> str:
        """One timed ``build_index_direct`` of the whole corpus into a fresh
        ``idx-<name>``; returns the index directory."""
        from iresearch_ray.pipelines.build import build_index_direct

        corpus_dir = os.path.dirname(self.inp["corpus"][0]["path"])
        rows = self.facts["corpus_rows"] = sum(f["rows"] for f in self.inp["corpus"])
        idx = os.path.join(self.work_dir, f"idx-{name}")
        t0 = time.perf_counter()
        with self.tracer.span("pipelines.build:build_index_direct", self.tracer.new_op()):
            m = self.op(build_index_direct, corpus_dir, idx, num_partitions=NUM_PARTITIONS)
        wall = time.perf_counter() - t0
        if m is not None:
            self._rec("build", wall)
            self._check("build_docs_count", m["metrics"]["docs_count"] == rows)
        return idx

    def _trace_one_partition(self) -> None:
        """In-process replay of one build partition through the analysis,
        segment-table and segment-write layers."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from iresearch_ray.functions.analysis import explode_text_arrow
        from iresearch_ray.pipelines.build import hash_partition
        from iresearch_ray.stages.segment import IndexConfig, build_segment_tables, write_segment

        t = pa.concat_tables(pq.read_table(f["path"]) for f in self.inp["corpus"])
        rows = t.filter(pa.array(hash_partition(t["conv_id"], NUM_PARTITIONS) == 0))
        cfg = IndexConfig()
        tr = self.tracer
        with tr.span("op:build_partition", tr.new_op()):
            with tr.span("functions.analysis:explode_text_arrow"):
                explode_text_arrow(rows["text"])
            with tr.span("stages.segment:build_segment_tables"):
                terms, docs, field_stats = build_segment_tables(rows, cfg)
            with tr.span("stages.segment:write_segment"):
                write_segment(os.path.join(self.work_dir, "part-replay"), "seg-replay",
                              terms, docs, field_stats, cfg)

    # -- query -----------------------------------------------------------------
    def open_query_index(self) -> None:
        """Open the Searcher every query op uses and fill its reader caches
        with untimed warm-up queries."""
        from iresearch_ray.pipelines.search import Searcher
        from iresearch_ray.query.exec import segment_topk
        from iresearch_ray.stages.segment import SegmentReader

        s = self.searcher = Searcher(self.query_dir)
        self.readers = [SegmentReader(d) for d in s.seg_dirs] if self.tracer.enabled else []
        for spec in self.inp["warm_singles"]:
            flt = I.to_filter(spec)
            self.op(s.search_local, flt, k=TOP_K)
            for r in self.readers:
                segment_topk(r, s.prepare(flt).plan, TOP_K, True)

    def singles(self, n: int) -> None:
        """The next ``n`` single queries of the stream through search_local
        (through its layers one by one when tracing)."""
        s, tr = self.searcher, self.tracer
        for _ in range(n):
            spec = next(self.single_iter)
            flt = I.to_filter(spec)
            self.n_singles += 1
            t0 = time.perf_counter()
            if tr.enabled:
                with tr.span(f"op:query.{spec[0]}", tr.new_op()):
                    res = self.op(self._traced_query, s, self.readers, flt, spec[0])
            else:
                res = self.op(s.search_local, flt, k=TOP_K)
            if res is not None:
                self._rec("query", time.perf_counter() - t0)
            if tr.enabled and self.n_singles % WAND_OFF_EVERY == 0:
                self._traced_wand_off(s, self.readers, flt)

    def pool_phase(self, n_batches: int) -> None:
        """Start a QueryPool, send it the next ``n_batches`` 16-query batches
        of the stream, and close it: the pool must be gone before any later
        Ray task or Dataset runs."""
        s, tr = self.searcher, self.tracer
        warm = {f"w{i}": I.to_filter(("term", t)) for i, t in enumerate(("the", "agent"))}
        try:
            t0 = time.perf_counter()
            with tr.span("pipelines.search:QueryPool.start", tr.new_op()):
                self.op(s.search_pooled, warm, k=TOP_K)
            self._rec("pool_start", time.perf_counter() - t0)
            for _ in range(n_batches):
                specs = next(self.batch_iter)
                queries = {f"q{j}": I.to_filter(spec) for j, spec in enumerate(specs)}
                t0 = time.perf_counter()
                with tr.span("op:batch", tr.new_op()):
                    with tr.span("pipelines.search:Searcher.search_pooled"):
                        res = self.op(s.search_pooled, queries, k=TOP_K)
                wall = time.perf_counter() - t0
                if res is not None:
                    self._rec("batch", wall)
                    self.batches_seen.append((specs, res))
                    if tr.enabled:
                        self._traced_pool_overhead(s, self.readers, queries, wall)
        finally:
            s.close()

    def _trace_overhead(self, s, readers) -> None:
        """Tracing overhead: the same singles timed through the traced
        decomposition and through plain ``search_local``, both warm."""
        specs = self.inp["singles"][:OVERHEAD_REPLAY]
        saved = self.tracer.spans, self.tracer.counters
        traced, plain = [], []
        for spec in specs:
            s.search_local(I.to_filter(spec), k=TOP_K)  # warm the Searcher's readers
        for spec in specs:
            flt = I.to_filter(spec)
            t0 = time.perf_counter()
            s.search_local(flt, k=TOP_K)
            plain.append(time.perf_counter() - t0)
            self.tracer.spans, self.tracer.counters = [], {}
            t0 = time.perf_counter()
            with self.tracer.span("op:replay", 0):
                self._traced_query(s, readers, flt, spec[0])
            traced.append(time.perf_counter() - t0)
        self.tracer.spans, self.tracer.counters = saved
        self.facts["trace_overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) * 1000

    def _traced_query(self, s, readers, flt, family: str):
        """search_local decomposed into prepare -> per-segment top-k -> merge."""
        import pyarrow as pa

        from iresearch_ray.pipelines.search import merge_topk
        from iresearch_ray.query.exec import segment_topk

        tr = self.tracer
        with tr.span("query.filters:prepare"):
            plan = s.prepare(flt).plan
        tr.count("prepare.terms", plan_terms(plan["root"]))
        tr.count("prepare.queries")
        parts = []
        with tr.span(f"query.exec:segment_topk.{family}"):
            for r in readers:
                with tr.span("query.exec:segment_topk"):
                    parts.append(segment_topk(r, plan, TOP_K, True))
        tr.count("exec.segments", len(readers))
        with tr.span("pipelines.search:merge_topk"):
            merged = pa.concat_tables(parts).to_pandas()
            merged.insert(0, "query_id", "q")
            return merge_topk(merged, TOP_K)

    def _traced_wand_off(self, s, readers, flt) -> None:
        from iresearch_ray.query.exec import segment_topk

        tr = self.tracer
        plan = s.prepare(flt).plan
        on = off = 0.0
        for r in readers:
            t0 = time.perf_counter()
            segment_topk(r, plan, TOP_K, True)
            on += time.perf_counter() - t0
            t0 = time.perf_counter()
            segment_topk(r, plan, TOP_K, False)
            off += time.perf_counter() - t0
        tr.count("exec.wand_on_s", on)
        tr.count("exec.wand_off_s", off)
        self._rec("wand_off", off)

    def _traced_pool_overhead(self, s, readers, queries: dict, pooled_wall: float) -> None:
        """Pooled wall time minus local execution of the same plans."""
        from iresearch_ray.query.exec import segment_topk

        t0 = time.perf_counter()
        for flt in queries.values():
            plan = s.prepare(flt).plan
            for r in readers:
                segment_topk(r, plan, TOP_K, True)
        self._rec("pool_overhead", pooled_wall - (time.perf_counter() - t0))

    # -- append / consolidate / refresh ------------------------------------------
    def cycle(self) -> None:
        """Append the next unused batch to the write index, consolidate, open
        a new Searcher and answer one probe; check the counts after."""
        from iresearch_ray.pipelines.build import append_index
        from iresearch_ray.pipelines.consolidate import consolidate

        tr, idx, c = self.tracer, self.index_dir, self.cyc
        if c["next"] >= len(self.inp["batches"]):
            return
        i = c["next"]
        c["next"] += 1
        batch = self.inp["batches"][i]
        op = tr.new_op()
        t0 = time.perf_counter()
        with tr.span("pipelines.build:append_index", op):
            m = self.op(append_index, os.path.dirname(batch["path"]), idx)
        t_app = time.perf_counter() - t0
        if m is None:
            return
        c["expected"] += batch["rows"]
        c["appended_rows"] += batch["rows"]
        c["ingested"].append(batch)
        self._check("append_docs_count", m["metrics"]["docs_count"] == c["expected"])
        c["appended_bytes"] += sum(sm.get("bytes", 0) for sm in m["segments"]
                                   if sm["name"] not in c["live"])
        t0 = time.perf_counter()
        with tr.span("pipelines.consolidate:consolidate", op):
            m2 = self.op(consolidate, idx, policy="tier", gc=True, repeat=True)
        t_con = time.perf_counter() - t0
        if m2 is None:
            return
        self._check("consolidate_docs_count", m2["metrics"]["docs_count"] == c["expected"])
        pre = {sm["name"] for sm in m["segments"]}
        post = c["live"] = {sm["name"] for sm in m2["segments"]}
        c["segments_in"] += len(pre - post)
        c["segments_out"] += len(post - pre)
        c["merged_bytes"] += sum(sm.get("bytes", 0) for sm in m2["segments"]
                                 if sm["name"] not in pre)
        c["rounds"] += m2["generation"] - m["generation"]
        self._rec("append", t_app)
        self._rec("consolidate", t_con)
        self._rec("append_cycle", t_app + t_con)
        probe = I.to_filter(("term", self.inp["probes"][i]))
        t0 = time.perf_counter()
        with tr.span("op:refresh", op):
            s = self.op(self._refresh, idx, probe)
        if s is None:
            return
        self._rec("refresh", time.perf_counter() - t0)
        want = I.count_rows_with_term([f["path"] for f in c["ingested"]], self.inp["probes"][i])
        self._check("probe_count", self.op(s.count, probe) == want)

    def finish_cycles(self) -> None:
        from iresearch_ray.state.manifest import load_manifest

        c, idx = self.cyc, self.index_dir
        self.facts.update({k: c[k] for k in ("appended_rows", "appended_bytes", "merged_bytes",
                                              "segments_in", "segments_out")})
        self.facts["consolidate_rounds"] = c["rounds"]
        self.facts["source_arrow_bytes"] = sum(f["arrow_bytes"] for f in c["ingested"])
        manifest = load_manifest(idx)
        self._check("final_docs_count", manifest["metrics"]["docs_count"] == c["expected"])
        self.facts["index_bytes"] = sum(
            dir_bytes(os.path.join(idx, "segments", sm["name"])) for sm in manifest["segments"])
        if self.tracer.enabled:
            from iresearch_ray.stages.segment import docs_paths, terms_paths
            from iresearch_ray.state.manifest import segment_dirs

            dirs = segment_dirs(idx, manifest)
            self.layer["index.terms_bytes"] = sum(os.path.getsize(p) for d in dirs for p in terms_paths(d))
            self.layer["index.docs_bytes"] = sum(os.path.getsize(p) for d in dirs for p in docs_paths(d))

    def _refresh(self, idx: str, probe):
        """Open a new Searcher on the latest generation and answer the probe."""
        from iresearch_ray.pipelines.search import Searcher

        tr = self.tracer
        if not tr.enabled:
            s = Searcher(idx)
            s.search_local(probe, k=TOP_K)
            return s
        from iresearch_ray.stages.segment import SegmentReader
        from iresearch_ray.state.manifest import load_manifest, segment_dirs
        from iresearch_ray.state.stats import build_global_stats

        manifest = load_manifest(idx)
        with tr.span("state.stats:build_global_stats"):
            build_global_stats(idx, manifest)
        with tr.span("pipelines.search:Searcher"):
            s = Searcher(idx)
        with tr.span("stages.segment:SegmentReader.open"):
            readers = [SegmentReader(d) for d in segment_dirs(idx, manifest)]
            for r in readers:
                r.terms, r.docs  # noqa: B018 - force the lazy table loads
        self._traced_query(s, readers, probe, "probe")
        return s

    # -- curate ----------------------------------------------------------------
    def curate_pass(self, name: str) -> None:
        """One full Ray Data pass of ``name`` over the curate table."""
        import pyarrow as pa
        import ray.data as rd

        from iresearch_ray.pipelines import dataops as D

        fn = {
            "dedup": D.exact_dedup,
            "minhash": lambda ds: D.minhash_lsh_pairs(ds, threshold=0.5),
            "quality": D.quality_scores,
        }[name]
        tr = self.tracer
        tbl = self.inp["curate"]
        if name == "quality":
            tbl = pa.concat_tables([tbl] * QUALITY_COPIES)
        blocks = as_blocks(tbl, CURATE_BLOCKS)
        t0 = time.perf_counter()
        with tr.span(f"pipelines.dataops:{name}", tr.new_op()):
            out = self.op(lambda: fn(rd.from_arrow(blocks)).materialize())
        if out is None:
            return
        self._rec(name, time.perf_counter() - t0)
        self.curate_out[name] = out
        if tr.enabled:
            self.facts.setdefault("dataset_stats", {})[name] = out.stats()

    def _trace_dedup_kernel(self) -> None:
        """The dedup fingerprint kernel alone, in this process, same rows."""
        from iresearch_ray.pipelines.dataops import md5_hex

        texts = self.inp["curate"]["text"].to_pylist()
        t0 = time.perf_counter()
        with self.tracer.span("pipelines.dataops:md5_hex", self.tracer.new_op()):
            md5_hex(texts)
        self.layer["dataops.dedup.kernel_s"] = time.perf_counter() - t0

    # -- checks (outside every timed region) ----------------------------------
    def check_queries(self) -> None:
        """A seeded sample of stream queries against the brute-force oracle
        on a small index of the same corpus."""
        from iresearch_ray.pipelines.build import build_index_local
        from iresearch_ray.pipelines.search import Searcher
        from iresearch_ray.query.oracle import BruteForceOracle

        tbl = self.inp["check_tbl"]
        d = os.path.join(self.work_dir, "check-idx")
        build_index_local(tbl, d, num_partitions=4)
        s = Searcher(d)
        oracle = BruteForceOracle(tbl)
        by_family: dict[str, list] = {}
        for spec in self.inp["singles"]:
            if len(by_family.setdefault(spec[0], [])) < CHECK_PER_FAMILY:
                by_family[spec[0]].append(spec)
        n = 0
        for specs in by_family.values():
            for spec in specs:
                want = oracle.search(I.to_filter(spec), k=TOP_K)
                for wand in (True, False):
                    got = s.search_local(I.to_filter(spec), k=TOP_K, wand=wand)
                    self._check("oracle_topk", same_hits(got, want))
                n += 1
        self.facts["oracle_checked_queries"] = n

    def check_pooled(self, s) -> None:
        """Pooled == local on the generation the pool served: every query of
        the first batch, one seeded query of each later batch."""
        rng = np.random.default_rng([self.seed, 4])
        n = 0
        for b, (specs, res) in enumerate(self.batches_seen):
            idxs = range(len(specs)) if b < BATCHES_FULLY_CHECKED else [int(rng.integers(len(specs)))]
            for j in idxs:
                got = res[res["query_id"] == f"q{j}"].reset_index(drop=True)
                want = s.search_local(I.to_filter(specs[j]), k=TOP_K)
                self._check("pooled_equals_local", same_hits(got, want))
                n += 1
        self.facts["pooled_checked_queries"] = n

    def check_curate(self) -> None:
        p = self.inp["planted"]
        dedup = self.curate_out.get("dedup")
        self._check("dedup_survivors",
                    dedup is not None and dedup.count() == p["rows"] - p["planted_exact"])
        q = self.curate_out.get("quality")
        self._check("quality_rows", q is not None and q.count() == QUALITY_COPIES * p["rows"])
        pairs = self.curate_out.get("minhash")
        recall = 0.0
        if pairs is not None:
            df = pairs.to_pandas()
            found = {(min(a, b), max(a, b)) for a, b in zip(df["a"], df["b"])}
            planted = {tuple(x) for x in p["near_pairs"]}
            recall = len(planted & found) / max(1, len(planted))
        self.facts["near_dup_recall"] = recall
        self._check("near_dup_recall", recall >= NEAR_RECALL_MIN)

    # -- run ---------------------------------------------------------------------
    def run(self) -> None:
        """Set-up, two builds, then rounds until ``--seconds`` have passed
        (at least MIN_ROUNDS), then a closing build and the checks.  Every
        round runs a slice of each activity, so each metric's samples are
        spread over the whole run and a host slowdown of a few seconds
        cannot own a metric."""
        tr = self.tracer
        if tr.enabled:
            # before any library task runs: workers cache a missing meter
            from iresearch_ray.state.meter import start_meter

            with tr.span("state.meter:start_meter", tr.new_op()):
                start_meter()
                self._read_meter()
        self.curate_out: dict[str, object] = {}
        self.meter: dict[str, dict] = {}
        self.batches_seen: list[tuple[list[tuple], object]] = []
        self.n_singles = 0
        mark = time.perf_counter()
        timeline = self.facts["phase_s"] = {}

        def lap(name: str) -> None:
            nonlocal mark
            now = time.perf_counter()
            timeline[name] = now - mark
            mark = now

        self.setup()
        self._read_meter()  # drop set-up CPU from the layer readings
        self.single_iter = iter(self.inp["singles"])
        self.batch_iter = iter(self.inp["batches_q"])
        self.cyc = {"next": 0, "expected": sum(f["rows"] for f in self.inp["corpus"]),
                    "ingested": list(self.inp["corpus"]), "live": set(),
                    "appended_rows": 0, "appended_bytes": 0, "merged_bytes": 0,
                    "segments_in": 0, "segments_out": 0, "rounds": 0}
        lap("setup")
        # the query index is never written to: consolidation with gc would
        # delete segment files under the query Searcher's feet
        self.query_dir = self.build("query")
        self.index_dir = self.build("write")
        if tr.enabled:
            self._trace_one_partition()
        self.open_query_index()
        lap("builds")
        cfg, start = self.cfg, time.perf_counter()
        pools_due = [self.seconds * f for f in POOL_AT]
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            self.singles(cfg["singles"])
            if r % cfg["cycle_every"] == 0:
                self.cycle()
            for j in range(cfg["curate_passes"]):
                k = r * cfg["curate_passes"] + j
                self.curate_pass(CURATE_ROTATION[k % len(CURATE_ROTATION)])
            if pools_due and time.perf_counter() - start >= pools_due[0]:
                pools_due.pop(0)
                self.pool_phase(POOL_BATCHES)
            self._accumulate_meter()
            r += 1
        for _ in pools_due:
            self.pool_phase(POOL_BATCHES)
        shutil.rmtree(self.build("end"), ignore_errors=True)
        self._accumulate_meter()
        self.facts["rounds"] = r
        lap("rounds")
        if tr.enabled:
            self._trace_dedup_kernel()
            self._trace_overhead(self.searcher, self.readers)
        self.finish_cycles()
        self.sample_rss(force=True)
        self.check_pooled(self.searcher)
        self.check_queries()
        self.check_curate()
        lap("checks")

    def _accumulate_meter(self) -> None:
        for key, val in self._read_meter().items():
            acc = self.meter.setdefault(key, {"user_secs": 0.0, "sys_secs": 0.0})
            acc["user_secs"] += val["user_secs"]
            acc["sys_secs"] += val["sys_secs"]

    # -- metrics -------------------------------------------------------------
    def end_to_end(self) -> dict:
        t, f = self.times, self.facts
        med = statistics.median
        q = [x * 1000 for x in t["query"]]
        answered = len(t["query"]) + I.BATCH_QUERIES * len(t.get("batch", []))
        return {
            "setup_s": (t["setup"][0], "s"),
            "build_turns_per_s": (f["corpus_rows"] / med(t["build"]), "turns/s"),
            "append_turns_per_s": (f["appended_rows"] / sum(t["append_cycle"]), "turns/s"),
            "refresh_ms": (med(t["refresh"]) * 1000, "ms"),
            "index_bytes_per_source_byte": (f["index_bytes"] / f["source_arrow_bytes"], "B/B"),
            "query_p50_ms": (percentile(q, 50), "ms"),
            "query_p90_ms": (percentile(q, 90), "ms"),
            "query_qps": (answered / (sum(t["query"]) + sum(t.get("batch", []))), "1/s"),
            "batch_p50_ms": (med(t["batch"]) * 1000, "ms"),
            "peak_rss_mb": (self.peak_rss / (1 << 20), "MB"),
            "ok_ops_share": (1.0 - self.failed / max(1, self.attempted), "share"),
        }

    def curate_rates(self) -> dict:
        """Curate throughputs, reported in the detail line only: on a shared
        4-vCPU VM their 10-run spread (0.18-0.35) exceeds any allowed bound."""
        t, rows, med = self.times, self.inp["planted"]["rows"], statistics.median
        return {
            "dedup_docs_per_s": (rows / med(t["dedup"]), "docs/s"),
            "near_dup_docs_per_s": (rows / med(t["minhash"]), "docs/s"),
            "quality_docs_per_s": (QUALITY_COPIES * rows / med(t["quality"]), "docs/s"),
        }

    def per_layer(self) -> dict:
        tr, t, f = self.tracer, self.times, self.facts
        med = statistics.median
        c = tr.counters

        def ms(name: str) -> float:
            d = tr.durations(name)
            return med(d) * 1000 if d else 0.0

        out = {
            "search.prepare_ms": (ms("query.filters:prepare"), "ms"),
            "prepare.terms_per_query": (c.get("prepare.terms", 0) / max(1, c.get("prepare.queries", 0)), "terms"),
        }
        for fam in I.FAMILIES:
            out[f"exec.ms.{fam}"] = (ms(f"query.exec:segment_topk.{fam}"), "ms")
        on, off = c.get("exec.wand_on_s", 0.0), c.get("exec.wand_off_s", 0.0)
        out.update({
            "exec.segments_per_query": (c.get("exec.segments", 0) / max(1, c.get("prepare.queries", 0)), "segments"),
            "exec.wand_off_ms": (med(t["wand_off"]) * 1000 if t.get("wand_off") else 0.0, "ms"),
            "exec.wand_saving_share": (1.0 - on / off if off else 0.0, "share"),
            "merge.ms": (ms("pipelines.search:merge_topk"), "ms"),
            "pool.start_s": (med(t["pool_start"]), "s"),
            "pool.batch_ms": (ms("pipelines.search:Searcher.search_pooled"), "ms"),
            "pool.overhead_ms": (med(t["pool_overhead"]) * 1000 if t.get("pool_overhead") else 0.0, "ms"),
            "query_pool.user_cpu_s": (self.meter.get("query_pool", {}).get("user_secs", 0.0), "s"),
            "segment.open_ms": (ms("stages.segment:SegmentReader.open"), "ms"),
            "stats.build_ms": (ms("state.stats:build_global_stats"), "ms"),
            "build.wall_s": (med(t["build"]), "s"),
            "build.user_cpu_s": (self.meter.get("build", {}).get("user_secs", 0.0), "s"),
            "build.sys_cpu_s": (self.meter.get("build", {}).get("sys_secs", 0.0), "s"),
            "analysis.explode_s": (sum(tr.durations("functions.analysis:explode_text_arrow")), "s"),
            "segment.build_tables_s": (sum(tr.durations("stages.segment:build_segment_tables")), "s"),
            "segment.write_s": (sum(tr.durations("stages.segment:write_segment")), "s"),
            "append.wall_s": (sum(t["append"]), "s"),
            "consolidate.wall_s": (sum(t["consolidate"]), "s"),
            "consolidate.user_cpu_s": (self.meter.get("consolidate", {}).get("user_secs", 0.0), "s"),
            "consolidate.rounds": (f["consolidate_rounds"], "count"),
            "consolidate.segments_in": (f["segments_in"], "count"),
            "consolidate.segments_out": (f["segments_out"], "count"),
            "consolidate.bytes_written": (f["merged_bytes"], "B"),
            "consolidate.write_amp": (f["merged_bytes"] / max(1, f["appended_bytes"]), "B/B"),
            "index.terms_bytes": (self.layer.get("index.terms_bytes", 0), "B"),
            "index.docs_bytes": (self.layer.get("index.docs_bytes", 0), "B"),
            "dataops.dedup.wall_s": (med(t["dedup"]), "s"),
            "dataops.minhash.wall_s": (med(t["minhash"]), "s"),
            "dataops.quality.wall_s": (med(t["quality"]), "s"),
            "dataops.dedup.kernel_s": (self.layer.get("dataops.dedup.kernel_s", 0.0), "s"),
            "dataops.dedup.groups": (self.inp["planted"]["rows"] - self.inp["planted"]["planted_exact"], "count"),
            "dataops.dedup.dispatch_share": (1.0 - self.layer.get("dataops.dedup.kernel_s", 0.0) / med(t["dedup"]), "share"),
        })
        self_s = tr.layer_self_times()
        for layer in LAYERS:
            out[f"self_s.{layer}"] = (self_s.get(layer, 0.0), "s")
        out["trace.spans"] = (len(tr.spans), "count")
        out["trace.overhead_ms"] = (f.get("trace_overhead_ms", 0.0), "ms")
        return out
