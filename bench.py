"""Bench harness (SURVEY.md §7.1 M5) — prints ONE JSON line.

Default: runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) with ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32):

  build      index the deterministic synthetic transcript corpus sized to
             the sf (≈ lineitem row count turns) → indexed turns/sec
  query      top-k BM25 over the built index: batched throughput via
             per-segment Ray tasks + per-query p50/p95 latency
  consolidate tier-policy merge of the built segments
  dataops    exact dedup + minhash near-dup + quality over documents;
             brute-force cosine top-k over embeddings

--scaling: runs the SAME build job (the x4 corpus, 128 partitions) in two
fresh processes, num_cpus=2 then num_cpus=8, and prints one JSON line with
efficiency = (thr8/thr2)/(8/2), both build times and each leg's in-task
user/sys CPU; the single-box stand-in for the N vs 4N node criterion
(SURVEY §4.1).  It writes no file.

Owns its Ray session (the ONLY script here that calls ray.init).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CORPUS_ROOT = "/tmp/ire_bench/corpus"
INDEX_ROOT = "/tmp/ire_bench/idx"
# the scaling legs build a corpus 4x the sf size so fixed per-job cost is amortized
SCALING_MULTIPLIER = 4
# 64 keeps consolidate's merge-tree depth comparable across rounds; the
# scaling legs use 128 so the 8-worker leg's straggler tail stays small
HEADLINE_PARTITIONS = 64
SCALING_PARTITIONS = 128
SCALING_CPUS = (2, 8)

QUERY_SET = [
    ("term_hot", lambda F: F.Term("text", "the")),
    ("term_mid", lambda F: F.Term("text", "agent")),
    ("or3", lambda F: F.Or(tuple(F.Term("text", t) for t in ("error", "plan", "merge")))),
    ("and2", lambda F: F.And((F.Term("text", "agent"), F.Term("text", "error")))),
    ("minmatch", lambda F: F.Or(tuple(F.Term("text", t) for t in ("run", "test", "data")), min_match=2)),
    ("phrase", lambda F: F.Phrase("text", ("the", "a"))),
    ("prefix", lambda F: F.Prefix("text", "w00")),
    ("wildcard", lambda F: F.Wildcard("text", "w%1")),
    ("fuzzy", lambda F: F.Fuzzy("text", "agent", 1)),
    ("keyword", lambda F: F.Term("role", "tool")),
]


def _n_convs_for_sf(sf_dir: str) -> int:
    """Corpus sized to the sf: ≈ lineitem row count turns (~7.5 turns/conv)."""
    import pyarrow.parquet as pq

    rows = pq.read_metadata(os.path.join(sf_dir, "lineitem.parquet")).num_rows
    return max(200, rows // 8)


def ensure_corpus(sf_dir: str, multiplier: int = 1) -> str:
    """Deterministic transcript corpus for this sf, generated IN PARALLEL via
    Ray tasks (cached across runs — the --scaling children reuse it, so
    generation never pollutes build timings).  ``multiplier`` scales the
    corpus up for the scaling benchmark, where fixed per-job overhead must be
    amortized to measure the asymptotic efficiency the north rule cares
    about."""
    n_convs = _n_convs_for_sf(sf_dir) * multiplier
    out = os.path.join(CORPUS_ROOT, f"convs{n_convs}")
    marker = os.path.join(out, "_DONE")
    if os.path.exists(marker):
        return out
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)

    import ray

    from iresearch_ray.sources.transcripts import gen_transcripts_range

    @ray.remote
    def gen_shard(start: int, end: int, path: str) -> str:
        import pyarrow.parquet as pq

        pq.write_table(gen_transcripts_range(start, end), path)
        return path

    step = max(500, n_convs // (NUM_CPUS * 4))
    futs = [
        gen_shard.remote(s, min(s + step, n_convs), os.path.join(out, f"part-{i:05d}.parquet"))
        for i, s in enumerate(range(0, n_convs, step))
    ]
    ray.get(futs)
    with open(marker, "w") as f:
        f.write(str(n_convs))
    return out


def _warm_cluster() -> float:
    """One-time cluster warm: start every worker (importing the package
    applies allocator retention there, see iresearch_ray/runtime.py) and
    touch the object-store arena the run will use, so the timed stages
    measure the engine rather than worker start-up.  A long-lived cluster
    pays this once; warm time is reported, never hidden.
    """
    import numpy as np

    import ray

    import iresearch_ray  # noqa: F401  (driver-side allocator retention)

    @ray.remote(num_cpus=1)
    def _warm() -> int:
        # importing the package applies allocator retention (runtime.py)
        import iresearch_ray  # noqa: F401

        return 0

    t0 = time.perf_counter()
    ray.get([_warm.remote() for _ in range(NUM_CPUS * 2)])
    # touch up to 4 GB of plasma pages (at most half the store, so a small
    # session never spills); dlmalloc inside the store reuses them
    chunk = 256 * 1024 * 1024
    store = ray.cluster_resources().get("object_store_memory", 0)
    n_chunks = max(1, min(16, int(store / 2) // chunk))
    refs = [ray.put(np.empty(chunk // 8)) for _ in range(n_chunks)]
    del refs
    return time.perf_counter() - t0


def bench_build(corpus: str, num_partitions: int = HEADLINE_PARTITIONS) -> dict:
    import pyarrow.parquet as pq

    import ray

    from iresearch_ray.pipelines.build import build_index

    warm_secs = _warm_cluster()

    idx = os.path.join(INDEX_ROOT, f"cpus{NUM_CPUS}")
    shutil.rmtree(idx, ignore_errors=True)
    files = sorted(
        os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".parquet")
    )
    turns = sum(pq.read_metadata(f).num_rows for f in files)
    t0 = time.perf_counter()
    manifest = build_index(files, idx, num_partitions=num_partitions, resume=False)
    secs = time.perf_counter() - t0
    assert manifest["metrics"]["docs_count"] == turns
    return {
        "secs": secs,
        "turns": turns,
        "turns_per_sec": turns / secs,
        "index_dir": idx,
        "warm_secs": warm_secs,
    }


def bench_query(idx: str) -> dict:
    import numpy as np

    from iresearch_ray import Searcher
    from iresearch_ray.query import filters as F

    from iresearch_ray.state.meter import read_meter

    s = Searcher(idx)
    batch = {name: mk(F) for name, mk in QUERY_SET}
    read_meter()  # drain prior stages

    # batched throughput through a fresh Ray Data job (the cold distributed
    # path — the r1 "query_batch" metric, restored to that name for
    # round-over-round continuity).  Every search_ray call opens its
    # segments afresh, so repeats stay cold; best-of-2 per the repo's
    # VM-noise protocol (additive phantom load ⇒ min is the honest
    # estimator).
    dataset_batch_secs = float("inf")
    dataset_cpu = []
    for _ in range(2):
        t0 = time.perf_counter()
        out = s.search_ray(batch, k=10)
        dataset_batch_secs = min(dataset_batch_secs, time.perf_counter() - t0)
        dataset_cpu.append(read_meter().get("query", {}))

    # serving path: cached QueryPool (lazy-created on first call, reused
    # after).  The warm number is a cache-MISS evaluation (distinct k) so
    # it measures query EXECUTION on warm actors; the result-cache hit is
    # reported separately (it is a real serving feature but would make the
    # headline trivially ~10 ms).
    t0 = time.perf_counter()
    out_pooled = s.search_pooled(batch, k=10)
    pool_cold_secs = time.perf_counter() - t0
    _a = out_pooled.sort_values(["query_id", "conv_id", "turn_idx"]).reset_index(drop=True)
    _b = out.sort_values(["query_id", "conv_id", "turn_idx"]).reset_index(drop=True)
    assert _a.equals(_b), "pooled vs dataset path results diverged"
    read_meter()
    t0 = time.perf_counter()
    s.search_pooled(batch, k=11)  # warm actors, cache miss
    batch_secs = time.perf_counter() - t0
    pool_cpu = read_meter().get("query_pool", {})
    t0 = time.perf_counter()
    s.search_pooled(batch, k=10)  # identical plans: LRU result-cache hit
    batch_cached_secs = time.perf_counter() - t0

    # per-query latency over the point-in-time snapshot (library usage path);
    # readers are cached after the first pass — time the warm path, report both
    lat = {}
    for rep in range(3):
        for name, mk in QUERY_SET:
            t0 = time.perf_counter()
            s.search_local(mk(F), k=10)
            dt = time.perf_counter() - t0
            lat.setdefault(name, []).append(dt)
    warm = [min(v) for v in lat.values()]

    # warm per-query latency through the same cached pool — k=12 keeps
    # every measurement a cache MISS (pure warm evaluation)
    pool_lat = []
    for name, mk in QUERY_SET:
        t0 = time.perf_counter()
        s.search_pooled({name: mk(F)}, k=12)
        pool_lat.append(time.perf_counter() - t0)
    s.close()
    return {
        "batch_secs": batch_secs,
        "batch_cached_secs": batch_cached_secs,
        "dataset_batch_secs": dataset_batch_secs,
        "pool_cold_secs": pool_cold_secs,
        # in-task CPU per cold dataset batch (one dict per repeat: user/sys
        # split — USER is flat under host noise, SYS carries fault handling)
        # and for the warm pooled cache-miss batch — the r3 review's channel
        "dataset_cpu": dataset_cpu,
        "pool_cpu": pool_cpu,
        "batch_rows": len(out),
        "p50_local_ms": float(np.percentile(np.array(warm) * 1e3, 50)),
        "p95_local_ms": float(np.percentile(np.array(warm) * 1e3, 95)),
        "pool_p50_ms": float(np.percentile(np.array(pool_lat) * 1e3, 50)),
        "pool_p95_ms": float(np.percentile(np.array(pool_lat) * 1e3, 95)),
    }


def bench_consolidate(idx: str) -> dict:
    from iresearch_ray.pipelines.consolidate import consolidate
    from iresearch_ray.state.manifest import load_manifest
    from iresearch_ray.state.meter import read_meter

    read_meter()  # drain anything from prior stages
    t0 = time.perf_counter()
    consolidate(idx, policy="tier", gc=True, repeat=True)
    secs = time.perf_counter() - t0
    meter = read_meter().get("consolidate", {})
    # useful-work share: merge_secs is measured INSIDE the merge task, so
    # (secs - final-round merge) exposes scheduling/IO/host overhead —
    # isolated runs measure ~5.6 s wall at sf0.1 while noisy-host bench
    # runs report 3-6x that with identical in-task merge time.  Only the
    # FINAL round's merge survives in the manifest (earlier partials are
    # gc'd), which is the dominant one (whole-index k-way).
    man = load_manifest(idx) or {}
    lineage = man.get("lineage", {}).get("consolidations", [])
    merge_in_task = 0.0
    for s in man.get("segments", []):
        merge_in_task += float(s.get("metrics", {}).get("merge_secs") or 0.0)
    return {
        "secs": secs,
        "rounds": len({c.get("generation") for c in lineage}),
        "final_merge_secs": round(merge_in_task, 3),
        # CPU-seconds across EVERY merge/finalize task of every round (the
        # r3 review's demanded channel): flat cpu_secs across wall-varying
        # runs = host noise; cpu_secs tracking wall = engine regression
        "cpu_secs": meter.get("cpu_secs", 0.0),
        "user_secs": meter.get("user_secs", 0.0),
        "sys_secs": meter.get("sys_secs", 0.0),
        "cpu_tasks": meter.get("tasks", 0),
    }


def bench_dataops(sf_dir: str) -> dict:
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from iresearch_ray.pipelines import dataops as ops

    res = {}
    t0 = time.perf_counter()
    n = ops.exact_dedup(rd.read_parquet(f"{sf_dir}/documents.parquet")).count()
    res["dedup_secs"] = time.perf_counter() - t0
    res["dedup_rows"] = n

    t0 = time.perf_counter()
    ops.minhash_lsh_pairs(rd.read_parquet(f"{sf_dir}/documents.parquet"), threshold=0.5).count()
    res["minhash_secs"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ops.quality_scores(rd.read_parquet(f"{sf_dir}/documents.parquet")).count()
    res["quality_secs"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ops.simhash_pairs(rd.read_parquet(f"{sf_dir}/documents.parquet"), max_hamming=3).count()
    res["simhash_secs"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ops.fingerprints(rd.read_parquet(f"{sf_dir}/documents.parquet")).count()
    res["fingerprints_secs"] = time.perf_counter() - t0

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet")
    q = np.array(emb["embedding"].to_pylist()[:8], dtype=np.float64)
    t0 = time.perf_counter()
    ops.embedding_topk(rd.read_parquet(f"{sf_dir}/embeddings.parquet"), q, k=10).count()
    res["emb_topk_secs"] = time.perf_counter() - t0
    return res


def _one_pass(corpus: str) -> tuple[dict, dict, dict, dict]:
    """One full stage sweep inside an already-init'd Ray session; returns
    (build, consolidate, query, dataops) records."""
    from iresearch_ray.state.meter import read_meter

    b = bench_build(corpus)
    b["cpu"] = read_meter().get("build", {})
    c = bench_consolidate(b["index_dir"])
    q = bench_query(b["index_dir"])
    d = bench_dataops(SF_DIR)
    return b, c, q, d


def run_full() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False, logging_level="ERROR")
    try:
        from iresearch_ray.state.meter import start_meter

        start_meter()
        b, c, q, d = _one_pass(ensure_corpus(SF_DIR))
    finally:
        ray.shutdown()
    queries = {
        "build_index": round(b["secs"], 3),
        # r1-name continuity: query_batch = COLD Ray-Data batch (what r1
        # reported); the warm pooled cache-miss batch is query_batch_warm
        "query_batch": round(q["dataset_batch_secs"], 3),
        "query_batch_warm": round(q["batch_secs"], 3),
        "consolidate": round(c["secs"], 3),
        "dedup": round(d["dedup_secs"], 3),
        "minhash": round(d["minhash_secs"], 3),
        "quality": round(d["quality_secs"], 3),
        "emb_topk": round(d["emb_topk_secs"], 3),
    }
    return {
        "metric": "headline pipeline wall seconds (index build + BM25 top-k + consolidation + curation ops)",
        "value": round(sum(queries.values()), 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "detail": {
            "cluster_warm_secs": round(b["warm_secs"], 3),
            "indexed_turns": b["turns"],
            "indexed_turns_per_sec": round(b["turns_per_sec"], 1),
            "build_cpu_secs": b.get("cpu", {}).get("cpu_secs"),
            "build_user_secs": b.get("cpu", {}).get("user_secs"),
            "build_sys_secs": b.get("cpu", {}).get("sys_secs"),
            "query_batch_dataset_secs": round(q["dataset_batch_secs"], 3),
            "query_batch_cached_secs": round(q["batch_cached_secs"], 3),
            "query_pool_cold_secs": round(q["pool_cold_secs"], 3),
            # CPU-seconds channels: process_time summed inside the stage's
            # tasks.  Flat across wall-varying runs ⇒ host noise; tracking
            # wall ⇒ engine work.
            "query_cpu": q.get("dataset_cpu"),
            "query_pool_cpu": q.get("pool_cpu"),
            "consolidate_cpu_secs": c.get("cpu_secs"),
            "consolidate_user_secs": c.get("user_secs"),
            "consolidate_sys_secs": c.get("sys_secs"),
            "consolidate_cpu_tasks": c.get("cpu_tasks"),
            "consolidate_rounds": c.get("rounds"),
            "consolidate_in_task_merge_secs": c.get("final_merge_secs"),
            "dataops_simhash_secs": round(d["simhash_secs"], 3),
            "dataops_fingerprints_secs": round(d["fingerprints_secs"], 3),
            "query_p50_local_ms": round(q["p50_local_ms"], 2),
            "query_p95_local_ms": round(q["p95_local_ms"], 2),
            "query_pool_p50_ms": round(q["pool_p50_ms"], 2),
            "query_pool_p95_ms": round(q["pool_p95_ms"], 2),
        },
    }


def _scale_child(cpus: int) -> None:
    """Fresh-process build-only run (corpus must already exist)."""
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    try:
        from iresearch_ray.state.meter import read_meter, start_meter

        start_meter()
        corpus = ensure_corpus(SF_DIR, multiplier=SCALING_MULTIPLIER)
        global NUM_CPUS
        NUM_CPUS = cpus  # index dir per-cpus
        b = bench_build(corpus, num_partitions=SCALING_PARTITIONS)
        bc = read_meter().get("build", {})
    finally:
        ray.shutdown()
    print(json.dumps({"cpus": cpus, "secs": b["secs"], "turns": b["turns"],
                      "thr": b["turns_per_sec"],
                      "user_secs": round(bc.get("user_secs", 0.0), 2),
                      "sys_secs": round(bc.get("sys_secs", 0.0), 2)}))


def run_scaling() -> dict:
    """The same build job at 2 and then 8 CPUs, each in a fresh process;
    efficiency = (thr8/thr2)/(8/2)."""
    import ray

    # pre-generate the corpus once so the children only time the build
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False, logging_level="ERROR")
    try:
        ensure_corpus(SF_DIR, multiplier=SCALING_MULTIPLIER)
    finally:
        ray.shutdown()

    legs = {}
    for cpus in SCALING_CPUS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--_scale_child", str(cpus)],
            capture_output=True,
            text=True,
            env=dict(os.environ, GRAFT_SF_DIR=SF_DIR),
            check=True,
        )
        line = [l for l in out.stdout.strip().splitlines() if l.startswith("{")][-1]
        legs[cpus] = json.loads(line)
    lo, hi = SCALING_CPUS
    return {
        "metric": f"index-build throughput scaling efficiency, {lo}→{hi} CPUs (N vs 4N stand-in)",
        "value": round((legs[hi]["thr"] / legs[lo]["thr"]) / (hi / lo), 3),
        "unit": "efficiency",
        "queries": {f"build_{c}cpu": round(r["secs"], 3) for c, r in legs.items()},
        "sf": SF_DIR,
        "detail": {
            "turns": legs[lo]["turns"],
            "partitions": SCALING_PARTITIONS,
            "per_leg_cpu": {
                str(c): {"user_secs": r["user_secs"], "sys_secs": r["sys_secs"]}
                for c, r in legs.items()
            },
        },
    }


if __name__ == "__main__":
    if "--_scale_child" in sys.argv:
        _scale_child(int(sys.argv[sys.argv.index("--_scale_child") + 1]))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_full()))
