"""`ray job submit` entrypoint: build (or append to) an index over Parquet,
optionally consolidate, and print one metrics JSON line as the job output.

The north-star deployment shape is a fixed-size multi-node Ray cluster
driven through the job API:

    ray job submit --working-dir /path/to/repo -- \
        python tools/job_build.py --src /data/transcripts --out /shared/idx \
        --partitions 256 --consolidate tier --gc

Unlike the library (which NEVER calls ray.init — the caller owns the
session), a submitted job owns its driver process, so this script calls
``ray.init()``: the job runtime injects RAY_ADDRESS, which points it at the
hosting cluster; without it a standalone run starts a local session.  Build resume is on by default: re-submitting the same
job after a partial failure skips completed partitions via the per-partition
lineage in the manifest (the checkpoint/resume contract `build_index`
already implements), so a crashed job is re-run, not repaired by hand.

Smoke-tested in-sandbox against a single-node `ray start --head` cluster
(tests/test_job_submit.py drives the real job HTTP API when the local
cluster exposes it, and falls back to driving this script as a subprocess
with RAY_ADDRESS set — the identical code path a job driver takes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True, help="Parquet file/dir/glob of transcripts")
    ap.add_argument("--out", required=True, help="index directory (shared storage)")
    ap.add_argument("--partitions", type=int, default=None)
    ap.add_argument("--append", action="store_true", help="append to an existing index")
    ap.add_argument(
        "--consolidate",
        default=None,
        choices=[None, "tier", "count", "bytes", "bytes_accum", "docs_live", "docs_fill"],
        help="run one consolidation pass with this policy after the build",
    )
    ap.add_argument("--gc", action="store_true", help="garbage-collect after consolidation")
    ap.add_argument("--no-resume", action="store_true", help="ignore prior partition lineage")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # inside a submitted job RAY_ADDRESS points at the hosting cluster;
        # standalone runs fall back to a local session so the script is
        # drivable everywhere
        ray.init(include_dashboard=False)

    from iresearch_ray import build_index
    from iresearch_ray.pipelines.build import append_index
    from iresearch_ray.pipelines.consolidate import consolidate

    t0 = time.perf_counter()
    if args.append:
        manifest = append_index(args.src, args.out, num_partitions=args.partitions)
    else:
        manifest = build_index(
            args.src, args.out, num_partitions=args.partitions, resume=not args.no_resume
        )
    build_secs = time.perf_counter() - t0

    n_docs = int(
        manifest.get("docs_count")
        or sum(int(s.get("docs_count", 0)) for s in manifest.get("segments", []))
    )
    metrics = {
        "job": "append" if args.append else "build",
        "index_dir": args.out,
        "generation": manifest.get("generation"),
        "segments": len(manifest.get("segments", [])),
        "docs": n_docs,
        "build_secs": round(build_secs, 3),
        "docs_per_sec": round(n_docs / build_secs, 1) if build_secs > 0 else None,
    }

    if args.consolidate:
        t1 = time.perf_counter()
        consolidate(args.out, policy=args.consolidate, gc=args.gc)
        metrics["consolidate_secs"] = round(time.perf_counter() - t1, 3)

    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
