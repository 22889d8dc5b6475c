"""index-put analog (SURVEY §2.2): build an index over transcript parquet.

Runs standalone or via ``ray job submit`` (SURVEY §3.1 / B north_rule):

    python bench/build_bench.py --input DIR_OR_GLOB --index-dir DIR \\
        [--partitions N] [--num-cpus N] [--no-resume]

    ray job submit --working-dir . -- python bench/build_bench.py \\
        --input /data/transcripts --index-dir /shared/idx

Owns its Ray session only when none exists (``ray job submit`` provides one).
Prints one JSON line: docs, seconds, turns/sec, manifest generation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="parquet file/dir (or comma list)")
    ap.add_argument("--index-dir", required=True)
    ap.add_argument("--partitions", type=int, default=None)
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--no-resume", action="store_true")
    args = ap.parse_args()

    import ray

    owns = not ray.is_initialized()
    if owns:
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    try:
        from iresearch_ray.pipelines.build import build_index

        src = args.input.split(",") if "," in args.input else args.input
        t0 = time.perf_counter()
        m = build_index(
            src,
            args.index_dir,
            num_partitions=args.partitions,
            resume=not args.no_resume,
        )
        secs = time.perf_counter() - t0
        print(
            json.dumps(
                {
                    "docs": m["metrics"]["docs_count"],
                    "secs": round(secs, 3),
                    "turns_per_sec": round(m["metrics"]["docs_count"] / secs, 1),
                    "generation": m["generation"],
                    "segments": len(m["segments"]),
                }
            )
        )
    finally:
        if owns:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
