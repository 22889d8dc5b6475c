"""Benchmark entry point: one workload, one seed, one process, one Ray session.

    python3 perfbench/run.py --workload {ingest,search,curate} --seed N \\
        --seconds S --trace {0,1} [--scale {full,tiny}]

Run from the repository root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a detail record (host facts, sample counts, check
results), also written with the trace under ``.perfbench/out/``.  All
scratch data lives in a private directory under ``.perfbench/tmp/`` that is
deleted at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest", "search")
WATCHDOG_S = 170
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets about
# 64 bytes below its temp dir
RAY_TEMP_MAX = 40


def host_facts(num_cpus: int) -> dict:
    import ray

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": nproc,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_version": ray.__version__,
        "ray_num_cpus": num_cpus,
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


def cpu_ticks() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Poll until every pid has exited (or is a zombie); returns survivors."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        nxt = []
        for pid in alive:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue
            if state != "Z":
                nxt.append(pid)
        alive = nxt
        if alive:
            time.sleep(0.1)
    return alive


def stop_all(pids: list[int]) -> None:
    """Wait for every listed process to end; kill stragglers."""
    left = wait_gone(pids, 20)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    wait_gone(left, 10)
    for pid in pids:  # reap direct children
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "iresearch_ray")):
        print(f"perfbench: no iresearch_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers import the library from the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    try:
        import ray

        from perfbench import workloads as W
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(base, "tmp", f"run-{os.getpid()}")
    out_dir = os.path.join(base, "out")
    os.makedirs(work_dir)
    os.makedirs(out_dir, exist_ok=True)
    ray_tmp = os.path.join(base, f"r{os.getpid()}")
    init_kw = {}
    if len(ray_tmp) <= RAY_TEMP_MAX:
        init_kw["_temp_dir"] = ray_tmp

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    run = W.Run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
                scale=args.scale)
    ticks0 = cpu_ticks()
    try:
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=W.NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=W.OBJECT_STORE_BYTES,
                 _system_config=W.RAY_SYSTEM_CONFIG, **init_kw)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        ray_init_s = time.perf_counter() - t0
        facts = host_facts(W.NUM_CPUS)
        run.run()
        metrics = run.per_layer() if args.trace else run.end_to_end()
        curate = run.curate_rates()
    finally:
        t_end = time.perf_counter()
        # listed before shutdown: orphaned workers leave the process tree
        started = W.descendants(os.getpid())
        try:
            ray.shutdown()
        finally:
            stop_all(started)
            signal.alarm(0)
            shutil.rmtree(work_dir, ignore_errors=True)
            shutil.rmtree(ray_tmp, ignore_errors=True)

    run.facts["phase_s"]["teardown"] = time.perf_counter() - t_end
    delta = [b - a for a, b in zip(ticks0, cpu_ticks())]
    # share of CPU time the hypervisor gave to other guests during the run
    facts["cpu_steal_share"] = delta[7] / max(1, sum(delta))
    correct = bool(run.checks) and all(run.checks.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": facts,
        "ray_init_s": ray_init_s, "checks": run.checks,
        "curate": {k: {"value": v, "unit": u} for k, (v, u) in curate.items()},
        "facts": {k: v for k, v in run.facts.items() if k != "dataset_stats"},
        "timings": {k: W.timing_summary(v) for k, v in run.times.items()},
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump({**detail, "metrics": metrics, "times": run.times}, f, indent=1, default=str)
    if args.trace:
        run.tracer.write(os.path.join(out_dir, f"{tag}.trace.json"),
                         {"detail": detail, "feeds": W.FEEDS,
                          "dataset_stats": run.facts.get("dataset_stats", {})})
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
