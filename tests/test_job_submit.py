"""The `ray job submit` deployment path (tools/job_build.py).

A submitted job is a driver subprocess with RAY_ADDRESS injected that owns
its session — exactly what this test spawns.  When the local cluster
exposes the job HTTP API (needs the dashboard, absent in this sandbox), the
same script is what `ray job submit --working-dir . -- python
tools/job_build.py ...` executes; the subprocess drive below covers the
identical code path minus the HTTP hop."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_job(args, ray_address="local"):
    env = dict(os.environ, PYTHONPATH=REPO)
    env.pop("RAY_ADDRESS", None)
    if ray_address is not None:
        env["RAY_ADDRESS"] = ray_address
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "job_build.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    line = [l for l in out.stdout.strip().splitlines() if l.startswith("{")][-1]
    return json.loads(line)


def test_job_build_and_consolidate(tmp_path):
    from iresearch_ray.sources.transcripts import write_transcripts

    src = str(tmp_path / "src")
    idx = str(tmp_path / "idx")
    write_transcripts(src, n_convs=120)

    m = _run_job(
        ["--src", src, "--out", idx, "--partitions", "4", "--consolidate", "count", "--gc"]
    )
    assert m["job"] == "build"
    assert m["docs"] > 0 and m["segments"] >= 1
    assert "consolidate_secs" in m and m["build_secs"] > 0

    # resume contract: a re-submitted job over the same input is a no-op
    # rebuild (completed partitions skipped via lineage), same doc count
    m2 = _run_job(["--src", src, "--out", idx, "--partitions", "4"])
    assert m2["docs"] == m["docs"]


def test_job_build_without_ray_address(tmp_path):
    """Standalone run: with RAY_ADDRESS unset the script starts its own
    session instead of failing to find a cluster."""
    from iresearch_ray.sources.transcripts import write_transcripts

    src = str(tmp_path / "src")
    write_transcripts(src, n_convs=20)
    n_rows = sum(
        pq.read_metadata(os.path.join(src, f)).num_rows
        for f in os.listdir(src)
        if f.endswith(".parquet")
    )
    m = _run_job(["--src", src, "--out", str(tmp_path / "idx"), "--partitions", "2"],
                 ray_address=None)
    assert m["job"] == "build" and m["docs"] == n_rows
