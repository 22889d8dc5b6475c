"""bench.py end to end at the smallest scale factor, in a subprocess that
owns its Ray session (as bench.py always does): the headline run's JSON
contract, and a --scaling run that prints one line and writes no file."""

import hashlib
import json
import os
import subprocess
import sys

from tests.test_dataops import SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERY_KEYS = {
    "build_index", "query_batch", "query_batch_warm", "consolidate",
    "dedup", "minhash", "quality", "emb_topk",
}


def _run_bench(*args):
    env = dict(os.environ, PYTHONPATH=REPO, RAY_GRAFT_CPUS="2", GRAFT_SF_DIR=SF)
    env.pop("RAY_ADDRESS", None)
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "bench.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout.strip().splitlines()


def test_bench_headline_json_contract():
    res = json.loads(_run_bench()[-1])
    assert {"metric", "value", "unit", "queries", "sf", "num_cpus"} <= set(res)
    assert set(res["queries"]) == QUERY_KEYS
    assert res["num_cpus"] == 2 and res["sf"] == SF
    assert res["value"] == round(sum(res["queries"].values()), 3)


def test_bench_scaling_one_line_no_file_written():
    baseline = os.path.join(REPO, "BENCH", "BASELINE.md")

    def digest():
        with open(baseline, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    before = digest()
    lines = [l for l in _run_bench("--scaling") if l.startswith("{")]
    assert len(lines) == 1
    res = json.loads(lines[0])
    assert res["value"] > 0
    assert set(res["queries"]) == {"build_2cpu", "build_8cpu"}
    assert set(res["detail"]["per_leg_cpu"]) == {"2", "8"}
    assert digest() == before
