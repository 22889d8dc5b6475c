"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q

Each smoke run starts its own Ray session in a subprocess, as the benchmark
does, at ``--scale tiny``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import inputs as I  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
EXACT_UNITS = ("count", "B", "terms", "segments")


def bench(*args: str, cwd: str = ROOT, timeout: int = 170) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def result(p: subprocess.CompletedProcess) -> dict:
    """The result line, with the detail line before it under "detail"."""
    assert p.returncode == 0, p.stderr[-4000:]
    *_, detail, last = p.stdout.strip().splitlines()
    return {**json.loads(last), **json.loads(detail)}


def test_same_seed_same_inputs(tmp_path):
    a = I.write_conv_range(str(tmp_path / "a" / "p.parquet"), 0, 40, seed=5)
    b = I.write_conv_range(str(tmp_path / "b" / "p.parquet"), 0, 40, seed=5)
    c = I.write_conv_range(str(tmp_path / "c" / "p.parquet"), 0, 40, seed=6)
    assert a["sha256"] == b["sha256"] != c["sha256"]
    t1, f1 = I.curate_table(5, 300, 0.05, 0.05)
    t2, f2 = I.curate_table(5, 300, 0.05, 0.05)
    assert I.table_digest(t1) == I.table_digest(t2) and f1 == f2
    assert I.table_digest(I.curate_table(6, 300, 0.05, 0.05)[0]) != I.table_digest(t1)
    assert I.query_stream(5, 4) == I.query_stream(5, 4) != I.query_stream(6, 4)


def test_curate_table_plants_duplicates():
    tbl, facts = I.curate_table(3, 500, 0.05, 0.05)
    texts = tbl["text"].to_pylist()
    assert facts["rows"] == tbl.num_rows == len(set(texts)) + facts["planted_exact"]
    assert facts["near_pairs"] and all(texts[a] != texts[b] for a, b in facts["near_pairs"])


def test_query_stream_mix():
    ops = I.query_stream(9, 14)
    singles = [p for kind, p in ops if kind == "single"]
    batches = [p for kind, p in ops if kind == "batch"]
    assert len(batches) == 14 and all(len(b) == I.BATCH_QUERIES for b in batches)
    counts = {f: sum(p[0] == f for p in singles) for f in I.FAMILIES}
    assert max(counts.values()) - min(counts.values()) <= 1
    for spec in singles:
        I.to_filter(spec)


@pytest.mark.parametrize("workload", ["ingest", "search"])
def test_smoke(workload):
    r = result(bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--scale", "tiny"))
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    assert all(v["value"] > 0 for v in r["metrics"].values())
    assert all(v["value"] > 0 for v in r["detail"]["curate"].values())


def test_traced_counters_repeat():
    """Same seed, minimum work per phase: identical counters and inputs."""
    runs = [result(bench("--workload", "search", "--seed", "11", "--seconds", "0",
                         "--trace", "1", "--scale", "tiny")) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for r in runs:
        assert r["correct"] is True and r["failed"] == 0
        assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    exact = {k for k, u in want.items() if u in EXACT_UNITS}
    assert exact and all(runs[0]["metrics"][k] == runs[1]["metrics"][k] for k in exact)
    assert runs[0]["attempted"] == runs[1]["attempted"]
    digests = [r["detail"]["facts"]["input_digest"] for r in runs]
    assert digests[0] == digests[1]


def test_every_layer_metric_feeds_an_end_to_end_metric():
    from perfbench.workloads import CURATE_RATES, FEEDS

    reported = {m["name"] for m in SPEC["end_to_end"]} | set(CURATE_RATES)
    assert set(FEEDS) == {m["name"] for m in SPEC["per_layer"]}
    assert all(feeds in reported or feeds.startswith("none") for _layer, feeds, _wl in FEEDS.values())


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=str(tmp_path), timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
