"""Temporal event ops — engine vs independent pandas brute force (the
driver gate additionally checks them against DuckDB SQL oracles)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from iresearch_ray.pipelines import events as ev
from iresearch_ray.pipelines.dataops import bpe_token_stats

US = 1_000_000


@pytest.fixture(scope="module")
def events_tbl():
    rng = np.random.default_rng(7)
    n = 3000
    ts = np.sort(rng.integers(0, 5 * 86400 * 1_000_000, n))
    return pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 25, n).astype(np.int64)),
            "event_type": pa.array(rng.choice(["click", "view", "error"], n)),
            "value": pa.array(np.round(rng.uniform(0, 20, n), 2)),
        }
    )


@pytest.fixture(scope="module")
def many_users_tbl():
    """3,000 users with 1-5 events each in ~20-minute bursts, some repeated
    a day or two later.  Rows are in ts order, so every user's events
    interleave with other users' across the input blocks and a kernel call
    holds many users."""
    rng = np.random.default_rng(11)
    per_user = rng.integers(1, 6, 3_000)
    uid = np.repeat(np.arange(per_user.size), per_user)
    ts = (
        rng.integers(0, 5 * 86400 * US, per_user.size)[uid]
        + rng.integers(0, 3, uid.size) * 86400 * US
        + rng.exponential(20 * 60 * US, uid.size).astype(np.int64)
    )
    order = np.argsort(ts, kind="stable")
    n = uid.size
    return pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts[order], pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(uid[order].astype(np.int64)),
            "event_type": pa.array(rng.choice(["click", "view", "error"], n)),
            "value": pa.array(np.round(rng.uniform(0, 20, n), 2)),
        }
    )


@pytest.fixture(scope="module")
def fixtures(events_tbl, many_users_tbl):
    """(table, blocks): the 25-user table as one block, the 3,000-user
    table as 4 blocks."""
    n = many_users_tbl.num_rows
    step = -(-n // 4)
    blocks = [many_users_tbl.slice(i, step) for i in range(0, n, step)]
    return [(events_tbl, [events_tbl]), (many_users_tbl, blocks)]


def _ds(tbl, _ray):
    import ray.data as rd

    return rd.from_arrow(tbl)


def test_sessionize_vs_brute(fixtures, ray_session):
    for tbl, blocks in fixtures:
        _check_sessionize(tbl, _ds(blocks, ray_session))


def _check_sessionize(events_tbl, ds):
    out = ev.sessionize(ds).to_pandas()
    df = events_tbl.to_pandas()
    df["tus"] = df["ts"].astype("int64")
    exp_rows = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["tus", "event_id"])
        brk = np.concatenate(([True], np.diff(g["tus"].to_numpy()) > ev.SESSION_GAP_US))
        sid = np.cumsum(brk) - 1
        for s in np.unique(sid):
            m = g[sid == s]
            exp_rows.append(
                (uid, int(s), len(m), int(m["tus"].min()), int(m["tus"].max()),
                 round(float(m["value"].sum()), 4))
            )
    exp = pd.DataFrame(
        exp_rows, columns=["user_id", "session_id", "n_events", "start_us", "end_us", "sum_value"]
    ).sort_values(["user_id", "session_id"]).reset_index(drop=True)
    got = out.sort_values(["user_id", "session_id"]).reset_index(drop=True).astype(exp.dtypes)
    pd.testing.assert_frame_equal(got, exp)


def test_window_agg_vs_brute(events_tbl, ray_session):
    out = ev.window_agg(_ds(events_tbl, ray_session), window_secs=3600).to_pandas()
    df = events_tbl.to_pandas()
    df["w"] = (df["ts"].astype("int64") // (3600 * 1_000_000)) * (3600 * 1_000_000)
    exp = (
        df.groupby(["w", "event_type"])["value"]
        .agg(["count", "sum"])
        .reset_index()
        .rename(columns={"w": "window_start_us", "count": "n_events", "sum": "sum_value"})
    )
    exp["sum_value"] = exp["sum_value"].round(4)
    exp["n_events"] = exp["n_events"].astype("int64")
    got = out.sort_values(["window_start_us", "event_type"]).reset_index(drop=True)
    exp = exp.sort_values(["window_start_us", "event_type"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns].astype(exp.dtypes), exp)


def test_type_stats_partial_combine(events_tbl, ray_session):
    out = ev.event_type_stats(_ds(events_tbl, ray_session)).to_pandas()
    df = events_tbl.to_pandas()
    exp = df.groupby("event_type")["value"].agg(["count", "sum"]).reset_index()
    got = out.set_index("event_type").sort_index()
    for _, r in exp.iterrows():
        assert got.loc[r["event_type"], "n_events"] == r["count"]
        assert abs(got.loc[r["event_type"], "sum_value"] - round(r["sum"], 4)) < 1e-6


def test_bpe_token_stats(ray_session):
    import re

    rows = [
        {"doc_id": 0, "text": "hello world42 a-b!  c3po"},
        {"doc_id": 1, "text": ""},
        {"doc_id": 2, "text": "... 123abc"},
    ]
    tbl = pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
        "text": pa.array([r["text"] for r in rows]),
    })
    out = bpe_token_stats(_ds(tbl, ray_session)).to_pandas().set_index("doc_id")
    from iresearch_ray.pipelines.dataops import BPE_PATTERN

    for r in rows:
        assert out.loc[r["doc_id"], "n_bpe_tokens"] == len(re.findall(BPE_PATTERN, r["text"]))


def test_props_k_stats(ray_session):
    import pyarrow as pa

    rows = [
        {"event_type": "a", "props": '{"k": 5}'},
        {"event_type": "a", "props": '{"k": -2}'},
        {"event_type": "a", "props": '{"other": 1}'},
        {"event_type": "b", "props": None},
        {"event_type": "b", "props": '{"k": 100}'},
    ]
    tbl = pa.Table.from_pylist(rows)
    out = ev.props_k_stats(_ds(tbl, ray_session)).to_pandas().set_index("event_type")
    assert out.loc["a", "n_with_key"] == 2 and out.loc["a", "sum_k"] == 3
    assert out.loc["a", "n_missing"] == 1
    assert out.loc["b", "n_with_key"] == 1 and out.loc["b", "sum_k"] == 100
    assert out.loc["b", "n_missing"] == 1


def test_asof_join_vs_brute(fixtures, ray_session):
    for tbl, blocks in fixtures:
        _check_asof_join(tbl, _ds(blocks, ray_session))


def _check_asof_join(events_tbl, ds):
    out = (
        ev.asof_join(ds, "click", "view")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    df = events_tbl.to_pandas()
    df["tus"] = df["ts"].astype("int64")
    l = df[df.event_type == "click"]
    r = df[df.event_type == "view"]
    rows = []
    for _, lv in l.iterrows():
        c = r[(r.user_id == lv.user_id) & (r.tus <= lv.tus)]
        if len(c):
            # pinned tie order: max ts then max event_id
            w = c.sort_values(["tus", "event_id"]).iloc[-1]
            rows.append((lv.event_id, lv.user_id, lv.tus, w.event_id, w.tus))
        else:
            rows.append((lv.event_id, lv.user_id, lv.tus, -1, -1))
    exp = (
        pd.DataFrame(rows, columns=["event_id", "user_id", "ts_us", "right_event_id", "right_ts_us"])
        .astype("int64")
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp)


def test_range_join_count_vs_brute(fixtures, ray_session):
    for tbl, blocks in fixtures:
        _check_range_join_count(tbl, _ds(blocks, ray_session))


def _check_range_join_count(events_tbl, ds):
    w_us = 600 * 1_000_000
    out = (
        ev.range_join_count(ds, "click", "view", 600)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    df = events_tbl.to_pandas()
    df["tus"] = df["ts"].astype("int64")
    l = df[df.event_type == "click"]
    r = df[df.event_type == "view"]
    rows = []
    for _, lv in l.iterrows():
        n = len(r[(r.user_id == lv.user_id) & (r.tus <= lv.tus) & (r.tus > lv.tus - w_us)])
        rows.append((lv.event_id, lv.user_id, lv.tus, n))
    exp = (
        pd.DataFrame(rows, columns=["event_id", "user_id", "ts_us", "n_right"])
        .astype("int64")
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp)


def test_funnel_first_touch_semantics(ray_session):
    """Strictly-after chaining: out-of-order steps don't count, ties on ts
    don't advance, and the chain anchors on the FIRST qualifying
    occurrence of each step (first-touch), not any later one."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from iresearch_ray.pipelines.events import funnel

    T = lambda s: pd.Timestamp(f"2025-01-01 00:00:{s:02d}")
    rows = [
        # u1: clean view(1) -> click(2) -> purchase(3): reaches 3
        (1, "view", 1), (1, "click", 2), (1, "purchase", 3),
        # u2: click BEFORE view, purchase after: view(2) -> purchase(5) but
        # no click after the view => reaches 1
        (2, "click", 1), (2, "view", 2), (2, "purchase", 5),
        # u3: tie between view and click => click does NOT advance; a later
        # click(4) does; purchase tie with that click(4) doesn't => reaches 2
        (3, "view", 3), (3, "click", 3), (3, "click", 4), (3, "purchase", 4),
        # u4: first view(1); an early purchase(2) then click(5): purchase
        # must be strictly after the click => reaches 2
        (4, "view", 1), (4, "purchase", 2), (4, "click", 5),
        # u5: only noise
        (5, "signup", 1), (5, "error", 2),
    ]
    tbl = pa.table(
        {
            "user_id": [r[0] for r in rows],
            "event_type": [r[1] for r in rows],
            "ts": [T(r[2]) for r in rows],
        }
    )
    out = funnel(rd.from_arrow(tbl), ("view", "click", "purchase")).to_pandas()
    assert out["step"].tolist() == [1, 2, 3]
    assert out["event_type"].tolist() == ["view", "click", "purchase"]
    # reached>=1: u1,u2,u3,u4; >=2: u1,u3,u4; >=3: u1
    assert out["n_users"].tolist() == [4, 3, 1]


def test_retention_cohorts_vs_brute(fixtures, ray_session):
    for tbl, blocks in fixtures:
        _check_retention_cohorts(tbl, _ds(blocks, ray_session))


def _check_retention_cohorts(events_tbl, ds):
    # daily periods so the 5-day fixtures span several offsets
    out = (
        ev.retention_cohorts(ds, period_secs=86400)
        .to_pandas()
        .sort_values(["cohort_period", "period_offset"])
        .reset_index(drop=True)
    )
    df = events_tbl.to_pandas()
    df["period"] = df["ts"].astype("int64") // (86400 * 1_000_000)
    first = df.groupby("user_id")["period"].min().rename("cohort")
    j = df.merge(first, on="user_id")
    cells = (
        j.assign(period_offset=j["period"] - j["cohort"])
        .groupby(["cohort", "period_offset"])["user_id"]
        .nunique()
        .reset_index()
        .rename(columns={"cohort": "cohort_period", "user_id": "n_users"})
        .sort_values(["cohort_period", "period_offset"])
        .reset_index(drop=True)
    )
    assert out["cohort_period"].tolist() == cells["cohort_period"].tolist()
    assert out["period_offset"].tolist() == cells["period_offset"].tolist()
    assert out["n_users"].tolist() == cells["n_users"].tolist()
    # offset-0 cell equals cohort size; retention never exceeds it
    m = out.pivot(index="cohort_period", columns="period_offset", values="n_users")
    base = m[0]
    assert ((m.le(base, axis=0)) | m.isna()).all().all()


def test_funnel_vs_brute(fixtures, ray_session):
    steps = ("view", "click", "error")
    for tbl, blocks in fixtures:
        out = ev.funnel(_ds(blocks, ray_session), steps).to_pandas()
        reached = []
        for _, g in tbl.to_pandas().sort_values("ts", kind="mergesort").groupby("user_id"):
            n, cur = 0, None
            for step in steps:
                m = g[(g.event_type == step) & ((g.ts > cur) if cur is not None else True)]
                if m.empty:
                    break
                cur, n = m.ts.iloc[0], n + 1
            reached.append(n)
        reached = np.array(reached)
        assert out["n_users"].tolist() == [int((reached >= i).sum()) for i in (1, 2, 3)]


def test_funnel_of_empty_input(events_tbl, ray_session):
    """Every step reaches zero users, as the DuckDB oracle of the
    ``ev_funnel`` driver query says over the same empty table (the 0-row
    histogram frame has no columns to read)."""
    import duckdb

    from __ray_entry__ import oracle_sql

    events = events_tbl.schema.empty_table()
    out = ev.funnel(_ds(events, ray_session), ("view", "click", "purchase")).to_pandas()
    con = duckdb.connect()
    con.register("events", events)
    want = con.execute(oracle_sql()["ev_funnel"]).df().sort_values("step")
    assert out["step"].tolist() == want["step"].tolist() == [1, 2, 3]
    assert out["event_type"].tolist() == want["event_type"].tolist()
    assert out["n_users"].tolist() == want["n_users"].tolist() == [0, 0, 0]


def test_empty_input_keeps_output_schema(events_tbl, ray_session):
    import ray.data as rd

    for op in (ev.sessionize, ev.asof_join):
        full = op(rd.from_arrow(events_tbl)).materialize()
        empty = op(rd.from_arrow(events_tbl.schema.empty_table())).materialize()
        assert empty.count() == 0
        assert empty.schema().base_schema == full.schema().base_schema
