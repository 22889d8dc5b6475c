"""Temporal event-table operators (task brief: windowed aggregates /
sessionization — operators the reference lacks, expressed Ray-Data-first
per SURVEY §2 custom-operator guidance: map_batches narrow stages + ONE
keyed exchange each).

Input: the ``events`` table (event_id, ts, user_id, event_type, value,
props).  All outputs use epoch-microsecond int64 timestamps so the DuckDB
oracles compare exactly (``epoch_us(ts)``).

Scale notes
-----------
- ``event_type_stats``: classic map-side PARTIAL aggregation — each batch
  collapses to ≤ |event_type| rows before the shuffle, so the exchange
  volume is O(batches × types), never O(rows).  This is the pattern every
  100 TB aggregate should take (SURVEY §4.1: pre-aggregate inside
  map_batches before a groupby).
- ``window_agg``: tumbling windows are assigned narrowly (integer division
  on epoch micros), then the same partial-combine; the (window, type)
  finish is one ``shard_groups`` exchange.
- Per-user ops (``sessionize``, ``asof_join``, ``range_join_count``,
  ``funnel``, ``retention_cohorts``): ONE user-keyed ``shard_groups``
  exchange each.  A kernel call holds every event of each of its users —
  many users per call, ~1/SHARDS of the exchange plus whatever one user
  brings — and reduces them with one sort by (user, ...) and vectorized
  run arithmetic, never a per-user Python call.  One user's events must
  fit one call; a pathological single-user corpus would need time-sliced
  salting + session stitching.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from iresearch_ray.pipelines.dataops import run_starts, round_half_away, shard_groups

US = 1_000_000
SESSION_GAP_US = 30 * 60 * US  # pinned: a >30 min gap starts a new session


def _int64s(*names: str) -> list[tuple[str, pa.DataType]]:
    return [(n, pa.int64()) for n in names]


# per-user op output schemas (a shard with no output, and an empty input,
# still yield these types)
SESSION_SCHEMA = pa.schema(
    _int64s("user_id", "session_id", "n_events", "start_us", "end_us")
    + [("sum_value", pa.float64())]
)
ASOF_SCHEMA = pa.schema(_int64s("event_id", "user_id", "ts_us", "right_event_id", "right_ts_us"))
RANGE_COUNT_SCHEMA = pa.schema(_int64s("event_id", "user_id", "ts_us", "n_right"))


def _epoch_us(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        # fail fast: a null ts would silently become float64 NaN (breaking
        # the int64 epoch contract, NaN window groups, and merged sessions)
        raise ValueError("events.ts contains nulls — filter them before temporal ops")
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


# ---------------------------------------------------------------------------
# per-type stats (partial combine → tiny groupby)
# ---------------------------------------------------------------------------


def _partial_type_stats(b: pa.Table) -> pa.Table:
    # count mode="all": n_events must be count(*) like the DuckDB oracle —
    # the default "only_valid" would drop null-value events from the count
    # (and from the avg denominator)
    g = pa.TableGroupBy(b.select(["event_type", "value"]), "event_type").aggregate(
        [("value", "count", pc.CountOptions(mode="all")), ("value", "sum")]
    )
    return pa.table(
        {
            "event_type": g["event_type"],
            "n": g["value_count"].cast(pa.int64()),
            # all-null partials sum to null — pin 0 so finish() never
            # float()s a None (counts track non-null values)
            "sum_value": pc.fill_null(g["value_sum"], 0.0),
        }
    )


def event_type_stats(ds):
    """event_type → (n_events, sum_value, avg_value).  Batch-local partial
    aggregation, then one tiny keyed reduce."""

    def finish(g: pa.Table) -> pa.Table:
        n = int(pc.sum(g["n"]).as_py())
        s = float(pc.sum(g["sum_value"]).as_py() or 0.0)
        avg = s / n if n else 0.0
        return pa.table(
            {
                "event_type": g["event_type"].slice(0, 1),
                "n_events": pa.array([n], pa.int64()),
                "sum_value": pa.array([float(round_half_away(s, 4))], pa.float64()),
                "avg_value": pa.array([float(round_half_away(avg, 4))], pa.float64()),
            }
        )

    return (
        ds.select_columns(["event_type", "value"])
        .map_batches(_partial_type_stats, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(finish, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# tumbling-window aggregate
# ---------------------------------------------------------------------------


def window_agg(ds, window_secs: int = 600):
    """Tumbling-window (window_start_us, event_type) → (n_events,
    sum_value).  Window assignment is a narrow integer division; the
    (window, type)-keyed exchange carries batch-local partials."""
    w_us = window_secs * US

    ds = ds.select_columns(["ts", "event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        win = (_epoch_us(b["ts"]) // w_us) * w_us
        t = pa.table(
            {
                "window_start_us": pa.array(win),
                "event_type": b["event_type"],
                "value": b["value"],
            }
        )
        # count(*) semantics (mode="all") to match the oracle on null values
        g = pa.TableGroupBy(t, ["window_start_us", "event_type"]).aggregate(
            [("value", "count", pc.CountOptions(mode="all")), ("value", "sum")]
        )
        return pa.table(
            {
                "window_start_us": g["window_start_us"],
                "event_type": g["event_type"],
                "n": g["value_count"].cast(pa.int64()),
                "sum_value": pc.fill_null(g["value_sum"], 0.0),
            }
        )

    def finish(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("window_start_us", "ascending"), ("event_type", "ascending")]
        )
        g = g.take(order)
        win = g["window_start_us"].to_numpy(zero_copy_only=False)
        typ = g["event_type"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(run_starts(win, typ))
        n = np.add.reduceat(g["n"].to_numpy(zero_copy_only=False), starts)
        sv = np.add.reduceat(g["sum_value"].to_numpy(zero_copy_only=False), starts)
        return pa.table(
            {
                "window_start_us": pa.array(win[starts], pa.int64()),
                "event_type": g["event_type"].take(pa.array(starts, pa.int64())),
                "n_events": pa.array(n, pa.int64()),
                "sum_value": pa.array(round_half_away(sv, 4), pa.float64()),
            }
        )

    return shard_groups(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["window_start_us", "event_type"],
        finish,
    )


# ---------------------------------------------------------------------------
# semi-structured props extraction
# ---------------------------------------------------------------------------


def props_k_stats(ds, key: str = "k"):
    """Extract integer ``key`` from the JSON ``props`` column with ONE RE2
    kernel per batch (pc.extract_regex — no per-row json.loads) and
    aggregate per event_type with the same partial-combine pattern.
    Rows whose props lack the key are counted separately (n_missing)."""
    import re as _re

    pattern = rf'"{_re.escape(key)}":\s*(?P<v>-?\d+)'

    def partial(b: pa.Table) -> pa.Table:
        ex = pc.extract_regex(pc.fill_null(b["props"], ""), pattern)
        # struct_field propagates the no-match nulls (works on chunked too)
        vals = pc.cast(pc.struct_field(ex, "v"), pa.int64())
        t = pa.table(
            {
                "event_type": b["event_type"],
                "v": vals,
                "miss": pc.cast(pc.is_null(vals), pa.int64()),
            }
        )
        g = pa.TableGroupBy(t, "event_type").aggregate(
            [("v", "count"), ("v", "sum"), ("miss", "sum")]
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "n": g["v_count"].cast(pa.int64()),
                "sum_v": pc.fill_null(g["v_sum"], 0).cast(pa.int64()),
                "n_missing": g["miss_sum"].cast(pa.int64()),
            }
        )

    def finish(g: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": g["event_type"].slice(0, 1),
                "n_with_key": pa.array([int(pc.sum(g["n"]).as_py())], pa.int64()),
                "sum_k": pa.array([int(pc.sum(g["sum_v"]).as_py())], pa.int64()),
                "n_missing": pa.array([int(pc.sum(g["n_missing"]).as_py())], pa.int64()),
            }
        )

    return (
        ds.select_columns(["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(finish, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# sessionization
# ---------------------------------------------------------------------------


def sessionize(ds, gap_us: int = SESSION_GAP_US):
    """Per-user session split on inter-event gaps > gap_us (pinned 30 min).
    ONE user-keyed exchange; sessions numbered 0.. per user in (ts,
    event_id) order.  Output per session: user_id, session_id, n_events,
    start_us, end_us, sum_value."""

    def sessions(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _epoch_us(g["ts"])
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        val = g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, val = uid[order], ts[order], val[order]
        new_user = run_starts(uid)
        brk = new_user.copy()
        brk[1:] |= np.diff(ts) > gap_us
        starts = np.flatnonzero(brk)
        # session ids restart at 0 for every user
        sid = np.arange(starts.size) - np.maximum.accumulate(
            np.where(new_user[starts], np.arange(starts.size), 0)
        )
        ends = np.append(starts[1:], ts.size)[: starts.size] - 1
        return pa.table(
            {
                "user_id": uid[starts],
                "session_id": sid,
                "n_events": ends + 1 - starts,
                "start_us": ts[starts],
                "end_us": ts[ends],
                "sum_value": round_half_away(np.add.reduceat(val, starts), 4),
            },
            schema=SESSION_SCHEMA,
        )

    return shard_groups(
        ds.select_columns(["user_id", "event_id", "ts", "value"]),
        "user_id",
        sessions,
        SESSION_SCHEMA,
    )


# ---------------------------------------------------------------------------
# as-of / range joins (per-user co-located merges — SURVEY §2 custom-operator
# path (a): map_batches + a keyed exchange, no all-pairs work)
# ---------------------------------------------------------------------------
#
# Both ops key ONE exchange by user_id and answer every left row with
# vectorized (user, ts) rank probes into the sorted right rows of its kernel
# call, so the exchange volume is O(events) and per-call work is
# O(n log n) — the shape an as-of join must take at 100 TB (a sort-merge
# against a co-partitioned right side; never a broadcast of the full right
# table, never a per-row probe loop).


def _left_right(g: pa.Table, types: tuple[str, str]):
    """Split a kernel call's events into (left, right) by type, each sorted
    by (user, ts, event_id) — the deterministic tie order both ops and
    their SQL oracles pin.  Returns ((uid, ts, eid), (uid, ts, eid))."""
    uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = _epoch_us(g["ts"])
    eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    typ = g["event_type"].to_numpy(zero_copy_only=False)
    out = []
    for t in types:
        m = np.flatnonzero(typ == t)
        order = m[np.lexsort((eid[m], ts[m], uid[m]))]
        out.append((uid[order], ts[order], eid[order]))
    return out


def _n_le(r_uid, r_ts, q_uid, q_ts) -> np.ndarray:
    """Per query, the number of right rows with (user, ts) <= (q_uid, q_ts)
    in (user, ts) order — one merged sort, right rows first on ties."""
    uid = np.concatenate((r_uid, q_uid))
    ts = np.concatenate((r_ts, q_ts))
    is_q = np.concatenate((np.zeros(r_uid.size, np.int8), np.ones(q_uid.size, np.int8)))
    order = np.lexsort((is_q, ts, uid))
    q = is_q[order] == 1
    out = np.empty(q_uid.size, np.int64)
    out[order[q] - r_uid.size] = np.cumsum(~q)[q]
    return out


def asof_join(ds, left_type: str = "click", right_type: str = "view"):
    """For every ``left_type`` event, the most recent ``right_type`` event of
    the same user with right.ts <= left.ts (ties: max ts, then max event_id —
    a pinned total order, so the output is hash-comparable to a window-rank
    SQL oracle).  Unmatched left rows get right columns pinned to -1 (a LEFT
    as-of; -1 instead of null keeps the column int64 through to_pandas on
    BOTH the engine and oracle sides).

    Output: event_id, user_id, ts_us, right_event_id, right_ts_us.
    """

    def asof(g: pa.Table) -> pa.Table:
        (luid, lts, leid), (ruid, rts, reid) = _left_right(g, (left_type, right_type))
        # right rows are sorted by (user, ts, event_id), so the last one at
        # or before (user, ts) IS the pinned (max ts, max event_id) winner
        # when it belongs to the same user
        pos = _n_le(ruid, rts, luid, lts) - 1
        hit = pos >= 0
        hit[hit] = ruid[pos[hit]] == luid[hit]
        pos[~hit] = -1  # indexes the -1 pad appended below
        return pa.table(
            {
                "event_id": leid,
                "user_id": luid,
                "ts_us": lts,
                "right_event_id": np.append(reid, -1)[pos],
                "right_ts_us": np.append(rts, -1)[pos],
            },
            schema=ASOF_SCHEMA,
        )

    return shard_groups(
        ds.select_columns(["user_id", "event_id", "ts", "event_type"]),
        "user_id",
        asof,
        ASOF_SCHEMA,
    )


def range_join_count(
    ds, left_type: str = "click", right_type: str = "view", window_secs: int = 600
):
    """For every ``left_type`` event, the COUNT of same-user ``right_type``
    events in the half-open window (left.ts - window, left.ts] — a range
    join reduced to two (user, ts) rank probes per left row.

    Output: event_id, user_id, ts_us, n_right.
    """
    w_us = window_secs * US

    def window_counts(g: pa.Table) -> pa.Table:
        (luid, lts, leid), (ruid, rts, _reid) = _left_right(g, (left_type, right_type))
        n = _n_le(ruid, rts, luid, lts) - _n_le(ruid, rts, luid, lts - w_us)
        return pa.table(
            {"event_id": leid, "user_id": luid, "ts_us": lts, "n_right": n},
            schema=RANGE_COUNT_SCHEMA,
        )

    return shard_groups(
        ds.select_columns(["user_id", "event_id", "ts", "event_type"]),
        "user_id",
        window_counts,
        RANGE_COUNT_SCHEMA,
    )


# ---------------------------------------------------------------------------
# funnel analysis (ordered first-touch step sequence per user)
# ---------------------------------------------------------------------------


def funnel(ds, steps: tuple[str, ...], user_col: str = "user_id"):
    """First-touch funnel: for each user, step i counts iff an event of
    ``steps[i]`` occurs STRICTLY AFTER the user's counted occurrence of
    step i-1 (the classic product-analytics funnel; ties on ts do not
    advance).  Returns one row per step: (step, event_type, n_users).

    Scale shape: the read is pruned to (user, type, ts) and filtered to
    the step types BEFORE the shuffle, then ONE user-keyed exchange
    co-locates each user's step-event history; each kernel call runs a
    len(steps)-iteration numpy chain over all of its users at once and
    returns its histogram of ``steps_reached`` — the driver sums
    len(steps) integers per call, never user rows."""
    step_list = list(steps)
    sset = pa.array(step_list, pa.string())
    never = np.iinfo(np.int64).max

    def prune(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["event_type"], value_set=sset))
        return pa.table({user_col: t[user_col], "event_type": t["event_type"], "ts": t["ts"]})

    def reached_hist(g: pa.Table) -> pa.Table:
        users, uidx = np.unique(
            g[user_col].to_numpy(zero_copy_only=False), return_inverse=True
        )
        # a null ts sorts last and never comes strictly after anything
        ts_col = g["ts"].cast(pa.int64())
        ts = pc.fill_null(ts_col, never).to_numpy(zero_copy_only=False)
        valid = pc.is_valid(ts_col).to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        reached = np.zeros(users.size, np.int64)
        cur = None  # per user: ts of the counted occurrence of the last step
        for i, step in enumerate(step_list):
            m = et == step
            if cur is not None:
                m &= valid & (ts > cur[uidx])
            nxt = np.full(users.size, never, np.int64)
            np.minimum.at(nxt, uidx[m], ts[m])
            got = np.zeros(users.size, bool)
            got[uidx[m]] = True
            got &= reached == i
            reached[got] += 1
            cur = np.where(got, nxt, never)
        return pa.table(
            {
                "step": np.arange(len(step_list) + 1),
                "n": np.bincount(reached, minlength=len(step_list) + 1),
            },
            schema=hist_schema,
        )

    hist_schema = pa.schema(_int64s("step", "n"))
    hist = shard_groups(
        ds.map_batches(prune, batch_format="pyarrow"), user_col, reached_hist, hist_schema
    ).to_pandas()
    # n_users at step i = users with steps_reached >= i (suffix sum); a
    # 0-row histogram (empty input) converts to a frame without columns
    total = np.zeros(len(step_list) + 1, dtype=np.int64)
    if not hist.empty:
        np.add.at(total, hist["step"].to_numpy(np.int64), hist["n"].to_numpy(np.int64))
    suffix = np.cumsum(total[::-1])[::-1]
    return pa.table(
        {
            "step": pa.array(np.arange(1, len(step_list) + 1)),
            "event_type": pa.array(step_list, pa.string()),
            "n_users": pa.array(suffix[1:].astype(np.int64)),
        }
    )


def retention_cohorts(ds, period_secs: int = 604_800, user_col: str = "user_id"):
    """Cohort retention matrix: cohort(user) = the period (floor of epoch
    microseconds / period) of the user's FIRST event; for every (cohort,
    offset) cell, n_users = users from that cohort active (>= 1 event) in
    cohort+offset.  Offset 0 is the cohort size itself.

    Scale shape: the read prunes to (user, ts); each batch distinct-compresses
    to (user, period) rows (map-side combine — at most users x periods rows
    leave the map side, not the event stream); ONE user-keyed exchange
    computes cohort = min(period) per user and emits each user's distinct
    offsets; a tiny (cohort, offset)-keyed count finishes.  No driver-side
    user state."""

    period_us = int(period_secs) * 1_000_000

    def prune(b: pa.Table) -> pa.Table:
        per = _epoch_us(b["ts"]) // period_us
        t = pa.table({user_col: b[user_col], "period": pa.array(per.astype(np.int64))})
        return t.group_by([user_col, "period"]).aggregate([])

    def offsets(g: pa.Table) -> pa.Table:
        uid = g[user_col].to_numpy(zero_copy_only=False)
        per = g["period"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((per, uid))
        uid, per = uid[order], per[order]
        d = run_starts(uid, per)
        uid, per = uid[d], per[d]
        new_user = run_starts(uid)
        # the first (smallest) period of each user's run is its cohort
        cohort = per[np.maximum.accumulate(np.where(new_user, np.arange(per.size), 0))]
        return pa.table(
            {
                "cohort_period": pa.array(cohort, pa.int64()),
                "period_offset": pa.array(per - cohort, pa.int64()),
            }
        )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort_period": b["cohort_period"],
                "period_offset": b["period_offset"],
                "n_users": b["count()"].cast(pa.int64()),
            }
        )

    return (
        shard_groups(ds.map_batches(prune, batch_format="pyarrow"), user_col, offsets)
        .groupby(["cohort_period", "period_offset"])
        .count()
        .map_batches(rename, batch_format="pyarrow")
    )
