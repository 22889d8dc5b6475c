"""Local stand-in for the driver's correctness gate: run every
__ray_entry__.queries() entry and its oracle_sql() side by side, compare
row-count + schema + order-insensitive values (column-name-sorted)."""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd

# the checkout this script lives in, not whichever one is on the path
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_df(x) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(x, pd.DataFrame):
        return x
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(4)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")

    qs, os_ = E.queries(), E.oracle_sql()
    fails = []
    for name, fn in qs.items():
        try:
            mine = canon(to_df(fn(SF)))
        except Exception as e:
            print(f"[FAIL-run ] {name}: {e!r}")
            fails.append(name)
            continue
        sql = os_.get(name)
        if sql is None:
            print(f"[rows-only] {name}: {len(mine)} rows")
            continue
        try:
            oracle = canon(con.sql(sql).df())
        except Exception as e:
            print(f"[FAIL-sql ] {name}: {e!r}")
            fails.append(name)
            continue
        ok_rows = len(mine) == len(oracle)
        ok_schema = list(mine.columns) == list(oracle.columns)
        ok_vals = ok_rows and ok_schema and mine.equals(oracle)
        tag = "OK" if (ok_rows and ok_schema and ok_vals) else "MISMATCH"
        print(f"[{tag:9s}] {name}: rows {len(mine)}/{len(oracle)} schema {ok_schema} vals {ok_vals}")
        if tag != "OK":
            fails.append(name)
            print("  mine:", mine.head(4).to_dict("records"))
            print("  orac:", oracle.head(4).to_dict("records"))
            if ok_rows and ok_schema:
                neq = ~(mine == oracle).all(axis=1)
                print("  first diffs mine:", mine[neq].head(3).to_dict("records"))
                print("  first diffs orac:", oracle[neq].head(3).to_dict("records"))
    print("FAILURES:", fails or "none")
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    raise SystemExit(main())
