"""The operators of the ``ops`` workload and the DuckDB oracle each one
is checked against.

Operators are named by module path, not looked up through
``__ray_entry__.queries()``, so an edit of that dict cannot change the
workload. The oracle SQL is the program's ``oracle_sql()`` entry of the
same name, frozen here: calling ``oracle_sql()`` would generate seed-42
transcripts under ``/tmp/lexor_ray_data`` and read an absolute test-data
directory (``__ray_entry__.py:29,33,246``), both outside the checkout,
and a frozen oracle cannot drift along with the code it judges. Transcript-backed entries (``conversation_documents``,
``exact_dedup``, ...) are left out for the same hard-coded path.
"""

from __future__ import annotations

import importlib
import os

import numpy as np
import pandas as pd

#: entry name -> (module:function, tables it reads)
OPERATORS = {
    "q1_pricing_summary": ("lexor_ray.ops.relational:q1_pricing_summary", ["lineitem"]),
    "customers_without_orders": (
        "lexor_ray.ops.relational:customers_without_orders",
        ["customer", "orders"],
    ),
    "events_sessionize": ("lexor_ray.ops.relational:events_sessionize", ["events"]),
}

#: the ``ops`` workload: each scale factor with the operators run on its
#: tables. At sf0.3 the scan and aggregation of q1 carry most of its
#: time, while the anti-join and the keyed shuffle of ops/util.py still
#: take as long as at sf0.1: their fixed cost of stages, shuffle and
#: collect dominates.
SUITE = {
    0.3: ["q1_pricing_summary", "customers_without_orders", "events_sessionize"],
}

TABLES = ["customer", "orders", "lineitem", "events"]

ORACLES = {
    "q1_pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 2) AS sum_qty,
               round(sum(l_extendedprice), 2) AS sum_base_price,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
               CAST(count(*) AS BIGINT) AS count_order
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "customers_without_orders": """
        SELECT c_custkey, c_name FROM customer
        WHERE NOT EXISTS (
            SELECT 1 FROM orders
            WHERE o_custkey = c_custkey
              AND o_orderdate >= TIMESTAMP '2001-01-01'
        )
        ORDER BY c_custkey
    """,
    "events_sessionize": """
        WITH lagged AS (
            SELECT user_id, ts, event_type,
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev_ts
            FROM events
        ), marked AS (
            SELECT user_id, ts,
                   CASE WHEN prev_ts IS NULL
                             OR epoch(ts) - epoch(prev_ts) > 600
                        THEN 1 ELSE 0 END AS brk
            FROM lagged
        ), sessions AS (
            SELECT user_id, ts,
                   sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                                  ROWS UNBOUNDED PRECEDING) AS sid
            FROM marked
        )
        SELECT user_id,
               epoch_us(min(ts)) AS session_start,
               epoch_us(max(ts)) AS session_end,
               CAST(count(*) AS BIGINT) AS n_events
        FROM sessions GROUP BY user_id, sid
        ORDER BY user_id, session_start
    """,
}


def resolve(name: str):
    """The operator function for an entry name."""
    module, func = OPERATORS[name][0].split(":")
    return getattr(importlib.import_module(module), func)


def to_pandas(res) -> pd.DataFrame:
    """Collect an operator's result (Dataset, Arrow table or frame)."""
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Order-insensitive canonical form, as ``tools/check_correctness.py``
    builds it: sorted columns, floats rounded to 6 places, timestamps at
    microseconds, integers as int64, lists as tuples, rows sorted."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if df[c].dtype == object:
            df[c] = df[c].map(
                lambda v: tuple(np.asarray(v).tolist())
                if isinstance(v, (list, np.ndarray))
                else v
            )
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def mismatch(got: pd.DataFrame, want: pd.DataFrame) -> str | None:
    """None when two canonical frames agree, else why they differ."""
    if list(got.columns) != list(want.columns):
        return f"columns {list(got.columns)} != {list(want.columns)}"
    if len(got) != len(want):
        return f"rows {len(got)} != {len(want)}"
    try:
        pd.testing.assert_frame_equal(
            got, want, check_dtype=False, check_exact=False, rtol=1e-6, atol=1e-6
        )
    except AssertionError as exc:
        return f"values differ: {str(exc)[:300]}"
    return None


def oracle_path(sf_dir: str, name: str) -> str:
    """Where the table generator leaves the canonical answer of ``name``."""
    return os.path.join(sf_dir, f"oracle-{name}.parquet")


def write_oracles(sf_dir: str) -> None:
    """Store the canonical DuckDB answer of every operator next to the
    tables it reads."""
    for name, frame in oracle_frames(sf_dir, list(OPERATORS)).items():
        frame.to_parquet(oracle_path(sf_dir, name), index=False)


def read_oracles(sf_dir: str, names: list[str]) -> dict[str, pd.DataFrame]:
    return {n: pd.read_parquet(oracle_path(sf_dir, n)) for n in names}


def oracle_frames(sf_dir: str, names: list[str]) -> dict[str, pd.DataFrame]:
    """Canonical DuckDB answers over the parquet tables in ``sf_dir``."""
    import duckdb

    con = duckdb.connect()
    try:
        con.execute("SET threads = 1")
        for t in TABLES:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
            )
        return {n: canon(con.sql(ORACLES[n]).df()) for n in names}
    finally:
        con.close()
