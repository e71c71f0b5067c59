"""Seeded benchmark inputs, generated into the checkout.

Two kinds of input, each a pure function of its seed:

- ``transcripts``: the program's own synthetic transcripts table and
  its generation-time golden (``lexor_ray.transcripts.transcripts_dir``),
  so a ``GEN_VERSION`` bump changes these inputs;
- ``tables``: TPC-H-like ``customer``, ``orders`` and ``lineitem`` tables
  and an ``events`` stream, with the column names and value domains the
  ``lexor_ray.ops`` operators and their DuckDB oracles expect, and the
  oracles' canonical answers over them (``ops_suite.write_oracles``).

Run as a script it builds one input directory::

    python3 perfbench/inputs.py transcripts <seed> <n_turns> <out_dir>
    python3 perfbench/inputs.py tables <seed> <sf> <out_dir>

``run.py`` calls it in a child process, so neither the generator's nor
DuckDB's memory counts towards the benchmark process's peak RSS. A
finished directory holds a ``_READY`` stamp and is reused by later runs
with the same seed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

READY = "_READY"

#: rows per table at scale factor 1 (the TPC-H ratios)
ROWS_AT_SF1 = {
    "customer": 150_000,
    "supplier": 10_000,
    "part": 200_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,
    "events": 1_000_000,
}
#: distinct event users per event (150 users per 10k events)
USERS_PER_EVENT = 0.015

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_DAY_US = 86_400_000_000


def _ts(base: str, offsets_us: np.ndarray) -> pa.Array:
    start = np.datetime64(base, "us").astype(np.int64)
    return pa.array(start + offsets_us.astype(np.int64), type=pa.timestamp("us"))


def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def make_tables(sf: float, seed: int) -> dict[str, pa.Table]:
    """Every table the benchmark's operators read, at scale ``sf``."""
    rng = np.random.default_rng(seed)
    n = {k: max(1, int(round(v * sf))) for k, v in ROWS_AT_SF1.items()}
    tables: dict[str, pa.Table] = {}
    k = n["customer"]
    tables["customer"] = pa.table(
        {
            "c_custkey": pa.array(np.arange(k), type=pa.int64()),
            "c_name": [f"Customer#{i:09d}" for i in range(k)],
            "c_nationkey": pa.array(rng.integers(0, 25, k), type=pa.int32()),
            "c_acctbal": _money(rng, -999.99, 9999.99, k),
            "c_mktsegment": np.array(_SEGMENTS)[rng.integers(0, 5, k)],
        }
    )
    k = n["orders"]
    tables["orders"] = pa.table(
        {
            "o_orderkey": pa.array(np.arange(k), type=pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n["customer"], k), type=pa.int64()),
            "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, k)],
            "o_totalprice": _money(rng, 1000.0, 500_000.0, k),
            # 1995-01-01 .. 2001-08-01, whole days (the q3/priority
            # filters cut at day boundaries)
            "o_orderdate": _ts("1995-01-01", rng.integers(0, 2405, k) * _DAY_US),
            "o_orderpriority": np.array(_PRIORITIES)[rng.integers(0, 5, k)],
        }
    )
    k = n["lineitem"]
    tables["lineitem"] = pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, n["orders"], k), type=pa.int64()),
            "l_partkey": pa.array(rng.integers(0, n["part"], k), type=pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, n["supplier"], k), type=pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, k), type=pa.int32()),
            "l_quantity": rng.integers(1, 51, k).astype(np.float64),
            "l_extendedprice": _money(rng, 900.0, 105_000.0, k),
            "l_discount": rng.integers(0, 11, k) / 100.0,
            "l_tax": rng.integers(0, 9, k) / 100.0,
            "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, k)],
            "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, k)],
            "l_shipdate": _ts("1995-01-02", rng.integers(0, 2498, k) * _DAY_US),
        }
    )
    k = n["events"]
    users = max(1, int(round(k * USERS_PER_EVENT)))
    # a 30-day stream in event_id order, microsecond timestamps
    offsets = np.sort(rng.integers(0, 30 * _DAY_US, k))
    tables["events"] = pa.table(
        {
            "event_id": pa.array(np.arange(k), type=pa.int64()),
            "ts": _ts("2024-01-01", offsets),
            "user_id": pa.array(rng.integers(0, users, k), type=pa.int64()),
            "event_type": np.array(_EVENT_TYPES)[rng.integers(0, 5, k)],
            "value": np.maximum(0.01, np.round(rng.exponential(50.0, k), 2)),
            "props": [f'{{"k": {v}}}' for v in rng.integers(0, 100, k)],
        }
    )
    return tables


def _build_tables(seed: int, sf: float, out_dir: str) -> None:
    from perfbench import ops_suite

    for name, table in make_tables(sf, seed).items():
        pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))
    ops_suite.write_oracles(out_dir)


def _build_transcripts(seed: int, n_turns: int, out_dir: str) -> None:
    from lexor_ray.transcripts import transcripts_dir

    # transcripts_dir lays out <base>/sf<sf>/{transcripts,golden}
    transcripts_dir(n_turns / 1_000_000, base=out_dir, seed=seed)


def ensure(kind: str, seed: int, size: float, out_dir: str) -> str:
    """Build ``out_dir`` in a child process unless a finished copy is
    there; returns ``out_dir``."""
    stamp = f"{kind} seed={seed} size={size}\n"
    ready = os.path.join(out_dir, READY)
    if os.path.exists(ready):
        with open(ready) as fh:
            if fh.read() == stamp:
                return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), kind, str(seed), repr(size), out_dir],
        check=True,
        timeout=600,
    )
    with open(ready, "w") as fh:
        fh.write(stamp)
    return out_dir


def prune(parent: str, keep: int) -> None:
    """Delete all but the ``keep`` most recently built input dirs."""
    if not os.path.isdir(parent):
        return
    dirs = sorted(
        (os.path.join(parent, d) for d in os.listdir(parent)),
        key=os.path.getmtime,
        reverse=True,
    )
    for d in dirs[keep:]:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    kind, seed, size, out = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    if kind == "tables":
        _build_tables(seed, size, out)
    elif kind == "transcripts":
        _build_transcripts(seed, int(size), out)
    else:
        sys.exit(f"unknown input kind {kind!r}")
