"""Local replica of the driver's correctness gate: run every
``queries()`` entry at a given sf and compare with ``oracle_sql()``
via DuckDB (row count, schema names, order-insensitive values). From
sf0.05 on, ``minhash_dedup`` and ``dedup_clusters`` are compared with
the exact numpy all-pairs replay of ``tools/verify_pairs.py`` instead
of their quadratic SQL.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
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


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # point the oracle SQL's transcripts/golden paths at this sf
    # (must be set BEFORE __ray_entry__ is imported)
    import re as _re

    m = _re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    if m:
        os.environ["LEXOR_RAY_ORACLE_SF"] = m.group(1)
        sf_val = float(m.group(1))
    else:
        # no 'sfN' in the dir name (e.g. a renamed copy). Two distinct
        # scales must be resolved (r5 review):
        # - ORACLE_SF must equal transcripts.sf_from_dir's resolution
        #   (0.01 fallback) — query side and oracle side then read the
        #   SAME generated transcripts, whatever the table scale;
        # - the quadratic-oracle choice keys off the ACTUAL document
        #   count (generator: 50k docs at sf=1), not the fallback, so
        #   a renamed sf0.1 copy cannot trigger the ~15-min all-pairs
        #   SQL.
        from lexor_ray.transcripts import sf_from_dir as _sfd

        os.environ["LEXOR_RAY_ORACLE_SF"] = repr(_sfd(sf_dir))
        import pyarrow.parquet as _pq

        n_docs = _pq.ParquetFile(
            os.path.join(sf_dir, "documents.parquet")
        ).metadata.num_rows
        sf_val = n_docs / 50_000.0
        print(
            f"WARNING: no sfN pattern in {sf_dir!r}; transcripts "
            f"oracle sf={_sfd(sf_dir)}, table scale inferred "
            f"sf≈{sf_val} from {n_docs} document rows"
        )
    import ray

    ray.init(
        address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR"
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry

    con = duckdb.connect()
    for tname in TABLES:
        con.execute(
            f"CREATE VIEW {tname} AS SELECT * FROM read_parquet('{sf_dir}/{tname}.parquet')"
        )
    qs, oracles = entry.queries(), entry.oracle_sql()

    unknown = only - set(qs)
    if unknown:
        # a typo'd query name must not yield a vacuous 'ALL OK'
        # (r4 review: unmatched names were silently dropped)
        print(f"ERROR: unknown query name(s): {sorted(unknown)}")
        return 2
    names = [name for name in qs if not only or name in only]
    # the all-pairs DuckDB oracles of the two quadratic queries take
    # ~15 min at sf0.1; from sf0.05 on (sf_val resolved
    # above) their oracle is the exact numpy all-pairs replay of
    # tools/verify_pairs.py, at the queries' shared default threshold
    exact = {}
    if sf_val >= 0.05 and {"minhash_dedup", "dedup_clusters"} & set(names):
        import inspect

        from verify_pairs import exact_clusters, exact_pairs

        (t,) = {  # one threshold: the clusters are the pairs' components
            inspect.signature(qs[n]).parameters["threshold"].default
            for n in ("minhash_dedup", "dedup_clusters")
        }
        pairs = exact_pairs(sf_dir, t)
        exact = {"minhash_dedup": pairs, "dedup_clusters": exact_clusters(pairs)}

    def run_one(name: str) -> tuple[str, str, bool]:
        t0 = time.time()
        try:
            got = canon(to_pandas(qs[name](sf_dir)))
        except Exception as exc:  # noqa: BLE001
            return name, f"FAIL {name}: ray error {exc!r}", False
        dt = time.time() - t0
        if name not in oracles:
            return name, f"ok   {name}: rows={len(got)} (rows-only, {dt:.1f}s)", True
        try:
            # a cursor per worker: duckdb connections are not safe for
            # concurrent queries, cursors share the view catalog
            want = canon(
                exact[name] if name in exact else con.cursor().sql(oracles[name]).df()
            )
        except Exception as exc:  # noqa: BLE001
            return name, f"FAIL {name}: oracle error {exc!r}", False
        if list(got.columns) != list(want.columns):
            return (
                name,
                f"FAIL {name}: columns {list(got.columns)} != {list(want.columns)}",
                False,
            )
        if len(got) != len(want):
            return name, f"FAIL {name}: rows {len(got)} != {len(want)}", False
        try:
            pd.testing.assert_frame_equal(
                got, want, check_dtype=False, check_exact=False, rtol=1e-6, atol=1e-6
            )
        except AssertionError as exc:
            return name, f"FAIL {name}: values differ\n{str(exc)[:500]}", False
        return name, f"ok   {name}: rows={len(got)} match ({dt:.1f}s)", True

    # overlap query execution (r3 verdict item 8, the soak's
    # max_in_flight pattern): each query pays ~0.4–1 s of fixed
    # per-pipeline startup that a serial sweep cannot hide; each
    # Dataset has its own streaming executor, so N queries in flight
    # overlap their startup/collect tails. Results print in query
    # order regardless of completion order.
    workers = int(os.environ.get("GATE_WORKERS", "6"))
    failed = []

    def emit(res: tuple[str, str, bool]) -> None:
        name, line, ok = res
        print(line, flush=True)
        if not ok:
            failed.append(name)

    if workers <= 1 or len(names) <= 1:
        for n in names:
            emit(run_one(n))
    else:
        from concurrent.futures import ThreadPoolExecutor

        from lexor_ray.pipeline import ensure_fsspec_http_probe

        # the extract queries write/read transcripts through Ray's
        # write path, whose fsspec http probe races under threads when
        # aiohttp is absent (see pipeline.ensure_fsspec_http_probe)
        ensure_fsspec_http_probe()
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futs = [ex.submit(run_one, n) for n in names]
            # stream the ORDERED PREFIX as it completes: a hung query
            # leaves every earlier line printed (the serial loop's
            # diagnostic property), instead of buffering everything
            # behind one list() barrier (r4 review)
            for f in futs:
                emit(f.result())
    ray.shutdown()
    if failed:
        print("FAILED:", failed)
        return 1
    print("ALL OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
