"""Shared helpers for the dataset operators.

Scale-first conventions used across ``lexor_ray.ops``:

- **Prune at the read**: every reader passes ``columns=[...]``.
- **Reads fuse into the first map**: every operator read goes through
  ``read_table``, one read task per parquet file in batches sized to
  ``target_max_block_size``, so Ray fuses it with the caller's first
  ``map_batches``; ``fold_blocks`` combines on one partition per
  cluster CPU, at most 16 (``coalesce``).
- **Partial aggregation**: grouped aggregates combine inside
  ``map_batches`` (vectorized ``pyarrow.Table.group_by`` per batch)
  before the wide ``groupby`` — the shuffle then moves one row per
  (key, batch), not one row per input row.
- **Broadcast small sides**: dimension tables go through ``ray.put``
  once and are read inside each task; never a shuffle join for a
  small side.
- **One keyed shuffle**: ``coarse_apply`` is the only place that tags
  rows with a hash of their keys and sorts on it; ``coarse_dedup``,
  ``bucketed_join``, ``heavy_keys`` and ``fold_keyed`` are its
  callers, so a shuffle strategy change lands in one function. Its
  output is typed by the caller's ``pa.Schema``, and a driver collect
  of a keyed output goes through ``collect``.
- **One bounded fold**: a reassociative combine over a small, fixed
  key domain (flag pairs, query ids, k clusters, one global row)
  goes through ``fold_blocks`` (a ``combine`` per ``coalesce`` block,
  then the only ``repartition(1)`` in the package); everything else
  goes through ``coarse_apply``. Keyed Sum/Min/Max use ``fold_bounded``
  (a ``fold_blocks`` caller) or ``fold_keyed`` (a ``coarse_apply``
  caller) by that same rule. Ray's sort-based ``groupby().aggregate``
  is not used anywhere in the package.
- **Stable rounding**: float aggregates are rounded identically in
  the Ray path and the DuckDB oracle SQL so value-hash comparison is
  deterministic across summation orders.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa


def _footers(path: str) -> list:
    """Parquet footer of every fragment under ``path`` (one file or a
    directory of part files); no data read."""
    import pyarrow.dataset as pads

    return [f.metadata for f in pads.dataset(path, format="parquet").get_fragments()]


def _footer_bytes(footers: list, columns=None) -> int:
    """Uncompressed bytes of ``columns`` (all when None) summed over
    every row group of every footer; a nested column counts all its
    leaves."""
    total = 0
    for md in footers:
        paths = [md.schema.column(i).path for i in range(md.num_columns)]
        leaves = [
            i
            for i, p in enumerate(paths)
            if columns is None or any(p == c or p.startswith(c + ".") for c in columns)
        ]
        for r in range(md.num_row_groups):
            rg = md.row_group(r)
            total += sum(rg.column(i).total_uncompressed_size for i in leaves)
    return total


def cluster_cpus() -> int:
    """CPUs of the caller's Ray session: capped at 16, the partition
    count of coalescing repartitions (``coalesce``)."""
    import ray

    return int(ray.cluster_resources()["CPU"])


def coalesce(ds):
    """``ds`` in one block per cluster CPU, at most 16: the level-1
    partitions of ``fold_blocks`` and the ``curation_docs`` pivot. The
    cap keeps a fold's last task at 16 ``combine`` outputs or fewer on
    any cluster."""
    return ds.repartition(min(cluster_cpus(), 16))


def read_table(path: str, columns=None):
    """Column-pruned Ray Dataset over one parquet file or directory,
    read as one task per file in batches of the rows that fit
    ``DataContext.target_max_block_size`` by the footers' uncompressed
    bytes of ``columns``. One task per file lets Ray fuse the read
    into the caller's first ``map_batches``: for more blocks than
    files Ray splits the read's output, and a split read never fuses,
    so the whole table goes through the object store before the first
    map. The batch size keeps the fused map at block-sized calls, not
    Ray's ~10k-row reader batches. A table stored as one file runs its
    read and first map in one task. The read schema is the read columns'
    arrow schema from the first footer without its metadata: blocks
    carrying the files' ``pandas`` metadata make Ray's schema dedupe
    fail to hash them. Runs inside the caller's Ray session."""
    import ray.data

    footers = _footers(path)
    rows = sum(md.num_rows for md in footers)
    nbytes = _footer_bytes(footers, columns)
    cap = ray.data.DataContext.get_current().target_max_block_size
    schema = footers[0].schema.to_arrow_schema().remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(
        path,
        columns=columns,
        override_num_blocks=len(footers),
        schema=schema,
        batch_size=max(1, rows * cap // max(nbytes, 1)),
    )


def tbl(sf_dir: str, name: str, columns=None):
    """Column-pruned Ray Dataset over one testdata table."""
    return read_table(os.path.join(sf_dir, f"{name}.parquet"), columns)


def table_rows(sf_dir: str, name: str) -> int:
    """Row count of one testdata table, from parquet metadata (no data
    read)."""
    return sum(md.num_rows for md in _footers(os.path.join(sf_dir, f"{name}.parquet")))


def column_bytes(sf_dir: str, name: str, column: str) -> int:
    """Total uncompressed bytes of one column of one testdata table,
    from parquet column-chunk metadata (no data read)."""
    return _footer_bytes(_footers(os.path.join(sf_dir, f"{name}.parquet")), [column])


#: per-worker-process instance cache for stateful batch callables.
#: Stateless tasks + this cache give actor-style state amortization
#: (compiled regexes, hash params, broadcast handles) WITHOUT an actor
#: pool's fixed CPU reservation — a pool sized at the CPU count
#: deadlocks the streaming executor's downstream shuffle stages on
#: small machines, and undersized pools starve the stage.
_WORKER_CACHE: dict = {}


def cached(key, factory):
    inst = _WORKER_CACHE.get(key)
    if inst is None:
        inst = _WORKER_CACHE[key] = factory()
    return inst


#: broadcasts kept per cached_for_ref slot per worker — >1 so two
#: pipelines sharing a worker (the GATE_WORKERS-overlapped gate, or
#: curation_docs alongside a standalone quantile_filter) don't evict
#: each other's entry every batch (ADVICE r4), small enough that the
#: pinned plasma buffers stay bounded (the r2 LSH cache-leak lesson).
_REF_CACHE_PER_SLOT = 4


def cached_for_ref(slot: str, ref, factory):
    """Small per-slot LRU of materialized broadcasts, keyed by the
    ObjectRef hex — an unchanged ref hits the cache, a new ref
    replaces the least-recently-used entry once the slot holds
    ``_REF_CACHE_PER_SLOT``. ``factory()`` receives nothing and
    typically does ``ray.get(ref)`` + derived indexes."""
    from collections import OrderedDict

    hex_ = ref.hex()
    lru = _WORKER_CACHE.get(slot)
    if not isinstance(lru, OrderedDict):
        lru = _WORKER_CACHE[slot] = OrderedDict()
    if hex_ in lru:
        lru.move_to_end(hex_)
        return lru[hex_]
    val = lru[hex_] = factory()
    if len(lru) > _REF_CACHE_PER_SLOT:
        lru.popitem(last=False)
    return val


def bucketed_join(
    left,
    right,
    key_col: str,
    right_key: str,
    value_col: str,
    out_col: str,
    carry: dict,
    value_type=None,
):
    """TASK-BASED distributed hash join: attach ``right[value_col]``
    to each ``left`` row on ``left[key_col] == right[right_key]``
    (inner). Both sides are tagged and unioned, then ``coarse_apply``
    on the join key resolves each sort partition with one vectorized
    pandas ``merge`` — this rides the proven task-based sort shuffle
    instead of ``Dataset.join``'s aggregator ACTOR pool, which reserves CPU
    proportional to num_partitions and deadlocks chained joins on
    small CPU budgets (measured; CLAUDE.md actor-pool rule).

    ``carry`` maps carried left-column name → pyarrow type; the output
    schema is ``carry`` plus ``out_col: value_type``. Keys may be any
    hashable dtype (int64, string). ``value_type`` defaults to
    string."""
    import pyarrow.compute as pc

    if value_type is None:
        value_type = pa.string()
    carry_items = list(carry.items())
    schema = pa.schema([*carry_items, (out_col, value_type)])

    # both sides cast to the declared types: a union of blocks whose
    # schemas differ (an int32 source column against value_type=int64)
    # is what Ray warns about as "a different schema"
    def tag_left(batch: pa.Table) -> pa.Table:
        cols = {c: pc.cast(batch[c], t) for c, t in carry_items}
        cols["__key"] = batch[key_col]
        cols["__value"] = pa.nulls(batch.num_rows, type=value_type)
        cols["__side"] = pa.array(np.ones(batch.num_rows, dtype=np.int8))
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c: pa.nulls(n, type=t) for c, t in carry_items}
        cols["__key"] = batch[right_key]
        cols["__value"] = pc.cast(batch[value_col], value_type)
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        return pa.table(cols)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def resolve(g):
        right_g = g.loc[g["__side"] == 0, ["__key", "__value"]]
        m = g[g["__side"] == 1].merge(
            right_g.rename(columns={"__value": out_col}), on="__key"
        )
        return m[schema.names]

    return coarse_apply(tagged, ["__key"], resolve, schema)


def coarse_apply(ds, keys: list[str], fn, schema: pa.Schema):
    """Apply a VECTORIZED pandas function per sort partition of a hash
    of ``keys``: tag each row with a 31-bit hash of its keys, sort on
    the tag, and call ``fn`` once per sort partition with all of its
    rows. A range partition keeps every tag value whole, so all rows of
    a key meet in one call; ``fn`` must handle every key of its frame
    with pandas groupby/transform kernels — there is no per-key (or
    per-bucket) Python call at all. The right shape for per-key ordered
    analytics over millions of tiny keys. Ray's
    ``groupby().map_groups`` runs the same sort and then one pandas
    round-trip and one ``fn`` call per tag value.

    Output contract: every non-empty block is an arrow table of
    exactly ``schema``. ``fn`` returns a pandas frame whose columns
    include ``schema.names`` (extra columns are dropped, dtypes are
    converted here), and may return any empty frame. Ray never calls
    ``fn`` on an empty partition; an all-empty result still has no
    schema inside Ray, so a driver collect goes through :func:`collect`."""
    import pandas as pd

    def add_bucket(batch: pa.Table) -> pa.Table:
        # hash only the key columns: converting the whole batch to
        # pandas costs more than the hash itself on wide tables
        h = pd.util.hash_pandas_object(batch.select(keys).to_pandas(), index=False)
        # no pandas metadata on either side of the shuffle: Ray hashes
        # block schemas to dedupe them, and a metadata dict is unhashable
        bucket = pa.array((h.to_numpy() >> np.uint64(33)).astype(np.int32))
        return batch.append_column("__bucket", bucket).replace_schema_metadata()

    def per_partition(g: pd.DataFrame) -> pa.Table:
        out = fn(g.drop(columns="__bucket"))
        if len(out) == 0:
            return schema.empty_table()
        t = pa.Table.from_pandas(out, schema=schema, preserve_index=False)
        return t.replace_schema_metadata()

    # batch_size=None: one call per sort partition (a partition is one
    # block), never a slice that would split a key
    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .sort("__bucket")
        .map_batches(per_partition, batch_format="pandas", batch_size=None)
    )


def collect(ds, schema: pa.Schema):
    """Driver collect of a keyed-primitive output as a pandas frame:
    the typed empty frame of ``schema`` when Ray dropped every block
    (an all-empty result carries no schema inside Ray)."""
    out = ds.to_pandas()
    return out if len(out.columns) else schema.empty_table().to_pandas()


def heavy_keys(ds, key: str, key_type: pa.DataType, threshold: int):
    """Distributed heavy-key pre-count: the keys whose GLOBAL row
    count is at least ``threshold``, as a tiny pandas frame ``(key,
    n)``. One column-pruned scan emits a per-batch ``value_counts``
    partial (one row per distinct key per batch), ONE coarse keyed
    shuffle sums and filters per partition (exact: a key lives entirely
    in one partition). The collect is bounded by construction — at most
    ``total_rows / threshold`` keys survive. Its one caller is
    ``relational.events_asof_join``, which salts the flagged keys by
    time slice: its output has a row per click, so no per-block fold
    can shrink a hot key first. A per-key operator with a mergeable
    per-block fold (sessions, top-k) folds map-side before its
    ``coarse_apply`` instead and needs no pre-count."""
    import pyarrow.compute as pc

    schema = pa.schema([(key, key_type), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        # arrow-native count: no pandas round-trip, no sort — this
        # partial scans the FULL keyed table before the guarded
        # operator, so it must stay zero-copy
        vc = pc.value_counts(batch.column(key))
        return pa.table(
            {
                key: vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def agg(g):
        s = g.groupby(key, sort=False)["n"].sum().reset_index()
        return s[s["n"] >= threshold]

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return collect(coarse_apply(parts, [key], agg, schema), schema)


def coarse_dedup(ds, keys: list[str], schema: pa.Schema):
    """Distributed drop-duplicates on ``keys``: one ``coarse_apply``
    with a vectorized ``drop_duplicates`` per partition (every copy of
    a key lands in one partition). ``schema`` is the input's, which the
    output keeps."""
    return coarse_apply(ds, keys, lambda g: g.drop_duplicates(keys), schema)


def fold_keyed(parts, keys: list[str], schema: pa.Schema, aggs: dict | None = None):
    """Keyed fold for UNBOUNDED key domains (order keys, content
    hashes, conversations) — the twin of :func:`fold_bounded`, with
    the same ``aggs`` contract: every non-key column is folded with
    ``"sum"`` unless ``aggs`` names ``"min"`` or ``"max"`` for it, and
    value columns keep their names. One ``coarse_apply`` shuffle with
    ONE vectorized pandas ``groupby(keys).agg`` per partition (every
    row of a key lands in one partition, so the fold is exact). Null keys
    form their own group, as in SQL ``GROUP BY``.

    Feed it per-batch partials (one row per key per batch) — the
    shuffle then moves at most one row per (key, batch). ``schema`` is
    the partials', which the output keeps. Output is unordered."""

    def fold(g):
        kind = {c: (aggs or {}).get(c, "sum") for c in g.columns if c not in keys}
        return g.groupby(keys, sort=False, dropna=False).agg(kind).reset_index()

    return coarse_apply(parts, keys, fold, schema)


def sql_source(table_or_path: str) -> str:
    """A DuckDB FROM-clause source: a parquet path is wrapped in
    ``read_parquet(...)``; anything else is used verbatim as a
    table/view name (the driver pre-registers the testdata tables as
    views, while pytest oracles point at tmp parquet files)."""
    if table_or_path.endswith(".parquet") or "/" in table_or_path:
        return f"read_parquet('{table_or_path}')"
    return table_or_path


def fold_blocks(parts, combine, finish=None):
    """THE bounded fold: two levels of whole-block calls, no keyed
    shuffle. Level 1 runs ``combine`` on each :func:`coalesce`
    partition; level 2 runs ``finish(combine(t))`` on the single
    ``repartition(1)`` block. Both take and return a ``pa.Table``.

    ``combine`` MUST be reassociative: ``combine(concat(combine(a),
    combine(b)))`` equals ``combine(concat(a, b))`` (sums, min/max,
    set unions, top-k of top-ks). Level-2 input is at most the output
    rows of ``combine`` × min(cluster CPUs, 16), so use this only when
    that is small by construction (a fixed key domain: flag pairs,
    query ids, k clusters); anything else goes through
    :func:`coarse_apply`.
    Ray never calls ``combine`` or ``finish`` on an empty block."""

    def last(t: pa.Table) -> pa.Table:
        t = combine(t)
        return t if finish is None else finish(t)

    # batch_size=None = whole block per call: the level-2 call MUST
    # see the single repartition(1) block in one batch or it would emit
    # one partially-folded row group per batch slice (ADVICE r3)
    lvl1 = coalesce(parts).map_batches(
        combine, batch_format="pyarrow", batch_size=None
    )
    return lvl1.repartition(1).map_batches(
        last, batch_format="pyarrow", batch_size=None
    )


def fold_bounded(parts, keys: list[str], aggs: dict | None = None):
    """Keyed Sum/Min/Max for KEY-BOUNDED partial aggregates (flag/status
    pairs, event types × time windows): a :func:`fold_blocks` whose
    combine is one arrow ``group_by`` per block, and whose finish sorts
    by ``keys``. Replaces ``groupby().aggregate(Sum...)`` + a trailing
    ``Dataset.sort``, which cost whole seconds of fixed overhead on
    results of a few hundred rows (measured on q1: the 6-row trailing
    sort alone sampled+shuffled 64 blocks for ~0.4 s). For unbounded
    keys use :func:`fold_keyed`.

    ``aggs`` maps a value column to its reassociative fold kernel
    (``"sum" | "min" | "max"``; default ``"sum"`` for every non-key
    column) — the SAME kernel applies at both levels."""

    def combine(t: pa.Table) -> pa.Table:
        vals = [c for c in t.column_names if c not in keys]
        kind = {c: (aggs or {}).get(c, "sum") for c in vals}
        agg = t.group_by(keys).aggregate([(c, kind[c]) for c in vals])
        return pa.table(
            {k: agg[k] for k in keys}
            | {c: agg[f"{c}_{kind[c]}"] for c in vals}
        )

    return fold_blocks(
        parts, combine, lambda t: t.sort_by([(k, "ascending") for k in keys])
    )


def splitmix64_sql(
    input_expr: str,
    source: str,
    carry: str = "",
    state: str = "za",
    prefix: str = "s",
) -> str:
    """ONE definition of the 3-stage DuckDB splitmix64 finalizer CTE
    chain (review fix: the identical UHUGEINT mod-2^64 SQL was
    copy-pasted across five oracle builders). Emits
    ``{prefix}0 AS (...), {prefix}1 AS (...), {prefix}2 AS (...)``;
    the last CTE carries the pre-finalizer ``{state}`` — finish with
    ``xor({state}, {state} >> 31)``. ``carry`` is the projected key
    columns (e.g. ``"doc_id"`` or ``"doc_id, source"``); ``input_expr``
    is the uint64-able seed expression (``doc_id``,
    ``xor(doc_id, SALT)``, ...). Constants mirror
    :func:`lexor_ray.ops.sampling.splitmix64` exactly."""
    sel = f"{carry}, " if carry else ""
    return f"""{prefix}0 AS (
            SELECT {sel}CAST((CAST({input_expr} AS UHUGEINT)
                         + 11400714819323198485::UHUGEINT)
                        % 18446744073709551616::UHUGEINT AS UBIGINT)
                       AS {state}
            FROM {source}
        ), {prefix}1 AS (
            SELECT {sel}CAST((CAST(xor({state}, {state} >> 30) AS UHUGEINT)
                         * 13787848793156543929::UHUGEINT)
                        % 18446744073709551616::UHUGEINT AS UBIGINT)
                       AS {state}
            FROM {prefix}0
        ), {prefix}2 AS (
            SELECT {sel}CAST((CAST(xor({state}, {state} >> 27) AS UHUGEINT)
                         * 10723151780598845931::UHUGEINT)
                        % 18446744073709551616::UHUGEINT AS UBIGINT)
                       AS {state}
            FROM {prefix}1
        )"""
