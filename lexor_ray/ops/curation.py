"""Fused per-document curation recording query.

The driver records only the first 50 ``queries()`` entries, so the
six per-document curation operators — C4 line cleaning, C4 global
span dedup, ExactSubstr passage dedup, the deterministic mixture
plan, the Bloom incremental-dedup flag, and (r4) the per-source
quantile-threshold filter (``sketch.quantile_filter``, the CCNet
"drop below the source's q-th percentile" step) — are RECORDED
through one fused oracle-checked entry: a single wide row per
document joining each operator's output on ``doc_id``. Each operator
stays first-class with its own tests and DuckDB oracle; the fusion
calls the PUBLIC functions verbatim, so the recorded row certifies
exactly the code path a user runs.

Join strategy: chained ``Dataset.join`` deadlocks the streaming
executor (CLAUDE.md / BENCH), so the six outputs are tagged onto one
shared wide Arrow schema (nulls where a source has no column), union
→ ONE coarse keyed shuffle on ``doc_id`` → a single vectorized
pandas ``groupby(doc_id).first()`` per bucket picks each column's
non-null value. Bloom covers only incoming-snapshot (odd) doc_ids;
even docs get the documented fill ``(n_hit_bits=-1,
maybe_dup=false)`` — mirrored by ``coalesce`` in the SQL oracle.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .util import coalesce, coarse_apply

#: (column, arrow type) of the fused wide row, in output order.
_WIDE = [
    ("doc_id", pa.int64()),
    ("c4_text", pa.string()),
    ("n_lines", pa.int64()),
    ("n_kept", pa.int64()),
    ("n_no_terminal", pa.int64()),
    ("n_too_short", pa.int64()),
    ("n_boilerplate", pa.int64()),
    ("n_dup_lines", pa.int64()),
    ("span_text", pa.string()),
    ("n_spans", pa.int64()),
    ("n_kept_spans", pa.int64()),
    ("passage_text", pa.string()),
    ("n_tokens", pa.int64()),
    ("n_removed_tokens", pa.int64()),
    ("source", pa.string()),
    ("n_repeats", pa.int64()),
    ("n_hit_bits", pa.int64()),
    ("maybe_dup", pa.bool_()),
    ("q_threshold", pa.float64()),
    ("q_keep", pa.bool_()),
]
_SCHEMA = pa.schema(_WIDE)


def _tagger(rename: dict[str, str]):
    """map_batches fn projecting a source's columns onto the shared
    wide schema (nulls elsewhere) — explicit schema on BOTH union
    sides so empty blocks can't infer mixed schemas."""

    def tag(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for name, typ in _WIDE:
            src = rename.get(name)
            if name == "doc_id":
                cols[name] = batch.column("doc_id").cast(pa.int64())
            elif src is not None:
                cols[name] = batch.column(src).cast(typ)
            else:
                cols[name] = pa.nulls(n, type=typ)
        return pa.table(cols, schema=_SCHEMA)

    return tag


def curation_docs(
    sf_dir: str,
    min_words: int = 3,
    span_sents: int = 3,
    delim: str = ". ",
    k: int = 50,
    m: int = 1 << 20,
    n_bits: int = 4,
    q: float = 0.25,
):
    """One wide oracle-checked row per document fusing the six
    curation operators (see module docstring). Scale shape: the six
    public pipelines run as-is, then ONE extra keyed shuffle
    colocates each doc's six rows."""
    from .bloom import bloom_dedup
    from .cleaning import c4_clean, passage_dedup_docs, span_dedup_docs
    from .sampling import mixture_weights
    from .sketch import quantile_filter

    parts = [
        c4_clean(sf_dir, min_words).map_batches(
            _tagger(
                {
                    "c4_text": "clean_text",
                    "n_lines": "n_lines",
                    "n_kept": "n_kept",
                    "n_no_terminal": "n_no_terminal",
                    "n_too_short": "n_too_short",
                    "n_boilerplate": "n_boilerplate",
                    "n_dup_lines": "n_dup_lines",
                }
            ),
            batch_format="pyarrow",
        ),
        span_dedup_docs(sf_dir, span_sents, delim).map_batches(
            _tagger(
                {
                    "span_text": "clean_text",
                    "n_spans": "n_spans",
                    "n_kept_spans": "n_kept_spans",
                }
            ),
            batch_format="pyarrow",
        ),
        passage_dedup_docs(sf_dir, k).map_batches(
            _tagger(
                {
                    "passage_text": "clean_text",
                    "n_tokens": "n_tokens",
                    "n_removed_tokens": "n_removed_tokens",
                }
            ),
            batch_format="pyarrow",
        ),
        mixture_weights(sf_dir).map_batches(
            _tagger({"source": "source", "n_repeats": "n_repeats"}),
            batch_format="pyarrow",
        ),
        bloom_dedup(sf_dir, m, n_bits).map_batches(
            _tagger({"n_hit_bits": "n_hit_bits", "maybe_dup": "maybe_dup"}),
            batch_format="pyarrow",
        ),
        quantile_filter(sf_dir, q).map_batches(
            _tagger({"q_threshold": "threshold", "q_keep": "keep"}),
            batch_format="pyarrow",
        ),
    ]
    # run the six branches as SEPARATE bounded DAGs: one streaming DAG
    # holding all ~13 of their all-to-all operators at once contends
    # for aggregator CPU and runs ~4× slower than the branches
    # sequentially (measured; same failure family as CLAUDE.md's
    # chained-join rule). materialize() here holds per-doc rows —
    # the same blocks the union would buffer anyway — and the object
    # store spills them at scale.
    mats = [p.materialize() for p in parts]
    tagged = mats[0]
    for p in mats[1:]:
        tagged = tagged.union(p)
    # the 6-way union multiplies block count (each branch ends in its
    # own shuffle); collapse before the pivot shuffle or the final
    # groupby is task-launch-bound (CLAUDE.md union/block-count rule)
    tagged = coalesce(tagged)

    def pivot(g: pd.DataFrame) -> pd.DataFrame:
        # first non-null per column per doc — one C-level pass
        out = g.groupby("doc_id", sort=False).first().reset_index()
        out["n_hit_bits"] = out["n_hit_bits"].fillna(-1)
        out["maybe_dup"] = (
            out["maybe_dup"].to_numpy(dtype=object) == True  # noqa: E712
        )
        out["q_keep"] = (
            out["q_keep"].to_numpy(dtype=object) == True  # noqa: E712
        )
        return out

    return coarse_apply(tagged, ["doc_id"], pivot, _SCHEMA)


def curation_docs_oracle_sql(
    parquet_path: str,
    min_words: int = 3,
    span_sents: int = 3,
    delim: str = ". ",
    k: int = 50,
    m: int = 1 << 20,
    n_bits: int = 4,
    q: float = 0.25,
) -> str:
    """The fused DuckDB oracle: each operator's own oracle SQL as a
    CTE, joined on doc_id (LEFT for Bloom, which only scores odd
    doc_ids). The quantile-filter CTE replays
    ``sketch.quantile_filter`` exactly: ``quantile_disc`` per source
    (the sketch's exact-histogram tier reproduces it bit-for-bit at
    driver scales) + the same float comparison."""
    from .bloom import bloom_dedup_oracle_sql
    from .cleaning import (
        c4_clean_oracle_sql,
        passage_dedup_docs_oracle_sql,
        span_dedup_docs_oracle_sql,
    )
    from .sampling import mixture_weights_oracle_sql
    from .util import sql_source

    return f"""
        WITH c4 AS ({c4_clean_oracle_sql(parquet_path, min_words)}),
        sp AS ({span_dedup_docs_oracle_sql(parquet_path, span_sents, delim)}),
        pg AS ({passage_dedup_docs_oracle_sql(parquet_path, k)}),
        mx AS ({mixture_weights_oracle_sql(parquet_path)}),
        bl AS ({bloom_dedup_oracle_sql(parquet_path, m, n_bits)}),
        qt AS (
            SELECT source,
                   quantile_disc(CAST(n_chars AS DOUBLE), {q}) AS q_threshold
            FROM {sql_source(parquet_path)} GROUP BY source
        ),
        qf AS (
            SELECT d.doc_id, qt.q_threshold,
                   CAST(d.n_chars AS DOUBLE) >= qt.q_threshold AS q_keep
            FROM {sql_source(parquet_path)} d JOIN qt USING (source)
        )
        SELECT c4.doc_id,
               c4.clean_text AS c4_text, c4.n_lines, c4.n_kept,
               c4.n_no_terminal, c4.n_too_short, c4.n_boilerplate,
               c4.n_dup_lines,
               sp.clean_text AS span_text, sp.n_spans, sp.n_kept_spans,
               pg.clean_text AS passage_text, pg.n_tokens,
               pg.n_removed_tokens,
               mx.source, mx.n_repeats,
               coalesce(bl.n_hit_bits, -1) AS n_hit_bits,
               coalesce(bl.maybe_dup, false) AS maybe_dup,
               qf.q_threshold, qf.q_keep
        FROM c4
        JOIN sp USING (doc_id)
        JOIN pg USING (doc_id)
        JOIN mx USING (doc_id)
        LEFT JOIN bl USING (doc_id)
        JOIN qf USING (doc_id)
        ORDER BY c4.doc_id
    """
