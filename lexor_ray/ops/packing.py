"""Sequence packing: greedy token-budget binning for pretraining.

Training consumes fixed-length sequences; packing many short documents
into one sequence (and giving over-long documents their own) is the
standard way to avoid padding waste (public recipes: T5 §3.1.2 "packing",
GPT-3 appendix B, ESM/LLM data loaders). This operator assigns every
document a ``(shard, bin_idx, pos_in_bin)`` — a deterministic,
cluster-layout-independent packing plan that a loader can replay.

Semantics (fully deterministic):

- ``shard = splitmix64(doc_id) % n_shards`` — documents are spread
  across shards by a bijective hash, so shard sizes are balanced and
  membership never depends on block layout;
- within a shard, documents are ordered by ``doc_id`` and packed
  GREEDILY in that order: a document joins the current bin unless
  that would push the bin's token sum over ``budget``, in which case
  it opens the next bin. A single document larger than the budget
  gets a bin of its own (flagged ``oversize``).

Scale shape: one vectorized ``map_batches`` computes tokens + shard;
ONE keyed shuffle (``coarse_apply`` on ``shard``) colocates each
shard; the per-shard packing is a numpy loop over *bins*
(searchsorted on the token cumsum — O(bins · log n)), never over
documents. Driver holds
nothing. ``n_shards`` controls shard size: at 100 TB pick shards of
~10⁶ documents so the per-shard sort stays in-memory; the packing
quality loss vs a single global sequence is nil because greedy
packing is order-local.

The greedy recursion is not window-function expressible, but it IS a
linear recurrence per shard, so the DuckDB oracle replays it exactly
with a RECURSIVE CTE (one iteration per within-shard rank:
:func:`pack_sequences_oracle_sql`); tests/test_packing.py additionally
checks the op against an independent naive per-document reference
implementation plus the full invariant set (budget, contiguity,
greedy tightness, determinism).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .sampling import splitmix64
from .util import coarse_apply, tbl


def _pack_shard(tok: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy sequential packing of one shard's ordered token counts.
    Returns (bin_idx, pos_in_bin). Loops over BINS via searchsorted on
    the cumsum, not over documents."""
    n = len(tok)
    bin_idx = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    cum = np.cumsum(tok)
    i, b, base = 0, 0, 0
    while i < n:
        j = int(np.searchsorted(cum, base + budget, side="right"))
        if j == i:  # single document exceeds the budget: own bin
            j = i + 1
        bin_idx[i:j] = b
        pos[i:j] = np.arange(j - i)
        base = int(cum[j - 1])
        b += 1
        i = j
    return bin_idx, pos


def pack_sequences(sf_dir: str, budget: int = 512, n_shards: int = 64):
    """Deterministic greedy packing plan over the documents table:
    ``(doc_id, n_tokens, shard, bin_idx, pos_in_bin, oversize)``.
    Tokens are runs of non-whitespace in Python's rule, which also
    splits on a vertical tab or a non-ASCII space, unlike the RE2 rule
    of ``text_quality_stats`` (see the note on ``n_tokens`` below)."""
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def shard_tokens(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": ids,
                # NOTE oracle parity: Python's \S is Unicode-aware,
                # DuckDB RE2's is ASCII-only — equal on the generator-
                # controlled corpus, latent divergence on exotic
                # whitespace (r5 review)
                "n_tokens": batch["text"]
                .fillna("")
                .str.count(r"\S+")
                .astype("int64"),
                "shard": (
                    splitmix64(ids.astype(np.uint64)) % np.uint64(n_shards)
                ).astype(np.int64),
            }
        )

    def pack_shard(sub: pd.DataFrame) -> pd.DataFrame:
        tok = sub["n_tokens"].to_numpy(np.int64)
        bin_idx, pos = _pack_shard(tok, budget)
        return sub[["doc_id", "n_tokens", "shard"]].assign(
            bin_idx=bin_idx, pos_in_bin=pos, oversize=tok > budget
        )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        # a partition may hold several shards: pack each one's doc_id run
        g = g.sort_values(["shard", "doc_id"], kind="mergesort")
        return pd.concat([pack_shard(s) for _, s in g.groupby("shard", sort=False)])

    schema = pa.schema(
        [
            (c, pa.int64())
            for c in ("doc_id", "n_tokens", "shard", "bin_idx", "pos_in_bin")
        ]
        + [("oversize", pa.bool_())]
    )
    return coarse_apply(
        ds.map_batches(shard_tokens, batch_format="pandas"), ["shard"], pack, schema
    )


def pack_sequences_oracle_sql(
    source: str, budget: int = 512, n_shards: int = 64
) -> str:
    """DuckDB replay of the ENTIRE packing plan: splitmix64 shard,
    within-shard doc_id order, and the greedy bin recursion as a
    RECURSIVE CTE — each iteration advances every shard by one rank,
    carrying (bin_idx, pos_in_bin, fill). All-integer, so the match is
    exact. Shared by __ray_entry__ and tests/test_packing.py."""
    from .util import splitmix64_sql, sql_source

    return f"""
        WITH RECURSIVE tok AS (
            SELECT doc_id,
                   len(regexp_extract_all(coalesce(text, ''), '\\S+'))
                       AS n_tokens
            FROM {sql_source(source)}
        ), {splitmix64_sql("doc_id", "tok", carry="doc_id, n_tokens")}, base AS (
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(xor(za, za >> 31) % {n_shards} AS BIGINT) AS shard,
                   CAST(row_number() OVER (
                        PARTITION BY xor(za, za >> 31) % {n_shards}
                        ORDER BY doc_id) AS BIGINT) AS rn
            FROM s2
        ), rec AS (
            SELECT shard, rn, doc_id, n_tokens,
                   CAST(0 AS BIGINT) AS bin_idx,
                   CAST(0 AS BIGINT) AS pos_in_bin,
                   n_tokens AS fill
            FROM base WHERE rn = 1
            UNION ALL
            SELECT b.shard, b.rn, b.doc_id, b.n_tokens,
                   CASE WHEN r.fill + b.n_tokens <= {budget}
                        THEN r.bin_idx ELSE r.bin_idx + 1 END,
                   CASE WHEN r.fill + b.n_tokens <= {budget}
                        THEN r.pos_in_bin + 1 ELSE CAST(0 AS BIGINT) END,
                   CASE WHEN r.fill + b.n_tokens <= {budget}
                        THEN r.fill + b.n_tokens ELSE b.n_tokens END
            FROM rec r JOIN base b ON b.shard = r.shard AND b.rn = r.rn + 1
        )
        SELECT doc_id, n_tokens, shard, bin_idx, pos_in_bin,
               n_tokens > {budget} AS oversize
        FROM rec ORDER BY doc_id
    """
