"""Bloom-filter incremental deduplication across corpus snapshots.

The public pattern (Dolma's bloom-filter deduper, CCNet's
per-snapshot dedup): build a Bloom filter over the text of a PRIOR
snapshot, broadcast it, and flag every document of the NEW snapshot
whose text may already exist — the cheap first pass that lets a
100-TB pipeline dedup each incoming crawl against everything seen so
far without an all-to-all join between snapshots.

Exactness: every step is deterministic integer arithmetic replayed in
DuckDB (tests/test_bloom.py) —

- text hash ``h``: polynomial codepoint hash mod 2^64 (Horner, base
  257 — the same base the winnowing fingerprints use), batch-
  vectorized via a wrapping cumsum (uint64 subtraction is exact mod
  2^64, so empty documents need no special case);
- bit positions: ``splitmix64(h + j·GOLDEN) % m`` for j in 0..k-1 —
  the splitmix stream seeded at ``h`` (GOLDEN is the public splitmix
  gamma), replayed in UHUGEINT mod-2^64 like ``ops.sampling``;
- membership: doc flagged iff ALL k positions are set — INCLUDING
  Bloom false positives, which the oracle reproduces bit-for-bit
  (asserted with a deliberately tiny filter in the tests).

Scale shape (100 TB):

- the old-snapshot pass emits per-batch DISTINCT positions only (≤
  k·rows, deduped again by one ``coarse_dedup``) — the collected
  state is bounded by ``m`` bits regardless of corpus size, and the
  filter is mergeable (union of positions) across snapshots/shards;
- the driver packs the positions into an ``m/8``-byte bitmap once,
  ships it via ``ray.put``, and every worker reads it through the
  worker cache;
- the new-snapshot scoring pass is shuffle-free vectorized
  ``map_batches``; survivors (maybe_dup = false) are exact-safe to
  keep, flagged docs go to an exact verify only if the use case
  demands zero false drops.

The default snapshot split here is ``doc_id % 2`` (even = prior
snapshot, odd = incoming) so the op is self-contained on the testdata
tables; pass any other pair of filters at the call sites.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .sampling import splitmix64
from .util import coarse_dedup, collect, splitmix64_sql, sql_source as _src, tbl

#: splitmix64 gamma (public constant) — stepping the seed by it makes
#: positions j = 0..k-1 the first k outputs of the splitmix stream.
GOLDEN = np.uint64(0x9E3779B97F4A7C15)
#: polynomial hash base, same as the fingerprint rolling hash.
_BASE = np.uint64(257)


def _batch_text_hash(texts: pd.Series) -> np.ndarray:
    """Per-doc polynomial codepoint hash mod 2^64 (Horner, base 257):
    h = sum(cp_i * 257^(n-1-i)). One flat codepoint array per batch,
    one wrapping cumsum, one fancy-index subtraction — no per-doc
    Python."""
    texts = texts.fillna("")
    n = texts.str.len().to_numpy(np.int64)
    flat = np.frombuffer(
        "".join(texts).encode("utf-32-le"), dtype=np.uint32
    ).astype(np.uint64)
    ends = np.cumsum(n)
    starts = ends - n
    with np.errstate(over="ignore"):
        pos_from_end = np.repeat(ends, n) - 1 - np.arange(len(flat))
        maxn = int(n.max()) if len(n) else 0
        pw = np.concatenate(
            [
                np.ones(1, dtype=np.uint64),
                np.cumprod(np.full(max(maxn - 1, 0), _BASE, dtype=np.uint64)),
            ]
        )
        csum = np.concatenate(
            [np.zeros(1, dtype=np.uint64), np.cumsum(flat * pw[pos_from_end])]
        )
        # wrapping subtraction == exact segment sum mod 2^64; empty
        # docs fall out as csum[e] - csum[e] = 0
        return csum[ends] - csum[starts]


def _positions(h: np.ndarray, m: int, k: int) -> np.ndarray:
    """(len(h), k) bit positions: splitmix64(h + j*GOLDEN) % m."""
    with np.errstate(over="ignore"):
        seeds = h[:, None] + np.arange(k, dtype=np.uint64)[None, :] * GOLDEN
    return (splitmix64(seeds.reshape(-1)) % np.uint64(m)).reshape(-1, k)


_POS = pa.schema([("pos", pa.uint64())])


def build_bloom_positions(sf_dir: str, m: int, k: int):
    """Distinct set bit positions of the prior snapshot (doc_id even)
    as a Dataset — per-batch dedup first, then one ``coarse_dedup``,
    so the shuffle carries at most min(k·rows, m) rows per batch."""
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def batch_positions(batch: pd.DataFrame) -> pa.Table:
        old = batch[batch["doc_id"].to_numpy(np.int64) % 2 == 0]
        if len(old) == 0:
            return _POS.empty_table()
        pos = _positions(_batch_text_hash(old["text"]), m, k)
        return pa.table({"pos": pa.array(np.unique(pos), type=pa.uint64())})

    # keyed-shuffle dedup (Dataset.unique trips over uint64 numpy
    # scalars in its set accumulator); output is ≤ m rows
    return coarse_dedup(
        ds.map_batches(batch_positions, batch_format="pandas"), ["pos"], _POS
    )


def bloom_dedup(sf_dir: str, m: int = 1 << 20, k: int = 4):
    """Flag each incoming-snapshot document (doc_id odd) whose text
    may already exist in the prior snapshot (doc_id even):
    ``(doc_id, n_hit_bits, maybe_dup)``, maybe_dup = all k bits set."""
    import ray

    pos = collect(build_bloom_positions(sf_dir, m, k), _POS)["pos"].to_numpy(np.uint64)
    bitmap = np.zeros(m, dtype=bool)
    bitmap[pos] = True
    bitmap_ref = ray.put(np.packbits(bitmap))

    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        # ONE replace-on-new-ref cache slot (review fix: per-ref keys
        # accumulate every historical bitmap in long-lived sessions)
        from .util import cached_for_ref

        bits = cached_for_ref(
            "bloom-bitmap", bitmap_ref, lambda: ray.get(bitmap_ref)
        )
        new = batch[batch["doc_id"].to_numpy(np.int64) % 2 == 1]
        if len(new) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_hit_bits": pd.Series([], dtype="int64"),
                    "maybe_dup": pd.Series([], dtype="bool"),
                }
            )
        p = _positions(_batch_text_hash(new["text"]), m, k)
        hit = (bits[(p >> np.uint64(3)).astype(np.int64)]
               >> (np.uint64(7) - (p & np.uint64(7))).astype(np.uint8)) & 1
        n_hit = hit.sum(axis=1).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": new["doc_id"].to_numpy(np.int64),
                "n_hit_bits": n_hit,
                "maybe_dup": n_hit == k,
            }
        )

    return ds.map_batches(score, batch_format="pandas")


def bloom_dedup_oracle_sql(parquet_path: str, m: int = 1 << 20, k: int = 4) -> str:
    """DuckDB replay of :func:`bloom_dedup`, exact INCLUDING Bloom
    false positives: the polynomial codepoint hash, the splitmix64
    position chain and the prior-snapshot position set are all rebuilt
    in UHUGEINT mod-2^64 arithmetic (kept beside the op; tests and
    __ray_entry__ import from here)."""
    return f"""
        WITH base AS (
            SELECT doc_id, coalesce(text, '') AS t
            FROM {_src(parquet_path)}
        ), h AS (
            SELECT doc_id,
                   CASE WHEN len(t) = 0 THEN 0::UBIGINT
                        ELSE list_reduce(
                            list_transform(range(1, len(t) + 1),
                                i -> CAST(unicode(t[i]) AS UBIGINT)),
                            (a, b) -> CAST((CAST(a AS UHUGEINT) * 257
                                            + CAST(b AS UHUGEINT))
                                           % 18446744073709551616::UHUGEINT
                                           AS UBIGINT))
                   END AS h
            FROM base
        ), seeds AS (
            SELECT doc_id, j,
                   CAST((CAST(h AS UHUGEINT)
                         + CAST(j AS UHUGEINT)
                           * 11400714819323198485::UHUGEINT)
                        % 18446744073709551616::UHUGEINT AS UBIGINT) AS x
            FROM h CROSS JOIN (SELECT unnest(range({k})) AS j)
        ), {splitmix64_sql("x", "seeds", carry="doc_id, j")}, pos AS (
            SELECT doc_id, j, xor(za, za >> 31) % {m} AS pos FROM s2
        ), apos AS (
            SELECT DISTINCT pos FROM pos WHERE doc_id % 2 = 0
        ), hits AS (
            SELECT p.doc_id,
                   CAST(sum(CASE WHEN a.pos IS NULL THEN 0 ELSE 1 END)
                        AS BIGINT) AS n_hit_bits
            FROM pos p LEFT JOIN apos a USING (pos)
            WHERE p.doc_id % 2 = 1
            GROUP BY p.doc_id
        )
        SELECT doc_id, n_hit_bits, n_hit_bits = {k} AS maybe_dup
        FROM hits ORDER BY doc_id
    """
