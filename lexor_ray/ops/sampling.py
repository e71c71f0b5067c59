"""Deterministic corpus sampling / splitting / capping operators.

The standard pre-training curation steps that sit between cleaning and
training (public recipes: GPT-3 §2.2, The Pile, RefinedWeb, Dolma):

- **train/valid/test hash split** — membership decided by a
  deterministic integer hash of the stable ``doc_id``, never by
  position or randomness, so the split is reproducible on any cluster
  layout and any ordering of the input blocks;
- **stratified sampling** — per-language keep-rates applied via a
  second (salted) hash, so dominant languages can be downsampled
  without a shuffle or a global count;
- **per-source frequency caps** — at most ``cap`` documents per
  source, selected by hash order (deterministic, unbiased), computed
  as a distributed partial top-``cap`` + tiny threshold broadcast;
- **deterministic global shuffle rank** — every document's position
  under ``ORDER BY splitmix64(doc_id XOR RANK_SALT)`` (an independent
  stream, so capped sources' survivors don't cluster at the low
  ranks), computed with the two-pass histogram + within-bucket rank
  pattern (a distributed zip-with-index; no global sort
  materialization on the driver).

Everything is keyed off :func:`splitmix64` (public domain finalizer,
Steele et al., "Fast splittable pseudorandom number generators",
OOPSLA'14) — a *bijection* on uint64, so distinct doc_ids can never
collide and every tie-break below is exact. The identical arithmetic
is reproducible in DuckDB (UHUGEINT mod-2^64), which is what makes the
whole operator SQL-oracle-checkable.

Scale shape (100 TB): two tiny metadata passes (per-source top-``cap``
partials → ≤ ``cap × n_sources`` rows; 4096-bucket histogram → ≤ 4096
rows) feed broadcast lookups; the main pass is one vectorized
``map_batches`` plus ONE coarse keyed shuffle (for within-bucket rank
assignment). No driver-side iteration over data rows anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .util import splitmix64_sql, sql_source as _src, coarse_apply, collect, tbl

#: salt for the second (sampling) hash — xor-ed into doc_id before
#: splitmix64 so the sampling decision is independent of the split
#: decision. Small constant (< 2^63) so int64 xor is sign-safe in
#: both numpy and DuckDB.
SAMPLE_SALT = np.uint64(0x5DEECE66D)

#: salt for the shuffle-rank hash (r5 review): rank used to reuse the
#: split/cap hash ``h``, so a capped source's ``cap`` survivors — the
#: cap keeps exactly the smallest-h docs — all clustered at the lowest
#: ranks instead of being uniformly spread through the training order.
#: A fourth independent stream decorrelates rank from the cap. < 2^63
#: for sign-safe int64 xor in DuckDB.
RANK_SALT = np.uint64(0x5851F42D4C957F2D)

#: stratified keep-rates in basis points (of 10_000) per language:
#: downsample the dominant language, keep the tail whole — the classic
#: rebalancing move of multilingual curation.
DEFAULT_LANG_RATES_BP = {
    "en": 5000,
    "de": 7500,
    "fr": 7500,
    "es": 7500,
    "zh": 10000,
}

#: h % 1000 thresholds: [0, 900) train, [900, 950) valid, rest test.
TRAIN_BP, VALID_BP = 900, 950

#: top bits of h used for the rank histogram (4096 buckets — the
#: driver-side offset table stays tiny at any corpus size).
_RANK_BUCKET_BITS = 12


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (bijective on uint64)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _doc_hashes(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, h_sample, h_rank) for a batch — h drives split/cap,
    h_sample (salted) stratified sampling, h_rank (salted) the global
    shuffle rank (independent of the cap decision, r5 review)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    return (
        splitmix64(ids),
        splitmix64(ids ^ SAMPLE_SALT),
        splitmix64(ids ^ RANK_SALT),
    )


def _cap_thresholds_and_rank_offsets(ds, cap: int):
    """BOTH tiny pre-aggregates of the curation pass from ONE input
    scan (the two used to be separate scans — reading the whole table
    twice for two bounded lookup tables is wasteful at scale):

    - per-source keep threshold: the ``cap``-th smallest h
      (inclusive), or 2^64-1 when the source has ≤ cap documents —
      distributed partial top-``cap`` per batch, merged per source,
      the driver only ever sees ≤ ``cap`` rows per source;
    - rank offsets: exclusive prefix sums of the h_rank-bucket
      histogram (h_rank >> 52, 4096 buckets) — per-batch partial
      counts, one small groupby, ≤ 4096 rows to the driver.

    The per-batch partial emits a tagged union (kind 0 = cap
    candidate rows, kind 1 = bucket counts); the union is tiny
    (≤ cap·|sources| + 4096 rows per batch), so materializing it and
    running the two bounded groupbys over it costs nothing next to
    the input read it saves."""
    shift = np.uint64(64 - _RANK_BUCKET_BITS)

    def partial(batch: pa.Table) -> pa.Table:
        h, _, hr = _doc_hashes(batch)
        df = pd.DataFrame(
            {"source": batch.column("source").to_pandas(), "h": h}
        )
        kept = (
            df.sort_values("h", kind="mergesort")
            .groupby("source", sort=False)
            .head(cap)
        )
        b, c = np.unique((hr >> shift).astype(np.int64), return_counts=True)
        nk, nb = len(kept), len(b)
        return pa.table(
            {
                "kind": pa.array(
                    np.r_[np.zeros(nk, np.int8), np.ones(nb, np.int8)]
                ),
                "source": pa.array(
                    np.r_[
                        kept["source"].to_numpy(object),
                        np.full(nb, "", dtype=object),
                    ],
                    type=pa.string(),
                ),
                "h": pa.array(
                    np.r_[
                        kept["h"].to_numpy().astype(np.uint64),
                        np.zeros(nb, np.uint64),
                    ],
                    type=pa.uint64(),
                ),
                "bucket": pa.array(np.r_[np.full(nk, -1, np.int64), b]),
                "n": pa.array(np.r_[np.zeros(nk, np.int64), c]),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # ONE vectorized pandas pass per coarse bucket (the
        # coarse_apply contract): per-source cap-th smallest h via
        # sort + cumcount, histogram via C-level groupby-sum
        out = []
        c = df[df["kind"] == 0]
        if len(c):
            s = c.sort_values(["source", "h"], kind="mergesort")
            pos = s.groupby("source", sort=False).cumcount()
            sizes = s.groupby("source", sort=False).size()
            thr = pd.Series(
                np.uint64(0xFFFFFFFFFFFFFFFF),
                index=sizes.index,
                dtype=np.uint64,
            )
            sel = s[(pos == cap - 1).to_numpy()]
            thr.loc[sel["source"].to_numpy()] = sel["h"].to_numpy(np.uint64)
            out.append(
                pd.DataFrame(
                    {
                        "kind": np.zeros(len(thr), np.int8),
                        "source": thr.index.to_numpy(object),
                        "bucket": np.full(len(thr), -1, np.int64),
                        "val": thr.to_numpy(np.uint64).view(np.int64),
                    }
                )
            )
        b = df[df["kind"] == 1]
        if len(b):
            hb = b.groupby("bucket", sort=False)["n"].sum()
            out.append(
                pd.DataFrame(
                    {
                        "kind": np.ones(len(hb), np.int8),
                        "source": np.full(len(hb), "", dtype=object),
                        "bucket": hb.index.to_numpy(np.int64),
                        "val": hb.to_numpy(np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    # ONE all-to-all for both bounded aggregates (composite key;
    # coarse buckets — a per-fine-group body over ~4k groups would be
    # dispatch-bound, see the BENCH crossover table)
    schema = pa.schema(
        [
            ("kind", pa.int8()),
            ("source", pa.string()),
            ("bucket", pa.int64()),
            ("val", pa.int64()),
        ]
    )
    merged = collect(
        coarse_apply(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["kind", "source", "bucket"],
            merge,
            schema,
        ),
        schema,
    )
    caps = merged[merged["kind"] == 0]
    thresholds = {
        s: int(np.int64(v).view(np.uint64))
        for s, v in zip(caps["source"], caps["val"])
    }
    cnt = merged[merged["kind"] == 1]
    hist = np.zeros(1 << _RANK_BUCKET_BITS, dtype=np.int64)
    hist[cnt["bucket"].to_numpy(np.int64)] = cnt["val"].to_numpy(np.int64)
    offsets = np.zeros_like(hist)
    np.cumsum(hist[:-1], out=offsets[1:])
    return thresholds, offsets


def corpus_sampling(
    sf_dir: str,
    cap: int = 15,
    lang_rates_bp: dict[str, int] | None = None,
):
    """One scan emitting every curation decision per document:

    ``(doc_id, split, sampled, kept_by_cap, shuffle_rank)`` —
    hash split (train/valid/test), stratified per-lang sampling flag,
    per-source cap flag, and the deterministic global shuffle position.
    All decisions are pure functions of ``splitmix64(doc_id)`` plus
    two broadcast lookup tables, so the operator is embarrassingly
    parallel except for ONE coarse shuffle that colocates rank
    buckets."""
    import ray

    rates = lang_rates_bp or DEFAULT_LANG_RATES_BP
    ds = tbl(sf_dir, "documents", columns=["doc_id", "lang", "source"])
    thresholds, offsets = _cap_thresholds_and_rank_offsets(ds, cap)
    thr_ref = ray.put(thresholds)
    off_ref = ray.put(offsets)
    shift = np.uint64(64 - _RANK_BUCKET_BITS)

    def decide(batch: pa.Table) -> pa.Table:
        # worker-cached broadcast (cached_for_ref convention, r5
        # review: ray.get per batch re-deserializes the dict)
        from .util import cached_for_ref

        thr = cached_for_ref("corpus-cap-thr", thr_ref, lambda: ray.get(thr_ref))
        h, hs, hr = _doc_hashes(batch)
        langs = batch.column("lang").to_pandas()
        sources = batch.column("source").to_pandas()
        mod = (h % np.uint64(1000)).astype(np.int64)
        split = np.where(
            mod < TRAIN_BP, "train", np.where(mod < VALID_BP, "valid", "test")
        )
        # Series.map(dict) is the vectorized lookup (r5 review: the
        # per-row lambda ran Python per document on the hot pass)
        rate = langs.map(rates).fillna(10000).to_numpy(dtype=np.int64)
        sampled = (hs % np.uint64(10000)).astype(np.int64) < rate
        thr_arr = sources.map(thr).to_numpy(dtype=np.uint64)
        kept = h <= thr_arr
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "split": pa.array(split.astype(object), type=pa.string()),
                "sampled": pa.array(sampled),
                "kept_by_cap": pa.array(kept),
                "hr": pa.array(hr, type=pa.uint64()),
                "rank_bucket": pa.array((hr >> shift).astype(np.int64)),
            }
        )

    decided = ds.map_batches(decide, batch_format="pyarrow")

    def assign_rank(g: pd.DataFrame) -> pd.DataFrame:
        from .util import cached_for_ref

        offsets = cached_for_ref(
            "corpus-rank-off", off_ref, lambda: ray.get(off_ref)
        )
        g = g.sort_values(["rank_bucket", "hr"], kind="mergesort")
        within = g.groupby("rank_bucket", sort=False).cumcount().to_numpy()
        base = offsets[g["rank_bucket"].to_numpy()]
        return g.assign(shuffle_rank=base + within)

    schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("split", pa.string()),
            ("sampled", pa.bool_()),
            ("kept_by_cap", pa.bool_()),
            ("shuffle_rank", pa.int64()),
        ]
    )
    return coarse_apply(decided, ["rank_bucket"], assign_rank, schema)


#: salt for the mixture hash — a third independent splitmix64 stream
#: (xor-ed pre-finalizer), so fractional-epoch membership is
#: independent of both the split and the sampling decisions.
MIX_SALT = np.uint64(0x2545F4914F6CDD1D)

#: default per-source epoch weights: upsample the first two sources
#: (the "high-quality" tier move of GPT-3 §2.2 / The Pile), keep the
#: rest at one epoch.
DEFAULT_SOURCE_EPOCHS = {"src0": 2.5, "src1": 1.5}


def mixture_weights(sf_dir: str, source_epochs: dict[str, float] | None = None):
    """Deterministic data-mixture expansion plan: per document,
    ``n_repeats = floor(e) + (h_mix % 10000 < frac(e) · 10000)`` where
    ``e`` is its source's epoch weight. Fractional epochs become an
    exact per-document Bernoulli decided by a salted ``splitmix64`` —
    reproducible on any cluster layout, no RNG state. Embarrassingly
    parallel: one vectorized ``map_batches``, a broadcast epoch dict,
    no shuffle. A loader (or ``materialize_epochs``) replays the plan
    by emitting each doc ``n_repeats`` times."""
    epochs = source_epochs or DEFAULT_SOURCE_EPOCHS
    ds = tbl(sf_dir, "documents", columns=["doc_id", "source"])

    def decide(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(ids ^ MIX_SALT)
        src = batch.column("source").to_pandas()
        # vectorized dict lookup (r5 review: per-row lambda)
        e = src.map(epochs).fillna(1.0).to_numpy(dtype=np.float64)
        whole = np.floor(e).astype(np.int64)
        frac_bp = np.round((e - whole) * 10000).astype(np.int64)
        extra = (h % np.uint64(10000)).astype(np.int64) < frac_bp
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "n_repeats": pa.array(whole + extra),
            }
        )

    return ds.map_batches(decide, batch_format="pyarrow")


def materialize_epochs(sf_dir: str, source_epochs: dict[str, float] | None = None):
    """Expand the mixture plan into actual training rows:
    ``(doc_id, epoch_idx)`` repeated ``n_repeats`` times per document
    — a vectorized per-batch ``np.repeat`` flat map, still no
    shuffle."""
    plan = mixture_weights(sf_dir, source_epochs)

    def expand(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        reps = batch.column("n_repeats").to_numpy(zero_copy_only=False)
        out_ids = np.repeat(ids, reps)
        # epoch_idx = 0..n_repeats-1 per doc, fully vectorized
        ends = np.cumsum(reps)
        starts = ends - reps
        idx = np.arange(int(ends[-1]) if len(ends) else 0) - np.repeat(starts, reps)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, type=pa.int64()),
                "epoch_idx": pa.array(idx.astype(np.int64)),
            }
        )

    return plan.map_batches(expand, batch_format="pyarrow")


def mixture_weights_oracle_sql(
    parquet_path: str, source_epochs: dict[str, float] | None = None
) -> str:
    """DuckDB replay of :func:`mixture_weights`: the salted splitmix64
    finalizer in UHUGEINT mod-2^64 arithmetic (the chain the
    driver-checked corpus_sampling oracle proved bit-exact), then the
    floor + basis-point Bernoulli epoch rule."""
    epochs = source_epochs or DEFAULT_SOURCE_EPOCHS
    whole_cases = " ".join(
        f"WHEN '{s}' THEN {int(np.floor(e))}" for s, e in epochs.items()
    )
    frac_cases = " ".join(
        f"WHEN '{s}' THEN {int(round((e - np.floor(e)) * 10000))}"
        for s, e in epochs.items()
    )
    salt = int(MIX_SALT)
    return f"""
        WITH {splitmix64_sql(f"xor(doc_id, {salt})", _src(parquet_path), carry="doc_id, source", state="z")}, hh AS (
            SELECT doc_id, source, xor(z, z >> 31) AS h FROM s2
        )
        SELECT doc_id, source,
               CAST(CASE source {whole_cases} ELSE 1 END
                    + CASE WHEN (h % 10000) <
                           CASE source {frac_cases} ELSE 0 END
                           THEN 1 ELSE 0 END AS BIGINT) AS n_repeats
        FROM hh ORDER BY doc_id
    """
