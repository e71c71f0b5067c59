"""Mergeable sketches: HyperLogLog approximate distinct count with an
exact sparse mode.

The guide's sketch pattern: emit ONE serialized sketch per batch per
key from ``map_batches`` and merge them in a second, tiny stage —
sketches are designed to be mergeable, so the shuffle moves
``n_keys × n_batches`` sketch payloads instead of every row. Public
algorithms: Flajolet et al., HyperLogLog (AofA 2007) with the standard
bias correction, plus the HLL++-style SPARSE representation (Heule et
al., EDBT 2013): below a size budget the sketch is the exact sorted
set of 64-bit value hashes — merging unions them and the estimate is
an exact distinct count; past the budget the sketch degrades to the
4 KiB register vector. The driver's sf0.01 cardinalities sit in the
sparse range, so ``approx_distinct_users`` is oracle-checkable against
``COUNT(DISTINCT ...)`` there, while the dense tier (unit-tested at
±5%) bounds memory at any scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .util import coarse_apply, collect, fold_blocks, tbl

P = 12  #: 2^12 = 4096 registers, ~1.6% standard error
M = 1 << P
#: max distinct hashes kept exactly per sketch before degrading to
#: registers (HLL++ sparse→dense cutoff; 4096 × 8 B = one 32 KiB
#: payload worst-case per (key, batch), bounded regardless of input)
SPARSE_MAX = 4096


def _registers(values: np.ndarray) -> np.ndarray:
    """HLL registers for a uint64 hash array (vectorized). Rank =
    leading zeros of the low 64-P bits (viewed MSB-first) + 1,
    computed exactly via float log2 over the top 53 bits — hashes
    whose first set bit is below bit 11 (probability 2^-53 per value)
    saturate to the max rank, a negligible bias."""
    idx = (values >> np.uint64(64 - P)).astype(np.int64)
    rest = values << np.uint64(P)  # the suffix, MSB-aligned
    hi = (rest >> np.uint64(11)).astype(np.float64)  # exact in float64
    with np.errstate(divide="ignore"):
        bitlen = np.where(hi > 0, np.floor(np.log2(np.maximum(hi, 1))) + 1 + 11, 0)
    lz = 64 - bitlen.astype(np.int64)
    rank = np.minimum(lz, 64 - P) + 1
    regs = np.zeros(M, dtype=np.uint8)
    np.maximum.at(regs, idx, rank.astype(np.uint8))
    return regs


def _estimate(regs: np.ndarray) -> float:
    alpha = 0.7213 / (1 + 1.079 / M)
    est = alpha * M * M / np.sum(2.0 ** (-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * M and zeros:
        est = M * np.log(M / zeros)  # small-range correction
    return float(est)


def merge_sketches(modes, payloads) -> int:
    """Merge per-batch sketches of one key → distinct-count estimate.
    All-sparse unions stay exact until the union itself exceeds
    ``SPARSE_MAX``; any dense part (or an oversized union) degrades
    the merge to a register max (each sparse part converts via
    :func:`_registers`)."""
    sparse_parts = [
        np.asarray(p, dtype=np.uint64) for m, p in zip(modes, payloads) if m == 0
    ]
    dense_parts = [
        np.asarray(p, dtype=np.uint8) for m, p in zip(modes, payloads) if m == 1
    ]
    if not dense_parts:
        union = (
            np.unique(np.concatenate(sparse_parts))
            if sparse_parts
            else np.empty(0, dtype=np.uint64)
        )
        if len(union) <= SPARSE_MAX:
            return int(len(union))  # exact
        dense_parts = [_registers(union)]
        sparse_parts = []
    regs = np.maximum.reduce(
        dense_parts + [_registers(s) for s in sparse_parts if len(s)]
    )
    return int(round(_estimate(regs)))


def approx_distinct_users(sf_dir: str):
    """Approximate distinct user_id per event_type via mergeable
    HLL++-style sketches: one sparse-or-dense payload per (key, batch)
    → per-key merge → count. Exact (oracle = COUNT(DISTINCT)) while
    cardinalities stay under ``SPARSE_MAX``; ±5% register estimate
    beyond (dense tier unit-tested)."""
    ds = tbl(sf_dir, "events", columns=["event_type", "user_id"])

    def sketch(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keys, modes, payloads = [], [], []
        for k, sub in df.groupby("event_type", sort=False):
            h = np.unique(
                pd.util.hash_array(sub["user_id"].to_numpy()).astype(np.uint64)
            )
            keys.append(k)
            if len(h) <= SPARSE_MAX:
                modes.append(0)
                payloads.append(h.tolist())
            else:
                modes.append(1)
                payloads.append(_registers(h).tolist())
        return pa.table(
            {
                "event_type": pa.array(keys, type=pa.string()),
                "mode": pa.array(modes, type=pa.int8()),
                "payload": pa.array(payloads, type=pa.list_(pa.uint64())),
            }
        )

    sketches = ds.map_batches(sketch, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        est = {
            k: merge_sketches(sub["mode"], sub["payload"])
            for k, sub in g.groupby("event_type", sort=False)
        }
        return pd.DataFrame(
            {"event_type": list(est), "approx_users": list(est.values())}
        )

    schema = pa.schema([("event_type", pa.string()), ("approx_users", pa.int64())])
    return coarse_apply(sketches, ["event_type"], merge, schema).sort("event_type")


def distinct_users_exact_and_sketch(sf_dir: str):
    """Recording fusion of the exact COUNT(DISTINCT) and the HLL
    sketch per event_type (both stay first-class ops; the driver's
    50-entry window forces merged recording): ``(event_type, n_users,
    approx_users)``. Both branches produce ≤|event_type| rows, so the
    driver-side merge is a bounded two-tiny-table pandas join — the
    documented measured-small collection shape, not a data-sized
    materialization."""
    from .relational import distinct_users_per_event_type

    exact = collect(
        distinct_users_per_event_type(sf_dir),
        pa.schema([("event_type", pa.string()), ("n_users", pa.int64())]),
    )
    approx = collect(
        approx_distinct_users(sf_dir),
        pa.schema([("event_type", pa.string()), ("approx_users", pa.int64())]),
    )
    return exact.merge(approx, on="event_type").sort_values(
        "event_type", ignore_index=True
    )


# ---------------------------------------------------------------------------
# Heavy hitters: exact distributed top-k terms + a Count-Min-Sketch
# tier (Cormode & Muthukrishnan 2005) whose memory is bounded by the
# d × w counter matrix regardless of vocabulary size.

#: (multiplier, offset) pairs for the d CMS hash rows — odd 64-bit
#: constants (splitmix64 increments), applied to one base hash.
_CMS_SEEDS = (
    (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9),
    (0x94D049BB133111EB, 0xD6E8FEB86659FD93),
    (0xA5A5A5A5A5A5A5A5, 0x0123456789ABCDEF),
    (0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9),
)


def heavy_hitter_terms(sf_dir: str, k: int = 20):
    """EXACT corpus-wide top-k most frequent whitespace tokens:
    per-batch token-count partials (one row per distinct term per
    batch — the shuffle moves counts, not tokens), ONE coarse keyed
    shuffle summing per term with a per-bucket top-k (exact: a term
    lives entirely in one bucket), then a ``fold_blocks`` top-k of the
    per-bucket top-ks.
    Ties broken (count desc, term asc). SQL-checkable; the
    bounded-memory scale tier is :func:`cms_heavy_hitters` (asserted
    to find the same top-k in tests)."""
    from .util import coarse_apply

    ds = tbl(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        # NOTE oracle parity: .str.split() splits on UNICODE whitespace
        # while the DuckDB oracle's RE2 '\S+' treats only ASCII
        # [\t\n\f\r ] as separators — equal on the generator-controlled
        # corpus (no exotic whitespace, verified), latent divergence on
        # text containing U+00A0/\x0b (r5 review; same class as the
        # CLAUDE.md Series.str.split literal-vs-regex rule)
        toks = (
            batch.to_pandas()["text"].fillna("").str.split().explode().dropna()
        )
        vc = toks.value_counts()
        return pa.table(
            {
                "term": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                "c": pa.array(vc.to_numpy(np.int64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby("term", sort=False)["c"].sum().reset_index()
        return agg.sort_values(
            ["c", "term"], ascending=[False, True], kind="mergesort"
        ).head(k)

    cand = coarse_apply(
        parts,
        ["term"],
        bucket_topk,
        pa.schema([("term", pa.string()), ("c", pa.int64())]),
    )

    def top(t: pa.Table) -> pa.Table:
        return t.sort_by([("c", "descending"), ("term", "ascending")]).slice(0, k)

    def rank(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "rank": pa.array(np.arange(1, t.num_rows + 1, dtype=np.int64)),
                "term": t["term"],
                "term_count": t["c"],
            }
        )

    return fold_blocks(cand, top, rank)


def _cms_rows(h: np.ndarray, w: int) -> np.ndarray:
    """(d, n) CMS column indices for a uint64 base-hash array."""
    idx = np.empty((len(_CMS_SEEDS), len(h)), dtype=np.int64)
    for r, (a, b) in enumerate(_CMS_SEEDS):
        mixed = h * np.uint64(a) + np.uint64(b)  # wraps mod 2^64
        idx[r] = (mixed % np.uint64(w)).astype(np.int64)
    return idx


def cms_heavy_hitters(sf_dir: str, k: int = 20, w: int = 1 << 13, cand: int = 64):
    """Count-Min-Sketch heavy hitters — the bounded-memory scale tier:
    each batch emits ONE row (its d×w counter matrix + its local
    top-``cand`` candidate terms); ``fold_blocks`` sums the matrices
    and unions the candidates (the driver collects exactly one folded
    row), then ranks the candidate union by the CMS
    min-estimate. Estimates only ever OVERCOUNT (collision bias), so a
    true heavy hitter cannot be pushed out by undercounting; tested
    against :func:`heavy_hitter_terms` plus the overestimate
    property."""
    d = len(_CMS_SEEDS)
    ds = tbl(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        # NOTE oracle parity: .str.split() splits on UNICODE whitespace
        # while the DuckDB oracle's RE2 '\S+' treats only ASCII
        # [\t\n\f\r ] as separators — equal on the generator-controlled
        # corpus (no exotic whitespace, verified), latent divergence on
        # text containing U+00A0/\x0b (r5 review; same class as the
        # CLAUDE.md Series.str.split literal-vs-regex rule)
        toks = (
            batch.to_pandas()["text"].fillna("").str.split().explode().dropna()
        )
        vc = toks.value_counts()
        terms = vc.index.to_numpy(dtype=object)
        counts = vc.to_numpy(np.int64)
        cms = np.zeros((d, w), dtype=np.int64)
        if len(terms):
            h = pd.util.hash_array(terms).astype(np.uint64)
            rows = _cms_rows(h, w)
            for r in range(d):
                np.add.at(cms[r], rows[r], counts)
        return pa.table(
            {
                "cms": pa.array([cms.reshape(-1)], pa.list_(pa.int64())),
                "cand_terms": pa.array(
                    [terms[:cand].tolist()], pa.list_(pa.string())
                ),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        """Sum the CMS matrices, union the candidate lists — the driver
        collects ONE folded row, never a per-block list (at 100 TB that
        list is millions of d×w payloads)."""
        # summed in the blocks' own int64 buffer (one (rows, d·w) view),
        # not as Python lists: a matrix is d·w ints, ~1.2 MB as objects
        mats = t["cms"].combine_chunks().flatten().to_numpy()
        cands = set(t["cand_terms"].combine_chunks().flatten().to_pylist())
        return pa.table(
            {
                "cms": pa.array(
                    [mats.reshape(-1, d * w).sum(axis=0)], pa.list_(pa.int64())
                ),
                "cand_terms": pa.array([sorted(cands)], pa.list_(pa.string())),
            }
        )

    rows = fold_blocks(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None), combine
    ).take_all()
    # a fragmented final combine would silently return a PARTIAL CMS
    # matrix (ADVICE r3): fail loudly instead
    assert len(rows) == 1, f"CMS final fold fragmented: {len(rows)} rows"
    row = rows[0]
    total = np.asarray(row["cms"], dtype=np.int64).reshape(d, w)
    terms = np.asarray(sorted(row["cand_terms"]), dtype=object)
    if len(terms) == 0:
        return pd.DataFrame({"rank": [], "term": [], "est_count": []})
    h = pd.util.hash_array(terms).astype(np.uint64)
    rows = _cms_rows(h, w)
    est = np.min(
        np.stack([total[r][rows[r]] for r in range(d)], axis=0), axis=0
    )
    order = np.lexsort((terms, -est))[:k]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(order) + 1, dtype=np.int64),
            "term": terms[order],
            "est_count": est[order],
        }
    )


# ---------------------------------------------------------------------------
# Quantile sketch: per-key value quantiles with an EXACT sparse tier
# (the HLL++ pattern applied to quantiles): below a distinct-value
# budget the mergeable state is the exact (value, count) histogram and
# the quantiles are exact (= DuckDB quantile_disc); beyond it the
# sketch degrades to a deterministic min-hash reservoir (the k events
# with the smallest splitmix64(event_id) — a uniform, mergeable,
# layout-independent sample) with rank-error tested in pytest.

#: distinct values per key before the histogram degrades to a
#: reservoir (2^16 × 16 B = 1 MiB per key worst case, bounded).
Q_SPARSE_MAX = 1 << 16
#: reservoir size of the degraded tier.
Q_RESERVOIR = 1024
#: the recorded quantiles and their column names.
QS = ((0.25, "q25"), (0.5, "q50"), (0.75, "q75"), (0.9, "q90"), (0.99, "q99"))


def _disc_quantiles(v_sorted: np.ndarray, weights: np.ndarray) -> list[float]:
    """Discrete quantiles of a weighted sorted multiset: element at
    1-based rank ``ceil(q·n)`` — DuckDB's ``quantile_disc`` convention
    (probed across n ∈ {4,5,7,10} × five quantiles)."""
    cum = np.cumsum(weights)
    n = int(cum[-1])
    out = []
    for q, _ in QS:
        rank = max(1, int(np.ceil(q * n)))  # 1-based
        out.append(float(v_sorted[np.searchsorted(cum, rank)]))
    return out


def _quantile_schema(key_col: str, key_type: pa.DataType) -> pa.Schema:
    """:func:`value_quantile_sketch`'s output: ``(key, mode, q25..q99)``."""
    return pa.schema(
        [(key_col, key_type), ("mode", pa.string())]
        + [(name, pa.float64()) for _, name in QS]
    )


def value_quantile_sketch(
    sf_dir: str,
    sparse_max: int = Q_SPARSE_MAX,
    ds=None,
    key_col: str = "event_type",
    id_col: str = "event_id",
    value_col: str = "value",
):
    """Per-key quantiles of a double column via mergeable sketches:
    one payload per (key, batch) — the batch's exact (value, count)
    histogram plus its min-hash reservoir — merged per key. All-sparse
    unions under ``Q_SPARSE_MAX`` distinct values give EXACT
    ``quantile_disc`` answers (the oracle-checked regime at every
    driver sf); oversized unions fall back to the merged reservoir
    (±rank-error tested).

    Defaults to the events table ``(event_type, event_id, value)``;
    pass ``ds``/``key_col``/``id_col``/``value_col`` to sketch any
    keyed double column (``id_col`` must be a unique int64 — it seeds
    the deterministic reservoir). The key keeps its type in ``ds``'s
    schema."""
    from .sampling import splitmix64

    if ds is None:
        ds = tbl(sf_dir, "events", columns=[key_col, id_col, value_col])
    key_type = ds.schema().base_schema.field(key_col).type

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = []
        for k, sub in df.groupby(key_col, sort=False):
            vc = sub[value_col].value_counts()
            h = splitmix64(sub[id_col].to_numpy().astype(np.uint64))
            order = np.argsort(h)[:Q_RESERVOIR]
            # payload bound (review fix): a batch whose per-key
            # distinct-value count exceeds the budget ships an EMPTY
            # histogram + degraded flag — every payload is ≤ sparse_max
            # (value,count) pairs + the Q_RESERVOIR sample, so the
            # merge state is bounded regardless of value cardinality
            # (the HLL sparse→dense shape applied to quantiles)
            degraded = len(vc) > sparse_max
            rows.append(
                {
                    key_col: k,
                    "degraded": bool(degraded),
                    "vals": []
                    if degraded
                    else vc.index.to_numpy(np.float64).tolist(),
                    "cnts": []
                    if degraded
                    else vc.to_numpy(np.int64).tolist(),
                    "res_h": h[order].astype(np.int64).tolist(),
                    "res_v": sub[value_col]
                    .to_numpy(np.float64)[order]
                    .tolist(),
                }
            )
        # one EXPLICIT schema for every partial (r5 review: from_pylist
        # inferred vals/cnts as list<null> when a batch's keys were all
        # degraded, mixing block schemas across the shuffle; the key
        # type comes from the input so non-string keys work too)
        schema = pa.schema(
            [
                (key_col, key_type),
                ("degraded", pa.bool_()),
                ("vals", pa.list_(pa.float64())),
                ("cnts", pa.list_(pa.int64())),
                ("res_h", pa.list_(pa.int64())),
                ("res_v", pa.list_(pa.float64())),
            ]
        )
        return pa.Table.from_pylist(rows, schema=schema)

    sketches = ds.map_batches(partial, batch_format="pyarrow")

    def merge_key(key, g: pd.DataFrame) -> dict:
        vals = np.concatenate([np.asarray(x, np.float64) for x in g["vals"]])
        cnts = np.concatenate([np.asarray(x, np.int64) for x in g["cnts"]])
        hist = pd.Series(cnts).groupby(pd.Series(vals)).sum()
        if not g["degraded"].any() and len(hist) <= sparse_max:
            v_sorted = hist.index.to_numpy(np.float64)  # groupby sorts keys
            qs = _disc_quantiles(v_sorted, hist.to_numpy(np.int64))
            mode = "exact"
        else:
            h = np.concatenate([np.asarray(x, np.int64) for x in g["res_h"]])
            v = np.concatenate([np.asarray(x, np.float64) for x in g["res_v"]])
            keep = np.argsort(h.astype(np.uint64))[:Q_RESERVOIR]
            sample = np.sort(v[keep])
            qs = _disc_quantiles(sample, np.ones(len(sample), np.int64))
            mode = "reservoir"
        return {key_col: key, "mode": mode} | {
            name: val for (_, name), val in zip(QS, qs)
        }

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            [merge_key(k, sub) for k, sub in g.groupby(key_col, sort=False)]
        )

    return coarse_apply(
        sketches, [key_col], merge, _quantile_schema(key_col, key_type)
    ).sort(key_col)


def event_type_sketches(sf_dir: str):
    """Recording fusion of the three per-event_type sketch families
    (each stays first-class): exact COUNT(DISTINCT) + the HLL estimate
    + the value-quantile sketch — ``(event_type, n_users,
    approx_users, q25..q99)``. All branches produce ≤|event_type|
    rows, so the driver-side merge is a bounded tiny-table join. The
    sketch tiers are exact at every driver sf (HLL sparse,
    quantile-histogram sparse), making the whole row SQL-checkable."""
    base = distinct_users_exact_and_sketch(sf_dir)
    quant = collect(
        value_quantile_sketch(sf_dir), _quantile_schema("event_type", pa.string())
    ).drop(columns=["mode"])
    return base.merge(quant, on="event_type").sort_values(
        "event_type", ignore_index=True
    )


def quantile_filter(
    sf_dir: str,
    q: float = 0.25,
    ds=None,
    key_col: str = "source",
    id_col: str = "doc_id",
    value_col: str = "n_chars",
):
    """Per-key quantile-threshold filter — the classic curation move
    "drop everything below its source's q-th length/quality
    percentile", composed from :func:`value_quantile_sketch`:

    1. the sketch computes each key's q-quantile (exact-histogram tier
       at driver scales; bounded reservoir beyond),
    2. the ≤|keys|-row threshold table broadcasts via ``ray.put``,
    3. one shuffle-free vectorized scan emits ``(id, key, value,
       threshold, keep)`` with ``keep = value >= threshold``.

    Defaults to per-source document length over ``documents``. The
    whole chain replays exactly in DuckDB (``quantile_disc`` per key +
    the same comparison) — pytest-gated (tests/test_sketch_asof.py);
    the driver window is full, so this op is recorded through its two
    constituents (q:`event_type_sketches` gates the sketch itself)."""
    import ray

    assert any(abs(q - qq) < 1e-12 for qq, _ in QS), f"q must be one of {QS}"
    col = next(name for qq, name in QS if abs(q - qq) < 1e-12)
    if ds is None:
        ds = tbl(sf_dir, "documents", columns=[key_col, id_col, value_col])
    thr_df = collect(
        value_quantile_sketch(
            sf_dir, ds=ds, key_col=key_col, id_col=id_col, value_col=value_col
        ),
        _quantile_schema(key_col, ds.schema().base_schema.field(key_col).type),
    )
    thr_ref = ray.put(
        pd.Series(thr_df[col].to_numpy(), index=thr_df[key_col].to_numpy())
    )

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        # worker-cache the broadcast threshold Series instead of
        # re-deserializing it per batch (ADVICE r3; the repo's
        # cached_for_ref convention)
        from .util import cached_for_ref

        thr = cached_for_ref(
            "quantile-filter-thr", thr_ref, lambda: ray.get(thr_ref)
        )
        t = batch[key_col].map(thr).to_numpy(np.float64)
        v = batch[value_col].to_numpy(np.float64)
        return pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(np.int64),
                key_col: batch[key_col],
                value_col: batch[value_col],
                "threshold": t,
                "keep": v >= t,
            }
        )

    # Datasets are lazy/re-executable: the same plan feeds the sketch
    # pass above and the flag scan below
    return ds.map_batches(flag, batch_format="pandas")
