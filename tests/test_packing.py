"""Greedy sequence packing: naive-reference parity + full invariants."""

import numpy as np
import pandas as pd

from lexor_ray.ops.packing import _pack_shard, pack_sequences
from lexor_ray.ops.sampling import splitmix64

SF = "/root/testdata/sf0.001"
BUDGET = 64


def naive_pack(tok):
    """Independent per-document reference: the textbook greedy loop."""
    bins, pos = [], []
    b, fill, p = 0, 0, 0
    for t in tok:
        if fill > 0 and fill + t > BUDGET:
            b, fill, p = b + 1, 0, 0
        bins.append(b)
        pos.append(p)
        fill += t
        p += 1
    return np.array(bins), np.array(pos)


def test_pack_shard_matches_naive_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        tok = rng.integers(1, BUDGET * 2, size=int(rng.integers(0, 200)))
        got_bin, got_pos = _pack_shard(tok.astype(np.int64), BUDGET)
        want_bin, want_pos = naive_pack(tok)
        np.testing.assert_array_equal(got_bin, want_bin)
        np.testing.assert_array_equal(got_pos, want_pos)


def test_pack_sequences_invariants(ray_session):
    got = pack_sequences(SF, budget=BUDGET).to_pandas().sort_values("doc_id")
    src = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    # every document exactly once
    assert sorted(got["doc_id"]) == sorted(src["doc_id"])
    # token counts consistent with the whitespace tokenizer
    want_tok = src.set_index("doc_id")["text"].fillna("").str.count(r"\S+")
    assert (
        got.set_index("doc_id")["n_tokens"].sort_index() == want_tok.sort_index()
    ).all()
    # shard assignment is the documented hash
    ids = got["doc_id"].to_numpy(np.uint64)
    assert (
        got["shard"].to_numpy() == (splitmix64(ids) % np.uint64(64)).astype(np.int64)
    ).all()
    for shard, g in got.groupby("shard"):
        g = g.sort_values("doc_id")
        sums = g.groupby("bin_idx")["n_tokens"].sum()
        sizes = g.groupby("bin_idx").size()
        # budget respected except for singleton oversize bins
        bad = sums[sums > BUDGET]
        assert (sizes[bad.index] == 1).all()
        assert (g[g["oversize"]]["n_tokens"] > BUDGET).all()
        # bins contiguous 0..B-1, nondecreasing in doc order, positions 0..k-1
        b = g["bin_idx"].to_numpy()
        assert (np.diff(b) >= 0).all()
        assert set(b) == set(range(b.max() + 1)) if len(b) else True
        assert (
            g.groupby("bin_idx").cumcount().to_numpy() == g["pos_in_bin"].to_numpy()
        ).all()
        # greedy tightness: the first doc of bin b+1 did not fit in bin b
        firsts = g[g["pos_in_bin"] == 0].iloc[1:]
        prev_sums = sums.iloc[:-1].to_numpy() if len(sums) > 1 else np.array([])
        assert (prev_sums + firsts["n_tokens"].to_numpy() > BUDGET).all()


def test_pack_sequences_layout_independent(ray_session):
    """The same op over a different block layout gives the identical
    plan; the output is unordered (README ordering contract), so the
    plans are compared in doc_id order."""
    import ray.data

    def plan(ds):
        return ds.to_pandas().sort_values("doc_id", ignore_index=True)

    a = plan(pack_sequences(SF, budget=BUDGET))
    ds = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).repartition(9)
    from lexor_ray.ops import packing

    orig_tbl = packing.tbl
    packing.tbl = lambda *args, **kw: ds
    try:
        b = plan(pack_sequences(SF, budget=BUDGET))
    finally:
        packing.tbl = orig_tbl
    pd.testing.assert_frame_equal(a, b)


def test_pack_sequences_matches_recursive_cte(ray_session):
    """The driver oracle: the full plan (splitmix64 shard, doc_id
    order, greedy bins) replayed by the RECURSIVE CTE is exact."""
    import duckdb

    from lexor_ray.ops.packing import pack_sequences_oracle_sql

    got = (
        pack_sequences(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    want = (
        con.sql(pack_sequences_oracle_sql(SF + "/documents.parquet"))
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
