"""Exact all-pairs validator for minhash_dedup / dedup_clusters.

The DuckDB replays of these two queries are quadratic SQL (list_
intersect over every candidate pair / a recursive-CTE component
search) — ~15 minutes at sf0.1 — so at sf ≥ 0.05 the oracle is THIS
script's exact numpy all-pairs Jaccard ground truth, built with the
bincount pair-key trick (seconds at sf0.1): tools/check_correctness.py
uses :func:`exact_pairs` / :func:`exact_clusters` in process, and
``main`` compares them row-for-row against the Ray pipeline.

Usage: python tools/verify_pairs.py [sf_dir] [threshold]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def exact_pairs(sf_dir: str, threshold: float, k: int = 3) -> pd.DataFrame:
    """All-pairs word-shingle Jaccard ≥ threshold, exactly
    (same shingle definition as ops.dedup._shingle_strings)."""
    docs = pd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).sort_values("doc_id", ignore_index=True)
    from lexor_ray.ops.dedup import _shingle_strings

    ids = docs["doc_id"].to_numpy(np.int64)
    sets = [_shingle_strings(t, k) for t in docs["text"].fillna("")]
    sizes = np.array([len(s) for s in sets], dtype=np.int64)
    # invert: shingle -> doc positions; intersections via per-shingle
    # pair expansion counted with ONE bincount over packed pair keys
    inv: dict[str, list[int]] = {}
    for pos, s in enumerate(sets):
        for sh in s:
            inv.setdefault(sh, []).append(pos)
    n = len(docs)
    keys = []
    for positions in inv.values():
        if len(positions) < 2:
            continue
        p = np.asarray(positions, dtype=np.int64)
        # chunk the pair expansion: a corpus-common shingle shared by
        # m docs would otherwise allocate an m×m meshgrid in one shot
        # (~60 GB at m=50k) — emit the same i<j pairs in bounded slabs
        # of ≤2^22 candidate cells (r5 review)
        step = max(1, (1 << 22) // len(p))
        for s in range(0, len(p), step):
            left = p[s : s + step]
            a = np.repeat(left, len(p))
            b = np.tile(p, len(left))
            m = a < b
            if m.any():
                keys.append(a[m] * n + b[m])
    if not keys:
        return pd.DataFrame(
            {"a": pd.Series([], dtype="int64"),
             "b": pd.Series([], dtype="int64"),
             "jaccard": pd.Series([], dtype="float64")}
        )
    flat = np.concatenate(keys)
    # unique, not bincount: a dense count array spans the n^2 packed
    # key space (~20 GB at 50k docs) while the emitted pair keys are
    # few; unique's memory is proportional to len(flat) (r4 review)
    nz, cnt = np.unique(flat, return_counts=True)
    ai, bi = nz // n, nz % n
    inter = cnt.astype(np.float64)
    union = sizes[ai] + sizes[bi] - inter
    jac = inter / union
    keep = jac >= threshold
    return pd.DataFrame(
        {
            "a": ids[ai[keep]],
            "b": ids[bi[keep]],
            # same floor-truncation as the pipeline emits
            "jaccard": np.floor(jac[keep] * 10000) / 10000,
        }
    ).sort_values(["a", "b"], ignore_index=True)


def exact_clusters(pairs: pd.DataFrame) -> pd.DataFrame:
    """Connected components (min-doc_id label) over the exact pairs."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a"], pairs["b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rows = sorted((d, find(d)) for d in parent)
    return pd.DataFrame(
        {"doc_id": [d for d, _ in rows], "cluster_id": [c for _, c in rows]}
    ).astype("int64")


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    threshold = float(sys.argv[2]) if len(sys.argv) > 2 else 0.8

    import ray

    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from lexor_ray.ops.dedup import dedup_clusters, minhash_dedup

    t0 = time.time()
    got_pairs = (
        minhash_dedup(sf_dir, threshold=threshold)
        .to_pandas()[["a", "b", "jaccard"]]
        .sort_values(["a", "b"], ignore_index=True)
    )
    got_clusters = (
        dedup_clusters(sf_dir, threshold=threshold)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    ray.shutdown()
    t_ray = time.time() - t0

    t0 = time.time()
    want_pairs = exact_pairs(sf_dir, threshold)
    want_clusters = exact_clusters(want_pairs)
    t_np = time.time() - t0

    ok = True
    try:
        pd.testing.assert_frame_equal(got_pairs, want_pairs, check_dtype=False)
        print(f"ok   minhash_dedup: {len(got_pairs)} pairs match exact "
              f"all-pairs (ray {t_ray:.1f}s, numpy {t_np:.1f}s)")
    except AssertionError as exc:
        print(f"FAIL minhash_dedup: {str(exc)[:400]}")
        ok = False
    try:
        pd.testing.assert_frame_equal(
            got_clusters.reset_index(drop=True), want_clusters,
            check_dtype=False,
        )
        print(f"ok   dedup_clusters: {len(got_clusters)} rows match exact "
              "components")
    except AssertionError as exc:
        print(f"FAIL dedup_clusters: {str(exc)[:400]}")
        ok = False
    print("ALL OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
