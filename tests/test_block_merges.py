"""Per-block fold + keyed merge of the per-user operators: for any
split of the events into blocks, merging the per-block partials gives
what one pass over the whole frame gives (``events_sessionize``'s
``session_partials`` / ``merge_sessions``; ``top_events_per_user``'s
``user_topk``). No Ray: the merge is what one ``coarse_apply`` bucket
runs, so concatenating the partials stands in for the shuffle."""

import numpy as np
import pandas as pd
import pytest

from lexor_ray.ops.relational import merge_sessions, session_partials, user_topk

GAP_S = 600
BOT = 7


def _events(rng: np.random.Generator) -> pd.DataFrame:
    """Random events: a few light users, one bot with most rows, times
    on a coarse grid around the epoch (pre-epoch and equal timestamps
    both occur), gaps straddling ``GAP_S``."""
    n_light = int(rng.integers(1, 40))
    n_bot = int(rng.integers(0, 300))
    users = np.concatenate(
        [rng.integers(100, 106, n_light), np.full(n_bot, BOT)]
    )
    step = rng.choice([0, 200, 500, 600, 601, 1_000, 5_000], len(users))
    ts_s = rng.integers(-20_000, 20_000) + np.cumsum(step)
    ts_us = rng.permutation(ts_s) * 1_000_000
    return pd.DataFrame(
        {
            "user_id": users.astype(np.int64),
            "event_id": rng.permutation(len(users)).astype(np.int64),
            "ts": pd.Series(ts_us.astype("datetime64[us]")),
        }
    )


def _split(df: pd.DataFrame, rng: np.random.Generator) -> list[pd.DataFrame]:
    n_blocks = int(rng.integers(1, 6))
    which = rng.integers(0, n_blocks, len(df))
    return [df[which == b] for b in range(n_blocks) if (which == b).any()]


def _whole_sessions(df: pd.DataFrame) -> pd.DataFrame:
    """One pass over each user's time-sorted events."""
    rows = []
    ts_us = df["ts"].astype("datetime64[us]").astype("int64")
    for uid, ts in sorted(zip(df["user_id"], ts_us)):
        if rows and rows[-1][0] == uid and ts - rows[-1][2] <= GAP_S * 1_000_000:
            rows[-1][2] = ts
            rows[-1][3] += 1
        else:
            rows.append([uid, ts, ts, 1])
    return pd.DataFrame(
        rows, columns=["user_id", "session_start", "session_end", "n_events"]
    )


def _whole_topk(df: pd.DataFrame, k: int) -> pd.DataFrame:
    ts_us = df["ts"].astype("datetime64[us]").astype("int64")
    ranked = sorted(zip(df["user_id"], -ts_us, df["event_id"]))
    rows, prev, rank = [], None, 0
    for uid, neg_ts, eid in ranked:
        rank = rank + 1 if uid == prev else 1
        prev = uid
        if rank <= k:
            rows.append([uid, eid, -neg_ts, rank])
    return pd.DataFrame(rows, columns=["user_id", "event_id", "ts_us", "rank"])


def _merged_sessions(blocks: list[pd.DataFrame]) -> pd.DataFrame:
    parts = pd.concat([session_partials(b, GAP_S) for b in blocks])
    return merge_sessions(parts, GAP_S)


def _same(got: pd.DataFrame, want: pd.DataFrame, keys: list[str]):
    got = got[list(want.columns)].sort_values(keys, ignore_index=True)
    pd.testing.assert_frame_equal(
        got, want.sort_values(keys, ignore_index=True), check_dtype=False
    )


@pytest.mark.parametrize("seed", range(40))
def test_block_merges_equal_whole_frame(seed):
    rng = np.random.default_rng(seed)
    df = _events(rng)
    blocks = _split(df, rng)
    _same(_merged_sessions(blocks), _whole_sessions(df), ["user_id", "session_start"])
    k = int(rng.integers(1, 5))
    topk = user_topk(
        pd.concat(
            [
                user_topk(b.assign(ts_us=b["ts"].astype("int64")), k)
                for b in blocks
            ]
        ),
        k,
    )
    _same(topk, _whole_topk(df, k), ["user_id", "rank"])


def test_nested_block_session_merges():
    """Block A holds one session [0 s, 5000 s]; block B's two partials
    [100 s] and [5500 s] sort around A's. The previous row's end (100 s)
    would split 5500 s off; the running max of earlier ends (5000 s)
    keeps all of them one session."""
    a = np.arange(0, 5_001, 500)
    b = np.array([100, 5_500])

    def block(ts_s):
        return pd.DataFrame(
            {
                "user_id": np.full(len(ts_s), BOT, np.int64),
                "ts": pd.Series((ts_s * 1_000_000).astype("datetime64[us]")),
            }
        )

    parts = pd.concat(
        [session_partials(block(a), GAP_S), session_partials(block(b), GAP_S)]
    )
    assert len(parts) == 3
    ordered = parts.sort_values("session_start")
    past_prev_end = ordered["session_start"] - ordered["session_end"].shift()
    assert (past_prev_end > GAP_S * 1_000_000).any()
    got = merge_sessions(parts, GAP_S)
    assert got.values.tolist() == [[BOT, 0, 5_500_000_000, len(a) + len(b)]]
