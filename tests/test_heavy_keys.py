"""Heavy users. The as-of join keeps a pre-count guard: a planted
bot owning ~50% of all events must be flagged by the distributed
pre-count, processed in bounded time-sliced tasks, and the two-pass
result must equal the single-pass (unguarded) one row-for-row.
Sessionize and per-user top-k have one path, a per-block fold before
the keyed shuffle: on the same bots they must equal their DuckDB
oracles, and the bot must reach the shuffle as a few rows per block.
"""

import pathlib
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lexor_ray.ops.relational import (
    events_asof_join,
    events_sessionize,
    session_partials,
    top_events_per_user,
)
from lexor_ray.ops.util import heavy_keys, tbl

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

BOT = 9_999
SLICE_S = 3_600  # 1-hour slices for the test
THRESH = 1_000


@pytest.fixture(scope="module")
def bot_events(tmp_path_factory):
    """~50% of rows belong to ONE user: 5000 bot events at a 200 s
    cadence (sessions span many hourly slices; a >600 s idle gap every
    400 events plants true session breaks), purchases only every 97th
    bot event (most slices have none -> the asof cross-slice repair
    engages). 100 normal users hold the other half."""
    rng = np.random.default_rng(61)
    base = 1_700_000_000_000_000  # epoch us
    rows = {"event_id": [], "ts": [], "user_id": [], "event_type": [], "value": []}
    eid = 0

    def add(ts_us, uid, et, val):
        nonlocal eid
        rows["event_id"].append(eid)
        rows["ts"].append(ts_us)
        rows["user_id"].append(uid)
        rows["event_type"].append(et)
        rows["value"].append(val)
        eid += 1

    t = base
    n_extra = 0
    for i in range(5000):
        t += 200_000_000  # 200 s
        if i % 400 == 399:
            t += 1_000_000_000  # 1000 s idle: a true session break
        et = "purchase" if i % 97 == 0 else "click"
        if et == "purchase" and i % 291 == 0:
            # a valued purchase IMMEDIATELY followed (same slice) by a
            # NaN-valued one: the slice-last purchase row must carry
            # the NaN, not splice the earlier value onto the later ts
            # (r4 review: groupby(...).last() skips NaN per column)
            add(t - 10_000_000, BOT, et, float(i % 50) + 0.25)
            n_extra += 1
            add(t, BOT, et, float("nan"))
        else:
            add(t, BOT, et, float(i % 50) + 0.25)
    for u in range(100):
        tu = base + int(rng.integers(0, 5_000_000)) * 1_000_000
        for j in range(50):
            tu += int(rng.integers(1, 2000)) * 1_000_000
            et = "purchase" if j % 5 == 0 else "click"
            add(tu, 100 + u, et, float(j) + 0.5)
    d = tmp_path_factory.mktemp("botevents")
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(rows["event_id"], pa.int64()),
                "ts": pa.array(rows["ts"], pa.timestamp("us")),
                "user_id": pa.array(rows["user_id"], pa.int64()),
                "event_type": pa.array(rows["event_type"], pa.string()),
                "value": pa.array(rows["value"], pa.float64()),
            }
        ),
        d / "events.parquet",
    )
    return str(d)


def test_heavy_precount_flags_exactly_the_bot(ray_session, bot_events):
    h = heavy_keys(
        tbl(bot_events, "events", columns=["user_id"]), "user_id", pa.int64(), THRESH
    )
    assert h["user_id"].tolist() == [BOT]
    assert int(h["n"].iloc[0]) == 5018  # 5000 + 18 planted NaN pairs


def test_slicing_bounds_per_task_rows(bot_events):
    """The invariant the guard provides: under the ts // width salt no
    (user, slice) group holds more than a slice's worth of the bot."""
    df = pq.read_table(f"{bot_events}/events.parquet").to_pandas()
    bot = df[df["user_id"] == BOT]
    ts_us = bot["ts"].astype("datetime64[us]").astype("int64")
    per_slice = (ts_us // (SLICE_S * 1_000_000)).value_counts()
    assert len(bot) == 5018  # one task's load without the guard
    assert per_slice.max() <= SLICE_S // 200 + 2  # ~18 rows per task


def _sorted(df, cols):
    return df.sort_values(cols, ignore_index=True)


@pytest.fixture(scope="module")
def oracle_sql():
    import __ray_entry__

    return __ray_entry__.oracle_sql()


def _oracle(sql: dict, name: str, sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')"
    )
    return con.sql(sql[name]).df()


def _assert_oracle(got: pd.DataFrame, want: pd.DataFrame, cols: list[str]):
    pd.testing.assert_frame_equal(
        _sorted(got, cols), _sorted(want[got.columns], cols), check_dtype=False
    )


def test_sessionize_bot_matches_oracle(ray_session, bot_events, oracle_sql):
    got = events_sessionize(bot_events).to_pandas()
    _assert_oracle(
        got,
        _oracle(oracle_sql, "events_sessionize", bot_events),
        ["user_id", "session_start"],
    )
    # the bot's sessions span many hours of events
    bot = got[got["user_id"] == BOT]
    assert len(bot) >= 2  # the planted idle gaps broke sessions
    dur_h = (bot["session_end"] - bot["session_start"]).max() / 3.6e9
    assert dur_h > 5
    # ...yet it reaches the shuffle as a few session partials per read
    # batch (its events are stored in time order), not 5018 events. The
    # whole table is one read batch under the default block cap; a
    # lowered cap makes the bot span several.
    from ray.data import DataContext

    ctx = DataContext.get_current()
    cap = ctx.target_max_block_size
    ctx.target_max_block_size = 32 * 1024
    try:
        blocks = tbl(bot_events, "events", columns=["user_id", "ts"]).materialize()
    finally:
        ctx.target_max_block_size = cap
    parts = blocks.map_batches(
        lambda b: session_partials(b, 600), batch_format="pandas"
    ).to_pandas()
    assert blocks.num_blocks() >= 2
    n_bot = int((parts["user_id"] == BOT).sum())
    assert n_bot <= (len(bot) + 1) * blocks.num_blocks()


def test_asof_guarded_equals_unguarded(ray_session, bot_events):
    guarded = events_asof_join(
        bot_events, heavy_threshold=THRESH, slice_width_s=SLICE_S
    ).to_pandas()
    plain = events_asof_join(bot_events, heavy_threshold=10**9).to_pandas()
    pd.testing.assert_frame_equal(
        _sorted(guarded, ["event_id"]), _sorted(plain, ["event_id"]),
        check_dtype=False,
    )
    # the repair path really ran: some bot clicks had no same-slice
    # purchase (purchases are ~97 events = ~5.4 h apart, slices are 1 h)
    df = pq.read_table(f"{bot_events}/events.parquet").to_pandas()
    bot = df[df["user_id"] == BOT]
    sl = bot["ts"].astype("datetime64[us]").astype("int64") // (
        SLICE_S * 1_000_000
    )
    has_purch = bot.groupby(sl.to_numpy())["event_type"].apply(
        lambda s: (s == "purchase").any()
    )
    assert (~has_purch).sum() > 50  # many purchaseless slices


@pytest.fixture(scope="module")
def pre_epoch_bot(tmp_path_factory):
    """A flagged heavy user whose stream STARTS BEFORE THE EPOCH: the
    raw ``1 + ts_us // width`` slice salt goes ≤ 0 there and aliases
    the light sentinel, silently dropping those rows from the asof
    cross-slice repair (r4 review). One pre-epoch purchase is the only
    purchase before a long run of post-epoch clicks, so the guarded
    path must carry it across the epoch boundary."""
    rows = {"event_id": [], "ts": [], "user_id": [], "event_type": [], "value": []}

    def add(eid, ts_us, uid, et, val):
        rows["event_id"].append(eid)
        rows["ts"].append(ts_us)
        rows["user_id"].append(uid)
        rows["event_type"].append(et)
        rows["value"].append(val)

    eid = 0
    t = -2_000 * 200_000_000  # ~4.6 days before the epoch
    for i in range(4000):  # bot spans pre- -> post-epoch
        t += 200_000_000
        et = "purchase" if i == 100 else "click"  # single pre-epoch purchase
        add(eid, t, BOT, et, 42.25 if et == "purchase" else float(i))
        eid += 1
    for u in range(20):  # light users keep the pre-count honest
        for j in range(30):
            add(eid, (u * 30 + j) * 1_000_000_000, 100 + u,
                "purchase" if j % 7 == 0 else "click", float(j))
            eid += 1
    d = tmp_path_factory.mktemp("preepoch")
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(rows["event_id"], pa.int64()),
                "ts": pa.array(rows["ts"], pa.timestamp("us")),
                "user_id": pa.array(rows["user_id"], pa.int64()),
                "event_type": pa.array(rows["event_type"], pa.string()),
                "value": pa.array(rows["value"], pa.float64()),
            }
        ),
        d / "events.parquet",
    )
    return str(d)


def test_pre_epoch_heavy_user_asof_and_sessions(
    ray_session, pre_epoch_bot, oracle_sql
):
    g_asof = events_asof_join(
        pre_epoch_bot, heavy_threshold=THRESH, slice_width_s=SLICE_S
    ).to_pandas()
    p_asof = events_asof_join(pre_epoch_bot, heavy_threshold=10**9).to_pandas()
    pd.testing.assert_frame_equal(
        _sorted(g_asof, ["event_id"]), _sorted(p_asof, ["event_id"]),
        check_dtype=False,
    )
    # the pre-epoch purchase value really is carried to post-epoch clicks
    bot_last = _sorted(g_asof[g_asof["user_id"] == BOT], ["event_id"])
    assert bot_last["last_purchase_value"].iloc[-1] == 42.25
    g_sess = events_sessionize(pre_epoch_bot).to_pandas()
    _assert_oracle(
        g_sess,
        _oracle(oracle_sql, "events_sessionize", pre_epoch_bot),
        ["user_id", "session_start"],
    )
    assert (g_sess["session_start"] < 0).any()  # sessions before the epoch


@pytest.mark.parametrize("bots", ["bot_events", "pre_epoch_bot"])
def test_topk_bot_matches_oracle(ray_session, bots, oracle_sql, request):
    sf_dir = request.getfixturevalue(bots)
    got = top_events_per_user(sf_dir, k=3).to_pandas()
    _assert_oracle(
        got,
        _oracle(oracle_sql, "top_events_per_user", sf_dir),
        ["user_id", "rank"],
    )
    assert sorted(got.loc[got["user_id"] == BOT, "rank"]) == [1, 2, 3]
