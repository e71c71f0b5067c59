"""Cross-row per-key state, Dataset-native.

"Tool turn seen strictly before by ts within the conversation" needs
every row of one conversation in one place, which a keyed shuffle on
``conv_id`` (``ops.util.coarse_apply``) guarantees; order is then
recovered INSIDE each bucket with a vectorized sort. No raw actors, no
global sort and no driver-side batch feed (driver iteration caps ~50k
rows/s).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def first_tool_turn_flags(sf_dir: str, src: str | None = None):
    """For every turn: had this conversation already produced a tool
    turn strictly before it (by ts)?

    Coarse keyed shuffle on conv_id (one vectorized pandas call per
    bucket, no per-conversation Python), then within each bucket sort
    by (conv_id, ts, turn_idx) and count prior tool turns per
    conversation with an exclusive cumulative sum; ts ties are
    resolved strictly (a tool turn at the SAME ts does not count) by
    taking the min of the exclusive count over each (conv_id, ts) tie
    block. No global sort, no driver iteration.
    """
    from ..transcripts import transcripts_for
    from .util import coarse_apply, read_table

    src = src or transcripts_for(sf_dir)
    ds = read_table(src, columns=["conv_id", "turn_idx", "role", "ts"])

    def flags(bucket: pd.DataFrame) -> pd.DataFrame:
        df = bucket.sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        is_tool = (df["role"] == "tool").astype("int64")
        # exclusive per-conversation running count of tool turns
        excl = is_tool.groupby(df["conv_id"], sort=False).cumsum() - is_tool
        # strict-ts semantics: within a (conv_id, ts) tie block every
        # row sees the count as of the block start
        strict = excl.groupby(
            [df["conv_id"], df["ts"]], sort=False
        ).transform("min")
        return pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": df["turn_idx"],
                "tool_seen_before": (strict > 0).to_numpy(),
            }
        )

    # UNORDERED output (README ordering contract — the trailing
    # (conv_id, turn_idx) sort was a data-sized all-to-all whose only
    # purpose was display order; r5 review): the driver compare is
    # order-insensitive and tests sort before positional compare.
    schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("turn_idx", pa.int32()),
            ("tool_seen_before", pa.bool_()),
        ]
    )
    return coarse_apply(ds, ["conv_id"], flags, schema)
