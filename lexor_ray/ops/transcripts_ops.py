"""Queries over the synthetic transcripts table — the flagship
extraction pipeline plus its log analytics and SQL-checkable
relational shapes over the same table.

The transcripts parquet lives at a deterministic path derived from the
sf dir (``lexor_ray.transcripts.transcripts_for``), so the DuckDB
oracle can read the very same files with ``read_parquet``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..pipeline import extract_ds, read_transcripts, stable_order
from ..transcripts import transcripts_for
from .util import fold_bounded, read_table


def extract_turns(sf_dir: str):
    """The flagship: extracted text + spans per turn under stable
    ordering — fully DRIVER-ORACLE-CHECKED against the generation-time
    golden table (expected text, span-segment count and char count are
    composed alongside the markup before any parser runs;
    ``transcripts._make_text``). Byte-equality vs the single-process
    path is additionally asserted in tests/test_pipeline.py."""
    src = transcripts_for(sf_dir)
    ds = read_transcripts(src)
    out = extract_ds(ds, batch_size=512)

    def project(batch: pa.Table) -> pa.Table:
        n_spans = pc.cast(pc.list_value_length(batch["spans"]), pa.int64())
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": batch["turn_idx"],
                "extracted_text": batch["extracted_text"],
                "n_spans": n_spans,
                "n_extracted_chars": pc.cast(
                    pc.utf8_length(batch["extracted_text"]), pa.int64()
                ),
            }
        )

    return stable_order(out.map_batches(project, batch_format="pyarrow"))


def extract_turns_text(sf_dir: str):
    """The north-rule gate as a DRIVER-CHECKED query: per-turn
    extracted text under stable (conv_id, turn_idx) ordering, compared
    by the DuckDB oracle against the generation-time golden table
    (``transcripts.generate_transcripts(with_golden=True)``) — an
    independent composition of the expected main-content text written
    BEFORE any parser runs. The pipeline itself reads only the
    6-column input table, never the golden files."""
    src = transcripts_for(sf_dir)
    ds = read_transcripts(src)
    out = extract_ds(ds, batch_size=512, emit_log=False, emit_lineage=False)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": batch["turn_idx"],
                "extracted_text": batch["extracted_text"],
            }
        )

    return stable_order(out.map_batches(project, batch_format="pyarrow"))


def extract_links(sf_dir: str):
    """Link extraction from markup (the link-graph step of a web
    pipeline): every ``href="..."`` value per turn, exploded to
    (conv_id, turn_idx, url) rows. Vectorized with the pandas
    ``str.extractall`` kernel; DuckDB oracle via
    ``regexp_extract_all`` + unnest."""
    import pandas as pd

    src = transcripts_for(sf_dir)
    ds = read_transcripts(src)

    def links(batch: pd.DataFrame) -> pd.DataFrame:
        ex = batch["text"].str.extractall(r'href="([^"]*)"')
        if len(ex) == 0:
            return pd.DataFrame(
                {
                    "conv_id": pd.Series([], dtype=object),
                    "turn_idx": pd.Series([], dtype="int64"),
                    "url": pd.Series([], dtype=object),
                }
            )
        rows = ex.index.get_level_values(0)
        return pd.DataFrame(
            {
                "conv_id": batch["conv_id"].loc[rows].to_numpy(),
                "turn_idx": batch["turn_idx"].loc[rows].to_numpy().astype("int64"),
                "url": ex[0].to_numpy(),
            }
        )

    return ds.map_batches(links, batch_format="pandas")


def extraction_log_summary(sf_dir: str):
    """Log analytics (SURVEY.md §2.5 A1 as a dataset op): flatten the
    per-row log column and roll up counts per message code."""
    src = transcripts_for(sf_dir)
    ds = read_transcripts(src)
    out = extract_ds(ds, batch_size=512, emit_lineage=False)

    def explode(batch: pa.Table) -> pa.Table:
        # C-level list-of-struct explode (r5 review: the last per-row
        # Python loop in an op hot path): flatten the list column,
        # project the code field
        logs = batch.column("log").combine_chunks()
        codes = (
            logs.flatten().field("code")
            if len(logs)
            else pa.array([], type=pa.string())
        )
        t = pa.table({"code": codes})
        return t.group_by(["code"]).aggregate([("code", "count")])

    # message codes are a tiny fixed domain (W100/E100/...) — the
    # key-bounded two-level fold replaces the sort-based groupby +
    # trailing Dataset.sort (the CLAUDE.md fold_bounded rule; ~0.4 s
    # of fixed all-to-all overhead on a ≤3-row result, r5 review);
    # fold_bounded returns the table sorted by code.
    return fold_bounded(
        out.map_batches(explode, batch_format="pyarrow"), ["code"]
    ).map_batches(
        lambda b: b.rename_columns(["code", "n_msgs"]),
        batch_format="pyarrow",
    )


class MarkdownBatch:
    """Stateless-task stage for the html→markdown style (NodeWriter
    machinery end-to-end over the transcripts table), built once per
    worker by the per-worker cache (``ops/util.cached``). ``parser``,
    ``converter`` and ``writer`` are its three passes."""

    def __init__(self) -> None:
        from ..core.converter import Converter
        from ..core.parser import Parser
        from ..core.writer import Writer
        from ..dialects.markdown import HTML_MARKDOWN as d

        self.parser = Parser(d)
        self.converter = Converter(d)
        self.writer = Writer(d)
        # a row with no candidate char parses to one Text, which the
        # dialect keeps as it is and the passthrough writers emit
        # verbatim (Dialect.plain_text_identity)
        plain = (
            d.plain_text_identity()
            and "#document" not in d.writers
            and "#text" not in d.writers
        )
        self._cand_re = d.candidate_re() if plain else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        md = []
        cand = self._cand_re
        for text in batch.column("text").to_pylist():
            text = text or ""
            if cand is not None and cand.search(text) is None:
                md.append(text.strip("\n"))
                continue
            out = self.converter.convert_owned(self.parser.parse(text))
            md.append(self.writer.write(out).strip("\n"))
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": batch["turn_idx"],
                "markdown": pa.array(md, type=pa.string()),
            }
        )


def extract_markdown(sf_dir: str):
    """Flagship variant: html→markdown per turn, unordered like every
    per-row operator; a consumer that needs turn order calls
    ``pipeline.stable_order``, as perfbench's ``extract`` workload
    does."""
    src = transcripts_for(sf_dir)
    ds = read_table(src, columns=["conv_id", "turn_idx", "text"])
    from .util import cached

    return ds.map_batches(
        lambda b: cached("markdown", MarkdownBatch)(b),
        batch_format="pyarrow",
        batch_size=512,
    )


def validate_extraction(sf_dir: str):
    """Distributed QA of the north-rule span invariant: for every
    turn, every non-entity span must reproduce its slice of
    extracted_text, entity spans must decode to their contribution,
    and span offsets must be sorted within the source. Returns one
    row of counts; n_violations must be 0."""
    import html as _html

    src = transcripts_for(sf_dir)
    ds = read_transcripts(src)
    out = extract_ds(ds, batch_size=512, emit_log=False, emit_lineage=False)

    def check(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        extracted = batch.column("extracted_text").to_pylist()
        spans_col = batch.column("spans").to_pylist()
        bad = 0
        for text, ext, spans in zip(texts, extracted, spans_col):
            pieces = []
            prev_end = -1
            ok = True
            for s in spans:
                a, b = s["start"], s["end"]
                if not (0 <= a <= b <= len(text)) or a < prev_end:
                    ok = False
                    break
                prev_end = a  # starts must be non-decreasing
                piece = text[a:b]
                if piece.startswith("&"):
                    from ..dialects.html import EntityParser

                    if EntityParser._RE.fullmatch(piece):
                        piece = _html.unescape(piece)
                pieces.append(piece)
            if not ok or "".join(pieces) != ext:
                bad += 1
        return pa.table(
            {
                "n_rows": pa.array([batch.num_rows], type=pa.int64()),
                "n_violations": pa.array([bad], type=pa.int64()),
            }
        )

    checked = out.map_batches(check, batch_format="pyarrow")
    total = checked.sum(["n_rows", "n_violations"])
    return pa.table(
        {
            "n_rows": pa.array([int(total["sum(n_rows)"])], type=pa.int64()),
            "n_violations": pa.array(
                [int(total["sum(n_violations)"])], type=pa.int64()
            ),
        }
    )


def turns_per_conversation(sf_dir: str):
    """SQL-checkable relational shape over transcripts: per-conv turn
    count + total text length (partial agg per batch → one keyed
    fold). Hot conversations need no salting: a conversation reaches
    the shuffle as at most one partial row per input batch."""
    from .util import fold_keyed

    src = transcripts_for(sf_dir)
    ds = read_table(src, columns=["conv_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "conv_id": batch["conv_id"],
                # fill_null so the count keeps EVERY turn — a null
                # text row otherwise vanishes from n_turns while the
                # oracle's count(*) keeps it
                "n_chars": pc.cast(
                    pc.utf8_length(pc.fill_null(batch["text"], "")), pa.int64()
                ),
            }
        )
        agg = t.group_by(["conv_id"]).aggregate(
            [("n_chars", "sum"), ("n_chars", "count")]
        )
        return pa.table(
            {
                "conv_id": agg["conv_id"],
                "total_chars": agg["n_chars_sum"],
                "n_turns": agg["n_chars_count"],
            }
        )

    schema = pa.schema(
        [("conv_id", pa.string()), ("total_chars", pa.int64()), ("n_turns", pa.int64())]
    )
    return fold_keyed(
        ds.map_batches(partial, batch_format="pyarrow"), ["conv_id"], schema
    )


def role_distribution(sf_dir: str):
    """SQL-checkable: rows per role."""
    src = transcripts_for(sf_dir)
    ds = read_table(src, columns=["role"])

    def partial(batch: pa.Table) -> pa.Table:
        return batch.group_by(["role"]).aggregate([("role", "count")])

    return fold_bounded(
        ds.map_batches(partial, batch_format="pyarrow"), ["role"]
    ).map_batches(
        lambda b: b.rename_columns(["role", "n_turns"]), batch_format="pyarrow"
    )


def exact_dedup_turns(sf_dir: str):
    """Exact dedup keyed on (conv_id, turn_idx) — input hygiene for
    repeated ingestion (SURVEY.md §2.5): keep first, count copies.
    The synthetic table has no dups, so this asserts the identity —
    SQL-checkable either way."""
    from .util import fold_keyed

    src = transcripts_for(sf_dir)
    ds = read_table(src, columns=["conv_id", "turn_idx"])
    keys = ["conv_id", "turn_idx"]

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(keys).aggregate([("turn_idx", "count")])
        return pa.table(
            {k: agg[k] for k in keys} | {"n_copies": agg["turn_idx_count"]}
        )

    schema = pa.schema(
        [("conv_id", pa.string()), ("turn_idx", pa.int32()), ("n_copies", pa.int64())]
    )
    return fold_keyed(ds.map_batches(partial, batch_format="pyarrow"), keys, schema)
