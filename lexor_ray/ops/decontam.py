"""Benchmark decontamination — flag training documents that overlap a
held-out benchmark, in TWO tiers emitted by one scan: (a) verbatim
40-char-snippet containment (the CCNet-style check) and (b) word-
13-gram collision (GPT-3 appendix C), which catches partial overlaps
outside the snippet window.

Shape at 100 TB: the benchmark side is SMALL by construction (a fixed
eval suite — thousands of snippets, not a data-scale table), so it is
collected once, shipped once per worker (a single replace-on-new-ref
worker-cache slot), and the check is a broadcast map over the corpus —
no shuffle, fully streaming. Each snippet test is one vectorized
``str.contains(..., regex=False)`` pass (C-level substring search);
with a much larger snippet set the same stage would swap in one
compiled alternation / Aho-Corasick automaton per worker without
changing the dataflow.

Here the "benchmark" is derived deterministically from the corpus
itself (every ``doc_id % 97 == 0`` document donates characters
[10, 50) as its snippet) so the op is closed over the driver's
testdata and exactly reproducible in SQL: the oracle cross-joins the
same snippet set with ``position(snip IN text)``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .util import cached_for_ref, tbl

BENCH_MOD = 97  #: doc_id % BENCH_MOD == 0 → benchmark member
SNIP_START = 10  #: 0-based char offset of the snippet
SNIP_LEN = 40
MIN_DOC_CHARS = SNIP_START + SNIP_LEN  #: donors must cover the window


#: hard bound on the collected benchmark side. The op's contract is a
#: SMALL fixed eval suite; the doc_id % 97 derivation used for the
#: self-contained oracle grows with the corpus, so refusing (rather
#: than silently truncating — which would diverge from the oracle) is
#: the honest behavior when the derived set stops being benchmark-
#: sized. A production deployment feeds a real external benchmark
#: table here instead.
MAX_SNIPPETS = 100_000


def _benchmark_state(sf_dir: str) -> tuple[list[str], list[str]]:
    """BOTH broadcast sides from ONE corpus scan (review fix: the
    snippet and n-gram preps used to be separate full reads of the
    text column): per batch a tagged union of (kind 0) snippet rows
    with their donor doc_id and (kind 1) the batch's distinct word
    13-grams. Collected to the driver — bounded by the benchmark
    suite size (``MAX_SNIPPETS``), never by the corpus."""
    import pyarrow as pa

    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def pick(batch: pd.DataFrame) -> pa.Table:
        texts = batch["text"].fillna("")
        is_bench = batch["doc_id"] % BENCH_MOD == 0
        # pandas slicing is CHARACTER-based, exactly DuckDB's
        # substr(text, SNIP_START+1, SNIP_LEN) — byte slicing would
        # diverge on the corpus's CJK documents
        keep = is_bench & (texts.str.len() >= MIN_DOC_CHARS)
        sel = batch.loc[keep]
        snips = texts.loc[keep].str.slice(SNIP_START, SNIP_START + SNIP_LEN)
        _, g = _word_ngrams(texts.loc[is_bench], NGRAM_N)
        grams = np.unique(g)
        # always an ARROW table (typed even when empty): an empty
        # pandas object column trips Ray's block-size estimator, and
        # mixed pandas/arrow blocks from one operator draw schema
        # warnings downstream
        ns, ng = len(sel), len(grams)
        return pa.table(
            {
                "kind": pa.array(np.r_[np.zeros(ns, np.int8), np.ones(ng, np.int8)]),
                "doc_id": pa.array(
                    np.r_[sel["doc_id"].to_numpy(dtype="int64"),
                          np.full(ng, -1, np.int64)],
                    pa.int64(),
                ),
                "payload": pa.array(
                    list(snips) + grams.tolist(), pa.string()
                ),
            }
        )

    # stream the collect with a RUNNING cap instead of take_all():
    # the refusal must fire while at most one over-cap block is on the
    # driver, not after the full derived set has materialized — on a
    # corpus where doc_id % 97 yields millions of donors, take_all()
    # would hit the OOM this guard exists to prevent before the
    # ValueError could be raised (r4 review). Acceptance is judged on
    # DISTINCT grams (see the cap below); the pre-dedup row count is
    # only a looser runaway backstop. Backpressure bounds in-flight
    # blocks once iteration stops.
    snip_rows: list[tuple[int, str]] = []
    gram_set: set[str] = set()
    n_gram_rows = 0
    for batch in ds.map_batches(pick, batch_format="pandas").iter_batches(
        batch_format="pandas"
    ):
        is_snip = batch["kind"].to_numpy() == 0
        snip_rows.extend(
            zip(
                batch["doc_id"].to_numpy()[is_snip].tolist(),
                batch["payload"].to_numpy()[is_snip].tolist(),
            )
        )
        n_gram_rows += int((~is_snip).sum())
        gram_set.update(batch["payload"].to_numpy()[~is_snip].tolist())
        # acceptance is on DISTINCT grams (what the driver actually
        # retains and later broadcasts — the pre-streaming-cap
        # envelope, ADVICE r4); the pre-dedup row count is only a
        # 10×-looser runaway backstop for a stream of mostly-duplicate
        # grams, which costs iteration time rather than memory
        if (
            len(snip_rows) > MAX_SNIPPETS
            or len(gram_set) > MAX_SNIPPETS * 100
            or n_gram_rows > MAX_SNIPPETS * 1000
        ):
            raise ValueError(
                f"derived benchmark set has ≥{len(snip_rows)} snippets / "
                f"≥{len(gram_set)} distinct grams (≥{n_gram_rows} rows; "
                f"> {MAX_SNIPPETS}-scale); decontaminate() broadcasts the "
                "benchmark side and requires it to be eval-suite-sized — "
                "feed a real (small) benchmark table at this scale"
            )
    snip_rows.sort()
    return [s for _, s in snip_rows], sorted(gram_set)


def benchmark_snippets(sf_dir: str) -> list[str]:
    """The verbatim-tier small side: one 40-char snippet per benchmark
    document (thin wrapper over :func:`_benchmark_state`)."""
    return _benchmark_state(sf_dir)[0]


class ContaminationChecker:
    """Per-worker broadcast state: the snippet list AND the benchmark
    13-gram index, fetched once from the object store (ray.put'd by
    the driver, not re-shipped per batch). One scan emits both tiers'
    verdicts."""

    def __init__(self, snips_ref, grams_ref) -> None:
        import ray

        self.snips = ray.get(snips_ref)
        self.grams = pd.Index(ray.get(grams_ref))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        hits = np.zeros(len(texts), dtype=np.int64)
        for snip in self.snips:
            hits += texts.str.contains(snip, regex=False).to_numpy(
                dtype=np.int64
            )
        # n-gram tier: count each document's DISTINCT colliding grams
        r, g = _word_ngrams(texts, NGRAM_N)
        ghits = np.zeros(len(texts), dtype=np.int64)
        if len(g):
            dfg = pd.DataFrame({"r": r, "g": g}).drop_duplicates()
            m = self.grams.get_indexer(dfg["g"].to_numpy()) >= 0
            ghits = np.bincount(
                dfg["r"].to_numpy(np.int64)[m], minlength=len(texts)
            ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "n_bench_hits": hits,
                "contaminated": hits > 0,
                "n_gram_hits": ghits,
                "contaminated_ngram": ghits > 0,
            }
        )


def decontaminate(sf_dir: str):
    """Per-document contamination verdict: how many benchmark snippets
    the document contains verbatim (duplicate snippets count once per
    donor, mirroring the SQL cross-join), and the boolean flag a
    filter stage would drop on. Non-trivial on the testdata because
    the documents table carries exact duplicates — a duplicate of a
    benchmark donor is contaminated without being a donor itself."""
    import ray

    snips, grams = _benchmark_state(sf_dir)  # ONE prep scan, both tiers
    snips_ref = ray.put(snips)
    grams_ref = ray.put(grams)
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def check(batch: pd.DataFrame) -> pd.DataFrame:
        inst = cached_for_ref(
            "contam-checker",
            snips_ref,
            lambda: ContaminationChecker(snips_ref, grams_ref),
        )
        return inst(batch)

    return ds.map_batches(check, batch_format="pandas")


# ---------------------------------------------------------------------------
# n-gram collision tier (GPT-3 appendix C: word-13-gram overlap with
# the benchmark — catches paraphrase-adjacent and partial overlaps the
# 40-char verbatim tier misses, e.g. a contaminated doc that rewrapped
# whitespace outside the snippet window).

NGRAM_N = 13


def _word_ngrams(texts: pd.Series, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row_idx, gram) arrays of every word n-gram (space-joined
    strings, so the DuckDB replay is exact) — the shifted-array concat
    trick, no per-document Python loop."""
    words = texts.str.split()
    nw = words.map(len).to_numpy(np.int64)
    flat = (
        np.concatenate([np.asarray(w, dtype=object) for w in words])
        if len(words)
        else np.empty(0, dtype=object)
    )
    row_of = np.repeat(np.arange(len(texts)), nw)
    W = len(flat)
    if W < n:
        return np.empty(0, np.int64), np.empty(0, dtype=object)
    valid = row_of[: W - n + 1] == row_of[n - 1 :]
    g = flat[: W - n + 1][valid]
    for j in range(1, n):
        g = g + " " + flat[j : W - n + 1 + j][valid]
    return row_of[: W - n + 1][valid], g


def decontaminate_oracle_sql(source: str) -> str:
    """DuckDB replay of BOTH tiers: the verbatim-snippet LEFT JOIN and
    the distinct word-13-gram collision join (grams built with the
    same whitespace tokenization as everywhere else). Shared by
    __ray_entry__ and tests."""
    from .util import sql_source

    src = sql_source(source)
    gram_expr = " || ' ' || ".join(f"w[i+{j}]" for j in range(NGRAM_N))
    words = (
        "CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' "
        "THEN CAST([] AS VARCHAR[]) ELSE string_split_regex("
        "regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+') END"
    )
    return f"""
        WITH b AS (
            SELECT doc_id AS bench_id,
                   substr(text, {SNIP_START + 1}, {SNIP_LEN}) AS snip
            FROM {src}
            WHERE doc_id % {BENCH_MOD} = 0
              AND length(text) >= {MIN_DOC_CHARS}
        ), v AS (
            SELECT d.doc_id,
                   CAST(count(b.bench_id) AS BIGINT) AS n_bench_hits,
                   count(b.bench_id) > 0 AS contaminated
            FROM {src} d LEFT JOIN b ON position(b.snip IN d.text) > 0
            GROUP BY d.doc_id
        ), bw AS (
            SELECT {words} AS w FROM {src}
            WHERE doc_id % {BENCH_MOD} = 0
        ), bg AS (
            SELECT DISTINCT unnest(
                CASE WHEN len(w) < {NGRAM_N} THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(1, len(w) - {NGRAM_N - 2}),
                                         i -> {gram_expr}) END) AS g
            FROM bw
        ), dw AS (
            SELECT doc_id, {words} AS w FROM {src}
        ), dg AS (
            SELECT DISTINCT doc_id, unnest(
                CASE WHEN len(w) < {NGRAM_N} THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(1, len(w) - {NGRAM_N - 2}),
                                         i -> {gram_expr}) END) AS g
            FROM dw
        ), gh AS (
            SELECT dg.doc_id, CAST(count(*) AS BIGINT) AS n_gram_hits
            FROM dg JOIN bg USING (g) GROUP BY dg.doc_id
        )
        SELECT v.doc_id, v.n_bench_hits, v.contaminated,
               coalesce(gh.n_gram_hits, 0) AS n_gram_hits,
               coalesce(gh.n_gram_hits, 0) > 0 AS contaminated_ngram
        FROM v LEFT JOIN gh ON v.doc_id = gh.doc_id
        ORDER BY v.doc_id
    """
