"""Text-analysis operators over the ``documents`` table: quality
signals and scores, language ID with repetition signals, document
fingerprints, BPE-ish token counts, tf-idf terms and the Gopher
quality filter.

Each per-document family has one operator, the one the driver
records: :func:`text_quality_stats`, :func:`doc_signals` and
:func:`gopher_quality`. The quality character classes are counted in
one kernel, :func:`_quality_signals`, with the regex engine of the
DuckDB oracles (RE2). All per-row computations are vectorized where a
kernel exists (pyarrow.compute string kernels / pandas str); state
(compiled regexes, marker tables) lives in the per-worker cache
(``ops/util.cached``) — the §2.7 pattern.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .util import table_rows, tbl


# Char classes of the quality signals. Counts of them come from
# _quality_signals only (pinned by test_one_quality_kernel_in_package);
# the NB/LM tokenizers split on RE_WORD with findall.
RE_WORD = r"\S+"
RE_PUNCT = r"[!-/:-@\[-`{-~]"
RE_DIGIT = r"[0-9]"
RE_UPPER = r"[A-Z]"


def _quality_signals(text: "pa.Array | pa.ChunkedArray") -> dict:
    """The quality counts of each text as int64 numpy arrays: n_chars
    (codepoints), n_words, n_punct, n_digits, n_upper. Counted with
    RE2 like the DuckDB oracles: only tab, newline, form feed,
    carriage return and space split words, not a no-break space or a
    vertical tab. Null text counts as empty."""
    text = pc.fill_null(text, "")

    def i64(counts) -> np.ndarray:
        return counts.to_numpy().astype(np.int64)

    return {
        "n_chars": i64(pc.utf8_length(text)),
        "n_words": i64(pc.count_substring_regex(text, RE_WORD)),
        "n_punct": i64(pc.count_substring_regex(text, RE_PUNCT)),
        "n_digits": i64(pc.count_substring_regex(text, RE_DIGIT)),
        "n_upper": i64(pc.count_substring_regex(text, RE_UPPER)),
    }


def passes_quality_filter(sig: dict, min_words: int, max_punct_pct: int) -> np.ndarray:
    """The rule-based quality filter's verdict over
    :func:`_quality_signals` columns, in integer arithmetic so the
    oracle replays it exactly: at least ``min_words`` words and at
    most ``max_punct_pct`` percent punctuation characters."""
    return (sig["n_words"] >= min_words) & (
        sig["n_punct"] * 100 <= sig["n_chars"] * max_punct_pct
    )


def _floor4(s: "pd.Series") -> "pd.Series":
    """Deterministic 4-digit truncation: ``floor(x·10⁴)/10⁴``. Used
    instead of ``round`` because pandas rounds half-even while DuckDB
    rounds half-away — truncation of the SAME double is bit-identical
    on both sides, which makes the whole score SQL-oracle-checkable
    (CLAUDE.md rounding rule)."""
    return np.floor(s * 10000) / 10000


class QualityScorer:
    """Composite quality score — stopword ratio, mean word length,
    punctuation ratio, length — emitted as floor-truncated 4-digit
    floats so the full float pipeline is DuckDB-checkable (the oracle
    mirrors the arithmetic term-for-term in the same order)."""

    STOPWORDS = frozenset(
        "the a an and or of to in is are was were be been it this that".split()
    )

    def __init__(self) -> None:
        self.word_re = re.compile(r"[A-Za-z']+")

    def __call__(self, batch: pd.DataFrame, sig: dict) -> pd.DataFrame:
        """Scores of ``batch`` (doc_id, text); ``sig`` is
        :func:`_quality_signals` of its text, whose n_chars and n_punct
        give the punctuation ratio and the length term."""
        texts = batch["text"].fillna("")
        n = len(texts)
        words = texts.str.lower().str.findall(self.word_re)
        words.index = pd.RangeIndex(n)
        # one explode + C-level bincounts instead of per-row Python
        # sums; the divisions below are exact-int / exact-int in
        # float64 either way, so the floor4 outputs are bit-identical
        # to the per-row kernel (asserted in tests/test_ops.py)
        ex = words.explode().dropna()
        pos = ex.index.to_numpy()
        n_words = pd.Series(
            np.maximum(np.bincount(pos, minlength=n), 1), index=batch.index
        )
        stop_hits = np.bincount(
            pos[ex.isin(self.STOPWORDS).to_numpy()], minlength=n
        )
        wlen_sum = np.bincount(
            pos, weights=ex.str.len().to_numpy(dtype=np.float64), minlength=n
        )
        stop_ratio = pd.Series(stop_hits, index=batch.index) / n_words
        mean_wlen = pd.Series(wlen_sum, index=batch.index) / n_words
        n_chars = pd.Series(sig["n_chars"], index=batch.index).clip(lower=1)
        punct_ratio = pd.Series(sig["n_punct"], index=batch.index) / n_chars
        score = (
            0.35 * stop_ratio.clip(0, 0.6) / 0.6
            + 0.25 * (1 - (mean_wlen - 5).abs().clip(0, 5) / 5)
            + 0.2 * (1 - punct_ratio.clip(0, 0.5) / 0.5)
            + 0.2 * (n_chars.clip(0, 2000) / 2000)
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "stop_ratio": _floor4(stop_ratio),
                "mean_word_len": _floor4(mean_wlen),
                "punct_ratio": _floor4(punct_ratio),
                "quality_score": _floor4(score),
            }
        )


def text_quality_stats(sf_dir: str, min_words: int = 20, max_punct_pct: int = 5):
    """Per-document quality row in one scan: the :class:`QualityScorer`
    floats, the :func:`_quality_signals` counts (``n_tokens`` and
    ``n_words`` are the same count) and the filter verdict ``passes``
    (:func:`passes_quality_filter`). Columns in the order of the
    oracle's SELECT."""
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])
    from .util import cached

    def stats(batch: pa.Table) -> pd.DataFrame:
        sig = _quality_signals(batch["text"])
        out = cached("quality-scorer", QualityScorer)(batch.to_pandas(), sig)
        out["n_chars"] = sig["n_chars"]
        out["n_tokens"] = sig["n_words"]
        out["n_digits"] = sig["n_digits"]
        out["n_upper"] = sig["n_upper"]
        out["n_words"] = sig["n_words"]
        out["n_punct"] = sig["n_punct"]
        out["passes"] = passes_quality_filter(sig, min_words, max_punct_pct)
        return out

    return ds.map_batches(stats, batch_format="pyarrow")


class LangId:
    """Marker-word + n-gram heuristic language ID for the five corpus
    languages. Marker tables compiled once per worker (per-worker
    cache, ``ops/util.cached``)."""

    MARKERS = {
        "en": {"the", "and", "of", "to", "is", "in", "that", "it", "with", "for"},
        "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "von", "zu"},
        "fr": {"le", "la", "les", "et", "est", "une", "des", "que", "pour", "dans"},
        "es": {"el", "la", "los", "las", "y", "es", "una", "que", "por", "con"},
        "zh": set(),  # CJK detected by codepoint range, not markers
    }

    def __init__(self) -> None:
        self.word_re = re.compile(r"[^\W\d_]+", re.UNICODE)
        self.cjk = re.compile(r"[一-鿿]")

    def predict(self, text: str) -> str:
        """Single-row reference kernel (kept for tests and ad-hoc use;
        the batch path is :meth:`predict_batch`)."""
        text = text or ""
        if self.cjk.search(text):
            return "zh"
        words = self.word_re.findall(text.lower())
        if not words:
            return "en"
        best, best_n = "en", -1
        for lang, markers in self.MARKERS.items():
            if not markers:
                continue
            n = sum(w in markers for w in words)
            if n > best_n:
                best, best_n = lang, n
        return best

    def predict_batch(self, texts: pd.Series) -> np.ndarray:
        """Vectorized :meth:`predict`: one explode + per-language
        C-level ``isin``/``bincount`` marker counts; ``argmax`` over
        the marker-language columns reproduces the strict-``>`` loop's
        first-wins tie-break (en wins all-zero rows, matching the
        ``best_n = -1`` seed). Row identity with :meth:`predict` is
        asserted in tests/test_ops.py."""
        texts = texts.fillna("")
        n = len(texts)
        is_zh = texts.str.contains(self.cjk).to_numpy()
        words = texts.str.lower().str.findall(self.word_re)
        words.index = pd.RangeIndex(n)
        ex = words.explode().dropna()
        pos = ex.index.to_numpy()
        langs = [lang for lang, m in self.MARKERS.items() if m]
        counts = np.zeros((n, len(langs)), dtype=np.int64)
        for j, lang in enumerate(langs):
            hits = pos[ex.isin(self.MARKERS[lang]).to_numpy()]
            counts[:, j] = np.bincount(hits, minlength=n)
        pred = np.asarray(langs, dtype=object)[counts.argmax(axis=1)]
        pred[is_zh] = "zh"
        return pred


class Fingerprinter:
    """Winnowing document fingerprint: rolling hash over character
    k-grams, keep the min hash in each window of w, xor-fold to one
    64-bit fingerprint (public scheme: Schleimer et al., SIGMOD'03)."""

    def __init__(self, k: int = 8, w: int = 16) -> None:
        self.k = k
        self.w = w

    def fingerprint(self, text: str) -> int:
        t = (text or "").encode("utf-8")
        k, w = self.k, self.w
        if len(t) < k:
            return int.from_bytes(
                hashlib.blake2b(t, digest_size=8).digest(), "big"
            )
        arr = np.frombuffer(t, dtype=np.uint8)
        n = len(arr) - k + 1
        # polynomial rolling hash, vectorized via cumulative powers
        base = np.uint64(257)
        powers = np.empty(k, dtype=np.uint64)
        powers[0] = 1
        for i in range(1, k):
            powers[i] = powers[i - 1] * base
        windows = np.lib.stride_tricks.sliding_window_view(arr, k).astype(np.uint64)
        hashes = (windows * powers[::-1]).sum(axis=1)
        if n <= w:
            sel = hashes.min()
            return int(sel)
        mins = np.lib.stride_tricks.sliding_window_view(hashes, w).min(axis=1)
        fp = np.uint64(0)
        for m in np.unique(mins):
            fp ^= np.uint64(m)
        return int(fp)

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps = np.array(
            [self.fingerprint(t) for t in batch.column("text").to_pylist()],
            dtype=np.uint64,
        )
        return pa.table(
            {"doc_id": batch["doc_id"], "fingerprint": pa.array(fps, type=pa.uint64())}
        )


def fingerprints(sf_dir: str):
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])
    from .util import cached

    return ds.map_batches(
        lambda b: cached("fingerprinter", Fingerprinter)(b),
        batch_format="pyarrow",
    )


class BpeishTokenizer:
    """GPT-2-style pre-tokenizer approximation (the brief's 'BPE-ish
    regex'): contractions, letter runs, digit runs, punct runs, each
    optionally preceded by one space. Compiled once per worker."""

    PATTERN = (
        r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-zÀ-ɏ一-鿿]+"
        r"| ?[0-9]+| ?[^\sA-Za-z0-9À-ɏ一-鿿]+|\s+"
    )

    def __init__(self) -> None:
        self.re = re.compile(self.PATTERN)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        counts = np.fromiter(
            (sum(1 for m in self.re.finditer(t or "") if not m.group().isspace())
             for t in texts),
            dtype=np.int64,
            count=len(texts),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bpeish_tokens": pa.array(counts),
            }
        )


def bpe_token_counts(sf_dir: str):
    """Subword-ish token counts via the BPE-style pre-tokenizer."""
    from .util import cached

    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: cached("bpeish", BpeishTokenizer)(b), batch_format="pyarrow"
    )


#: vocabulary size above which tfidf switches from the broadcast-idf
#: tier to the fully distributed term join (driver never holds the
#: vocabulary). ~10⁶ terms ≈ tens of MB broadcast — safe; beyond that
#: the round-1 verdict's 100-TB flag applies.
_VOCAB_LIMIT = 2_000_000


def tfidf_top_terms(sf_dir: str, top_k: int = 3, min_df: int = 2, vocab_limit=None):
    """Per-source top TF-IDF terms — the vocabulary-build pattern,
    size-adaptive like the dedup verify path:

    1. document frequencies: per-batch UNIQUE (term, doc) pairs →
       term groupby count (keys are terms)
    2. idf applied either via a broadcast table (vocabulary measured
       ≤ ``vocab_limit``) or via a distributed bucketed term join +
       per-doc coarse top-k (the 100-TB path; the driver never holds
       the vocabulary). Tiers are asserted identical in tests.
    3. per-doc term frequencies × idf, top-k per (source, doc)
    """
    import ray

    if vocab_limit is None:
        vocab_limit = _VOCAB_LIMIT

    ds = tbl(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def doc_terms(batch: pa.Table) -> pa.Table:
        # vectorized df partial (round-2 verdict item 5): ONE pandas
        # split/explode/drop_duplicates/groupby chain per batch —
        # tokenization (`str.lower().str.split()`) is bit-identical to
        # the old per-doc `(text or "").lower().split()`
        s = (
            pd.Series(batch.column("text").to_pylist())
            .fillna("")
            .str.lower()
            .str.split()
        )
        ex = s.explode().dropna()
        if len(ex) == 0:
            return pa.table(
                {
                    "term": pa.array([], type=pa.string()),
                    "n_sum": pa.array([], type=pa.int64()),
                }
            )
        counts = (
            pd.DataFrame({"doc": ex.index.to_numpy(), "term": ex.to_numpy()})
            .drop_duplicates()
            .groupby("term", sort=False)
            .size()
        )
        return pa.table(
            {
                "term": pa.array(counts.index.to_numpy(), type=pa.string()),
                "n_sum": pa.array(counts.to_numpy(), type=pa.int64()),
            }
        )

    from .util import coarse_apply, collect

    # document-frequency merge via ONE coarse keyed shuffle + a
    # C-level per-bucket sum (r5 review: sort-based
    # groupby('term').aggregate(Sum) on vocabulary-scale STRING keys
    # is the shape lm.py measured 11× slower than coarse_apply)
    def merge_df(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("term", sort=False)["n_sum"].sum()
        return pd.DataFrame({"term": m.index, "df": m.to_numpy()})

    df_schema = pa.schema([("term", pa.string()), ("df", pa.int64())])
    df_ds = coarse_apply(
        ds.map_batches(doc_terms, batch_format="pyarrow"), ["term"], merge_df, df_schema
    )

    def keep_min_df(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["df"], min_df))

    df_ds = df_ds.map_batches(keep_min_df, batch_format="pyarrow").materialize()

    n_docs = table_rows(sf_dir, "documents")

    if df_ds.count() > vocab_limit:
        return _tfidf_joined(ds, df_ds, n_docs, top_k)

    df_counts = collect(df_ds, df_schema)
    # smoothed idf (sklearn-style): strictly positive, so ubiquitous
    # terms can never outrank genuinely distinctive ones. math.log
    # (libm, same as DuckDB's ln) rather than numpy's SIMD log — the
    # idf doubles are then bit-identical to the SQL oracle's, making
    # the scores and the top-k ranking exactly comparable.
    import math

    idf = {
        t: math.log((1.0 + n_docs) / (1.0 + d)) + 1.0
        for t, d in zip(df_counts["term"], df_counts["df"])
    }
    idf_ref = ray.put(idf)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        # vectorized tf + score (round-2 verdict item 5): explode →
        # per-(doc, term) C-level groupby count → Series.map(idf) →
        # one float64 kernel. The arithmetic is elementwise IEEE ops
        # in the same order as the old per-doc loop ((c/n_words)*idf,
        # floor(s*1e6)/1e6), so scores stay bit-identical to the
        # DuckDB oracle.
        # worker-cached broadcast (r5 review: ray.get per batch
        # re-deserialized the up-to-vocab_limit idf dict every batch)
        from .util import cached_for_ref

        idf_map = cached_for_ref("tfidf-idf", idf_ref, lambda: ray.get(idf_ref))
        batch = batch.reset_index(drop=True)
        words = batch["text"].fillna("").str.lower().str.split()
        n_words = words.map(len)
        ex = words.explode().dropna()
        if len(ex) == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "doc_id": pd.Series([], dtype="int64"),
                    "term": pd.Series([], dtype=object),
                    "tfidf": pd.Series([], dtype="float64"),
                }
            )
        tf = (
            pd.DataFrame({"row": ex.index.to_numpy(), "term": ex.to_numpy()})
            .groupby(["row", "term"], sort=False)
            .size()
            .reset_index(name="c")
        )
        tf["idf"] = tf["term"].map(idf_map)
        tf = tf.dropna(subset=["idf"])
        if len(tf) == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "doc_id": pd.Series([], dtype="int64"),
                    "term": pd.Series([], dtype=object),
                    "tfidf": pd.Series([], dtype="float64"),
                }
            )
        s = (
            tf["c"].to_numpy(np.float64)
            / n_words.to_numpy(np.float64)[tf["row"].to_numpy()]
        ) * tf["idf"].to_numpy(np.float64)
        tf = tf.assign(s=s).sort_values(
            ["s", "term"], ascending=[False, True], kind="mergesort"
        )
        top = tf.groupby("row", sort=False).head(top_k)
        rows = top["row"].to_numpy()
        out = pd.DataFrame(
            {
                "source": batch["source"].to_numpy()[rows],
                "doc_id": batch["doc_id"].to_numpy()[rows],
                "term": top["term"].to_numpy(),
                "tfidf": np.floor(top["s"].to_numpy() * 1e6) / 1e6,
            }
        )
        return out

    return ds.map_batches(score, batch_format="pandas")


def _tfidf_joined(ds, df_ds, n_docs: int, top_k: int):
    """Distributed tier of :func:`tfidf_top_terms`: per-doc tf rows →
    bucketed term join to the df table → per-row score → per-doc
    coarse top-k. No vocabulary ever reaches the driver. Scoring uses
    ``math.log`` cached per distinct df value so the doubles are
    bit-identical to the broadcast tier (and to the DuckDB oracle)."""
    from .util import bucketed_join, coarse_apply

    def tf_rows(batch: pa.Table) -> pa.Table:
        # vectorized per-doc term frequencies (round-2 verdict item 5)
        words = (
            pd.Series(batch.column("text").to_pylist())
            .fillna("")
            .str.lower()
            .str.split()
        )
        n_words = words.map(len).to_numpy()
        ex = words.explode().dropna()
        if len(ex) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "source": pa.array([], type=pa.string()),
                    "term": pa.array([], type=pa.string()),
                    "c": pa.array([], type=pa.int64()),
                    "n_words": pa.array([], type=pa.int64()),
                }
            )
        tf = (
            pd.DataFrame({"row": ex.index.to_numpy(), "term": ex.to_numpy()})
            .groupby(["row", "term"], sort=False)
            .size()
            .reset_index(name="c")
        )
        rows = tf["row"].to_numpy()
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)[rows]
        sources = np.asarray(batch.column("source").to_pylist(), dtype=object)[rows]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "source": pa.array(sources, type=pa.string()),
                "term": pa.array(tf["term"].to_numpy(), type=pa.string()),
                "c": pa.array(tf["c"].to_numpy(), type=pa.int64()),
                "n_words": pa.array(n_words[rows], type=pa.int64()),
            }
        )

    tf_ds = ds.map_batches(tf_rows, batch_format="pyarrow")
    joined = bucketed_join(
        tf_ds,
        df_ds,
        key_col="term",
        right_key="term",
        value_col="df",
        out_col="df",
        carry={
            "doc_id": pa.int64(),
            "source": pa.string(),
            "term": pa.string(),
            "c": pa.int64(),
            "n_words": pa.int64(),
        },
        value_type=pa.int64(),
    )

    import math

    def score_rows(batch: pd.DataFrame) -> pd.DataFrame:
        # idf depends only on df — cache math.log per distinct value
        # (bit-identical to the broadcast tier's math.log)
        idf_by_df = {
            int(d): math.log((1.0 + n_docs) / (1.0 + int(d))) + 1.0
            for d in batch["df"].unique()
        }
        # vectorized (r5 review: the per-row list comprehension ran
        # Python over every joined tf row on the tier that only
        # engages at huge scale). Elementwise float64 divide/multiply
        # is IEEE-identical to the scalar ops in the same order.
        idf_arr = (
            batch["df"].astype("int64").map(idf_by_df).to_numpy(np.float64)
        )
        s = (
            batch["c"].to_numpy(np.float64)
            / batch["n_words"].to_numpy(np.float64)
        ) * idf_arr
        return pd.DataFrame(
            {
                "source": batch["source"],
                "doc_id": batch["doc_id"].astype("int64"),
                "term": batch["term"],
                "s": s,
            }
        )

    scored = joined.map_batches(score_rows, batch_format="pandas")

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        # ONE vectorized pass per bucket (sort + C-level groupby.head),
        # no per-doc Python dispatch — this tier only engages above
        # vocab_limit, i.e. at huge doc cardinality where per-group
        # calls dominate. Within-doc order (s desc, term asc,
        # mergesort-stable) matches the broadcast tier exactly.
        g = g.sort_values(
            ["doc_id", "s", "term"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = g.groupby("doc_id", sort=False).head(top_k)
        return pd.DataFrame(
            {
                "source": top["source"],
                "doc_id": top["doc_id"],
                "term": top["term"],
                "tfidf": np.floor(top["s"].to_numpy(np.float64) * 1e6) / 1e6,
            }
        )

    schema = pa.schema(
        [
            ("source", pa.string()),
            ("doc_id", pa.int64()),
            ("term", pa.string()),
            ("tfidf", pa.float64()),
        ]
    )
    return coarse_apply(scored, ["doc_id"], bucket_topk, schema)


def _nunique_per_row(split: pd.Series) -> np.ndarray:
    """Distinct-element count per row of a Series of token lists, with
    no per-row Python ``set()``: one explode + one factorize-backed
    ``groupby(row).nunique()`` (both C-level), reindexed so rows whose
    list was empty count 0 — exactly ``len(set(row))`` (r4 verdict
    item 4; column identity asserted in tests/test_ops.py)."""
    n = len(split)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ex = split.reset_index(drop=True).explode()
    nun = ex.groupby(level=0, sort=False).nunique()
    return (
        nun.reindex(range(n), fill_value=0).to_numpy().astype(np.int64)
    )


def doc_signals(sf_dir: str):
    """Per-document language ID and Gopher-style repetition inputs
    (Rae et al. 2021, public filtering rules) in one pass over the
    documents table: ``doc_id, pred_lang, lang, n_words,
    n_distinct_words, n_lines, n_distinct_lines`` — the inputs to
    duplicate-line / duplicate-word-fraction filters. Words are
    Python-whitespace tokens; the integer columns are SQL-checkable."""
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    from .util import cached

    def signals(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        words = texts.str.strip().str.split()
        lines = texts.str.split("\n")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": cached("lang-id", LangId).predict_batch(batch["text"]),
                "lang": batch["lang"],
                "n_words": words.str.len().to_numpy().astype(np.int64),
                "n_distinct_words": _nunique_per_row(words),
                "n_lines": lines.str.len().to_numpy().astype(np.int64),
                "n_distinct_lines": _nunique_per_row(lines),
            }
        )

    return ds.map_batches(signals, batch_format="pandas")


def doc_length_quantiles(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.9, 0.99)):
    """Exact discrete length quantiles over the corpus via a
    distributed value-counts histogram: per-batch grouped count on
    n_chars → one keyed fold (``fold_keyed``) → cumulative walk in the
    calling process. The collected state is one row per DISTINCT
    document length (bounded by the max length, not the corpus), so
    the pattern holds at any scale. Rank convention matches DuckDB ``quantile_disc``:
    0-indexed ``floor((n-1)·q)`` over the sorted values."""
    ds = tbl(sf_dir, "documents", columns=["text"])

    def hist(batch: pa.Table) -> pa.Table:
        # null text counts as length 0 (r5 review: a null n would ride
        # the histogram into the driver walk as NaN)
        t = pa.table(
            {
                "n": pc.cast(
                    pc.utf8_length(pc.fill_null(batch["text"], "")),
                    pa.int64(),
                )
            }
        )
        return t.group_by(["n"]).aggregate([("n", "count")])

    from .util import collect, fold_keyed

    schema = pa.schema([("n", pa.int64()), ("n_count", pa.int64())])
    counts = collect(
        fold_keyed(ds.map_batches(hist, batch_format="pyarrow"), ["n"], schema),
        schema,
    ).sort_values("n")
    total = int(counts["n_count"].sum())
    cum = counts["n_count"].cumsum().to_numpy()
    lens = counts["n"].to_numpy()
    out_q, out_v = [], []
    for q in qs:
        rank = int(np.floor((total - 1) * q))
        idx = int(np.searchsorted(cum, rank + 1))
        out_q.append(float(q))
        out_v.append(int(lens[idx]))
    return pa.table(
        {
            "q": pa.array(out_q, type=pa.float64()),
            "n_chars": pa.array(out_v, type=pa.int64()),
        }
    )


#: Gopher §A1.1 thresholds for the repetition fractions we compute
#: (Rae et al. 2021 table A1: most-frequent 2-/3-gram character
#: fraction ≤ 0.20/0.18; all-duplicated 5-/6-gram fraction ≤
#: 0.15/0.14). Compared on the floor-truncated values, so the DuckDB
#: replay is exact.
_GOPHER_REP_RULES = (
    ("top2_frac", 0.20),
    ("top3_frac", 0.18),
    ("dup5_frac", 0.15),
    ("dup6_frac", 0.14),
)

#: the Gopher stopword set ("must contain ≥2 of ..."), lower-cased
#: token equality.
_GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


class GopherQuality:
    """The Gopher quality-filter rule set (Rae et al. 2021 §A1.1,
    carried into Dolma/RefinedWeb/FineWeb): per-document signals and
    rule verdicts —

    - 50 ≤ word count ≤ 100 000
    - 3 ≤ mean word length ≤ 10
    - symbol-to-word ratio (``#`` + ellipsis) ≤ 0.1
    - ≤ 90% of lines start with a bullet, ≤ 30% end with an ellipsis
    - ≥ 80% of words contain an alphabetic character
    - ≥ 2 distinct stopwords present
    - repetition fractions under the §A1.1 thresholds: the fraction of
      characters covered by the most frequent word n-gram (n = 2, 3;
      zero unless it repeats) and by ALL duplicated word n-grams
      (n = 5, 6). Character cost of a gram is the length of its
      space-joined string; the denominator is the document's
      character length.

    One whitespace tokenization per batch feeds every column; grams
    are built column-wise from shifted arrays and counted by C-level
    pandas groupby — no per-document Python loop. Fractions are
    ``floor(chars * 10⁴ / L) / 10⁴`` in exactly that operation order
    and every ratio rule is evaluated in INTEGER cross-multiplied form
    (``10·n_symbols ≤ n_words`` instead of ``n_symbols/n_words ≤
    0.1``), so the DuckDB oracle replays the row bit for bit."""

    #: (n, kind, output column)
    SPECS = (
        (2, "top", "top2_frac"),
        (3, "top", "top3_frac"),
        (5, "dup", "dup5_frac"),
        (6, "dup", "dup6_frac"),
    )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        n = len(texts)
        words = texts.str.split()
        nw = words.map(len).to_numpy(np.int64)
        flat = (
            np.concatenate([np.asarray(w, dtype=object) for w in words])
            if n
            else np.empty(0, dtype=object)
        )
        row_of = np.repeat(np.arange(n), nw)
        out = {"doc_id": batch["doc_id"].to_numpy()}
        out.update(self._ngram_fracs(texts, flat, row_of))

        ftok = pd.Series(flat, dtype=object) if len(flat) else pd.Series(
            [], dtype=object
        )
        tok_len = ftok.str.len().to_numpy(np.int64) if len(ftok) else np.empty(
            0, np.int64
        )
        out["n_words"] = nw
        out["n_word_chars"] = np.bincount(
            row_of, weights=tok_len, minlength=n
        ).astype(np.int64)
        # symbols: '#' chars + non-overlapping '...' runs + '…' chars
        out["n_symbols"] = (
            texts.str.count("#").to_numpy(np.int64)
            + (
                texts.str.len() - texts.str.replace("...", "", regex=False).str.len()
            ).to_numpy(np.int64)
            // 3
            + texts.str.count("…").to_numpy(np.int64)
        )
        lines = texts.str.split("\n")
        nl = lines.map(len).to_numpy(np.int64)
        lflat = (
            pd.Series(
                np.concatenate([np.asarray(ls, dtype=object) for ls in lines]),
                dtype=object,
            )
            if len(lines)
            else pd.Series([], dtype=object)
        )
        lrow = np.repeat(np.arange(n), nl)
        bullet = (
            lflat.str.startswith("- ")
            | lflat.str.startswith("* ")
            | lflat.str.startswith("•")
        ).to_numpy(bool) if len(lflat) else np.empty(0, bool)
        ell = (
            lflat.str.endswith("...") | lflat.str.endswith("…")
        ).to_numpy(bool) if len(lflat) else np.empty(0, bool)
        out["n_lines"] = nl
        out["n_bullet_lines"] = np.bincount(
            lrow[bullet], minlength=n
        ).astype(np.int64)
        out["n_ellipsis_lines"] = np.bincount(lrow[ell], minlength=n).astype(
            np.int64
        )
        alpha = (
            ftok.str.contains("[A-Za-z]", regex=True).to_numpy(bool)
            if len(ftok)
            else np.empty(0, bool)
        )
        out["n_alpha_words"] = np.bincount(row_of[alpha], minlength=n).astype(
            np.int64
        )
        low = ftok.str.lower() if len(ftok) else ftok
        n_stop = np.zeros(n, dtype=np.int64)
        for sw in _GOPHER_STOPWORDS:
            if len(low):
                hit = np.bincount(row_of[(low == sw).to_numpy(bool)], minlength=n)
                n_stop += hit > 0
        out["n_stopwords"] = n_stop

        out["rule_words"] = (nw >= 50) & (nw <= 100_000)
        out["rule_word_len"] = (3 * nw <= out["n_word_chars"]) & (
            out["n_word_chars"] <= 10 * nw
        )
        out["rule_symbols"] = 10 * out["n_symbols"] <= nw
        out["rule_bullets"] = 10 * out["n_bullet_lines"] <= 9 * nl
        out["rule_ellipsis"] = 10 * out["n_ellipsis_lines"] <= 3 * nl
        out["rule_alpha"] = 5 * out["n_alpha_words"] >= 4 * nw
        out["rule_stopwords"] = n_stop >= 2
        rep = np.ones(n, dtype=bool)
        for col, thr in _GOPHER_REP_RULES:
            rep &= out[col] <= thr
        out["rule_repetition"] = rep
        out["passes_gopher"] = (
            out["rule_words"]
            & out["rule_word_len"]
            & out["rule_symbols"]
            & out["rule_bullets"]
            & out["rule_ellipsis"]
            & out["rule_alpha"]
            & out["rule_stopwords"]
            & rep
        )
        return pd.DataFrame(out)

    def _ngram_fracs(self, texts, flat, row_of) -> dict:
        """The four repetition fractions from the batch's tokens
        (``flat`` = all tokens, ``row_of`` = owning row index)."""
        L = np.maximum(texts.str.len().to_numpy(np.int64), 1)
        W = len(flat)
        out = {}
        for n, kind, col in self.SPECS:
            vals = np.zeros(len(texts), dtype=np.float64)
            if W >= n:
                valid = row_of[: W - n + 1] == row_of[n - 1 :]
                if valid.any():
                    g = flat[: W - n + 1][valid]
                    for j in range(1, n):
                        g = g + " " + flat[j : W - n + 1 + j][valid]
                    r = row_of[: W - n + 1][valid]
                    cnt = (
                        pd.DataFrame({"r": r, "g": g})
                        .groupby(["r", "g"], sort=False)
                        .size()
                        .reset_index(name="c")
                    )
                    glen = cnt["g"].str.len().to_numpy(np.int64)
                    if kind == "top":
                        cnt["glen"] = glen
                        best = cnt.sort_values(
                            ["r", "c", "g"],
                            ascending=[True, False, True],
                            kind="mergesort",
                        ).drop_duplicates("r")
                        c_arr = best["c"].to_numpy(np.int64)
                        chars = np.where(
                            c_arr >= 2, c_arr * best["glen"].to_numpy(np.int64), 0
                        )
                        ri = best["r"].to_numpy(np.int64)
                        vals[ri] = chars * 10000.0 / L[ri]
                    else:
                        dup = cnt[cnt["c"] >= 2]
                        if len(dup):
                            s = (
                                (dup["c"].to_numpy(np.int64) * glen[cnt["c"] >= 2])
                                * 1.0
                            )
                            agg = pd.Series(s).groupby(
                                dup["r"].to_numpy(np.int64)
                            ).sum()
                            ri = agg.index.to_numpy(np.int64)
                            vals[ri] = agg.to_numpy() * 10000.0 / L[ri]
            out[col] = np.floor(vals) / 10000
        return out


def gopher_quality(sf_dir: str):
    """Per-document FULL Gopher quality filter (:class:`GopherQuality`:
    repetition metrics + signal counts + per-rule verdicts + overall
    pass): embarrassingly parallel map_batches, no shuffle, the whole
    row SQL-checkable."""
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])
    from .util import cached

    return ds.map_batches(
        lambda b: cached("gopher-quality", GopherQuality)(b), batch_format="pandas"
    )
