"""N-gram language-model perplexity scoring (CCNet-style).

The public curation recipe (CCNet, Wenzek et al. 2020) scores every
document with a KenLM n-gram model trained on a trusted corpus and
keeps the low-perplexity head. Here the trusted corpus is the
deterministic splitmix64 train split (``ops.sampling`` — the same
split the Naive Bayes classifier trains on) and the model is a
bigram LM with stupid backoff (Brants et al. 2007, α = 0.4) over
whitespace tokens with a BOS context per document — the no-external-
binary stand-in for KenLM.

Exactness: every log-probability is quantized to FIXED-POINT
micro-nats (``floor(ln(p) * 1e6)`` as int64) at model-build time, so
a document's negative log-likelihood is an INTEGER sum —
order-independent under distributed summation and exactly replayable
in DuckDB (``ln``/``exp`` are libm on both sides; int64 sums stay in
the exact double range). The reported ``ppl`` is
``floor(exp(nll / (n·1e6)) · 1e4) / 1e4`` (floor-truncation, not
round — CLAUDE.md float-compare rule).

Token model: ``\\S+`` tokens; token i is scored given context
``w[i-1]`` (BOS = ``chr(30)`` for i = 0 — a whitespace-free marker;
a pathological corpus containing literal ``chr(30)`` tokens would
merge counts identically on both the Ray and SQL sides, so the
oracle stays exact even then). Probability of token ``w`` after
``p``:

- bigram seen in training:   ``c2(p,w) / c1(p)``
- else (backoff, α = 0.4):   ``0.4 · (c_u(w)+1) / (T+V)`` —
  Laplace-smoothed unigram; unseen ``w`` uses ``1 / (T+V)``.

Scale shape (100 TB):

- counting is ONE keyed shuffle of (prev, cur, partial-count) rows —
  per-batch partial aggregation first, so shuffle rows are bounded
  by distinct bigrams per batch, not tokens;
- the model is collected ONCE and the collect is BOUNDED by a real
  prune between the aggregate and the collect (r3 verdict item 1,
  the KenLM recipe): ``min_count`` (default 2 — singleton bigrams
  dropped) filters inside each shuffle partition, and optional
  ``top_n`` keeps only the N most frequent bigrams (per-partition
  prefilter → exact driver merge of ≤N rows per shuffle partition;
  ties broken count-desc then (prev, cur)-asc, deterministically).
  The unigram table and the T/V totals derive from the PRUNED bigram
  table, so the pruned model is self-consistent; pruned bigrams score through backoff
  and pruned-away words through OOV. The DuckDB oracle replays the
  identical cutoff, so the pruned model stays hash-exact;
- the model ships via ``ray.put`` once, read per worker through the
  worker cache; scoring is a shuffle-free vectorized pass (one
  ``pd.Index.get_indexer`` per table + ``np.add.at`` integer sums).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

from .sampling import TRAIN_BP, splitmix64
from .util import splitmix64_sql, sql_source, tbl

#: fixed-point scale for log-probabilities (micro-nats).
_LP_SCALE = 1e6

#: beginning-of-document context marker (cannot collide with a
#: whitespace-delimited token in sane text; see module docstring).
_BOS = chr(30)

#: key separator for the driver-side bigram index (chr(31) is
#: whitespace-free, so keys are unambiguous for \S+ tokens).
_SEP = chr(31)

#: stupid-backoff multiplier (Brants et al. 2007).
_ALPHA = 0.4


def _doc_tokens(batch: pd.DataFrame):
    """(is_train, token-list Series) for a batch — identical
    tokenization and split hash to ``ops.classify``."""
    from .textstats import RE_WORD  # single source of truth (r5 review)

    texts = batch["text"].fillna("")
    h = splitmix64(batch["doc_id"].to_numpy(np.int64).view(np.uint64))
    is_train = (h % np.uint64(1000)).astype(np.int64) < TRAIN_BP
    return is_train, texts.str.findall(RE_WORD)


def _prev_cur(toks: pd.Series, keep: np.ndarray):
    """Flat (row, prev, cur) arrays for the kept rows of a batch's
    token lists — prev is BOS at position 0 of each document."""
    n = toks.map(len).to_numpy(np.int64)
    row = np.repeat(np.arange(len(toks)), n)
    mask = keep[row]
    cur = toks.explode().dropna().to_numpy()[mask]
    row = row[mask]
    # prev = cur shifted right within each doc; BOS at doc starts
    prev = np.empty(len(cur), dtype=object)
    if len(cur):
        prev[1:] = cur[:-1]
        prev[0] = _BOS
        starts = np.flatnonzero(np.diff(row, prepend=row[0] - 1))
        prev[starts] = _BOS
    return row, prev, cur


def prune_bigram_counts(
    c2: pd.DataFrame, min_count: int, top_n: int | None
) -> pd.DataFrame:
    """Prune a (prev, cur, n) bigram count table: drop bigrams with
    ``n < min_count``, then keep the ``top_n`` most frequent survivors
    (n desc, prev asc, cur asc — a deterministic total order). Applied
    per shuffle bucket (each (prev, cur) group is bucket-local, so n
    is exact there) and, for ``top_n``, once more on the ≤64·N-row
    driver merge."""
    if min_count > 1 and len(c2):
        c2 = c2[c2["n"] >= min_count]
    if top_n is not None and len(c2):
        c2 = c2.sort_values(
            ["n", "prev", "cur"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(top_n)
    return c2


def train_bigram_lm(
    sf_dir: str, min_count: int = 2, top_n: int | None = None
) -> dict:
    """Train the stupid-backoff bigram LM on the hash-split train
    partition. Returns the broadcastable model dict: ``bg_key``
    (sorted ``prev+SEP+cur`` keys) / ``bg_lp`` (int64 micro-nats),
    ``uni_word`` / ``uni_lp``, ``oov_lp`` (backoff already folded
    into the unigram/oov entries is NOT done — backoff is a separate
    integer constant so seen-bigram scores stay pure), ``backoff``,
    and the training totals ``t`` / ``v``.

    ``min_count``/``top_n`` BOUND the driver collect (see module
    docstring); the SQL oracle replays the same cutoff."""
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        is_train, toks = _doc_tokens(batch)
        _, prev, cur = _prev_cur(toks, is_train)
        return (
            pd.DataFrame({"prev": prev, "cur": cur})
            .groupby(["prev", "cur"], sort=False)
            .size()
            .reset_index(name="n")
        )

    # merge the per-batch partials with ONE coarse keyed shuffle +
    # a vectorized pandas sum per bucket — Ray's sort-based
    # groupby().sum() on two string keys costs ~11× more here
    # (measured 6.2 s vs 0.57 s at sf0.01; same merged result, sums
    # are order-independent)
    from .util import coarse_apply, collect

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        # the prune runs HERE, distributed, before any driver collect
        # (each (prev, cur) group lives entirely in this bucket)
        return prune_bigram_counts(
            g.groupby(["prev", "cur"], sort=False)["n"].sum().reset_index(),
            min_count,
            top_n,
        )

    # an EMPTY training split collects a typed empty table and
    # degrades to the flat OOV model
    schema = pa.schema([("prev", pa.string()), ("cur", pa.string()), ("n", pa.int64())])
    c2 = collect(
        coarse_apply(
            ds.map_batches(partials, batch_format="pandas"),
            ["prev", "cur"],
            agg,
            schema,
        ),
        schema,
    )
    if top_n is not None:
        # per-partition prefilter left ≤top_n candidates per shuffle
        # partition; the exact global top_n is one tiny driver-side
        # pass
        c2 = prune_bigram_counts(c2, 1, top_n)
    return lm_model_from_counts(c2)


def lm_model_from_counts(c2: pd.DataFrame) -> dict:
    """Build the broadcastable LM model from the merged (prev, cur, n)
    bigram count table — shared by :func:`train_bigram_lm` and the
    fused one-scan trainer in :func:`model_quality`."""
    # context totals, unigram counts, T and V all derive from the one
    # bigram count table (every token occurs exactly once as `cur`)
    c1 = c2.groupby("prev")["n"].sum()
    cu = c2.groupby("cur")["n"].sum()
    t = int(c2["n"].sum()) if len(c2) else 0
    v = len(cu)
    denom = max(t + v, 1)  # empty training split: degenerate flat model
    # math.log (libm, == DuckDB ln) per distinct bigram/word — the
    # model build is model-sized, not corpus-sized
    bg_key = (c2["prev"] + _SEP + c2["cur"]).to_numpy()
    n1 = c1.reindex(c2["prev"]).to_numpy(np.int64)
    n2 = c2["n"].to_numpy(np.int64)
    bg_lp = np.fromiter(
        (
            math.floor(math.log(int(a) / int(b)) * _LP_SCALE)
            for a, b in zip(n2, n1)
        ),
        dtype=np.int64,
        count=len(n2),
    )
    uni_word = cu.index.to_numpy()
    uni_lp = np.fromiter(
        (
            math.floor(math.log((int(c) + 1) / denom) * _LP_SCALE)
            for c in cu.to_numpy(np.int64)
        ),
        dtype=np.int64,
        count=v,
    )
    return {
        "bg_key": bg_key,
        "bg_lp": bg_lp,
        "uni_word": uni_word,
        "uni_lp": uni_lp,
        "oov_lp": math.floor(math.log(1 / denom) * _LP_SCALE),
        "backoff": math.floor(math.log(_ALPHA) * _LP_SCALE),
        "t": t,
        "v": v,
    }


def lm_score_batch(
    m: dict, bg_idx: pd.Index, uni_idx: pd.Index, batch: pd.DataFrame
) -> pd.DataFrame:
    """Score one batch against a broadcast LM (shared by
    :func:`lm_perplexity` and the fused :func:`model_quality`
    recording query)."""
    is_train, toks = _doc_tokens(batch)
    n = toks.map(len).to_numpy(np.int64)
    row, prev, cur = _prev_cur(toks, np.ones(len(batch), dtype=bool))
    if len(cur):
        keys = np.char.add(np.char.add(prev.astype(str), _SEP), cur.astype(str))
        bpos = bg_idx.get_indexer(keys)
        upos = uni_idx.get_indexer(cur)
    else:
        bpos = upos = np.empty(0, np.int64)
    backoff = bpos < 0
    oov = backoff & (upos < 0)
    # degenerate (empty) model: np.where evaluates both branches, so
    # never index empty lp arrays (review fix, mirrors classify)
    uni_tab = m["uni_lp"] if len(m["uni_lp"]) else np.zeros(1, np.int64)
    bg_tab = m["bg_lp"] if len(m["bg_lp"]) else np.zeros(1, np.int64)
    uni_lp = np.where(upos < 0, m["oov_lp"], uni_tab[np.maximum(upos, 0)])
    lp = np.where(
        backoff, m["backoff"] + uni_lp, bg_tab[np.maximum(bpos, 0)]
    ).astype(np.int64)
    nll = np.zeros(len(batch), dtype=np.int64)
    np.add.at(nll, row, -lp)
    n_backoff = np.bincount(row[backoff], minlength=len(batch)).astype(np.int64)
    n_oov = np.bincount(row[oov], minlength=len(batch)).astype(np.int64)
    ppl = np.zeros(len(batch), dtype=np.float64)
    nz = n > 0
    # floor-truncate at 1e4 (CLAUDE.md float-compare rule); the exp
    # argument is an exact-int64 / exact-double quotient, so libm exp
    # matches DuckDB bit-for-bit (math.exp, not numpy's SIMD exp)
    ppl[nz] = (
        np.floor(
            np.array(
                [
                    math.exp(int(s) / (int(k) * _LP_SCALE))
                    for s, k in zip(nll[nz], n[nz])
                ]
            )
            * 1e4
        )
        / 1e4
    )
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_numpy(np.int64),
            "is_train": is_train,
            "n_tokens": n,
            "n_backoff": n_backoff,
            "n_oov": n_oov,
            "nll_micro": nll,
            "ppl": ppl,
        }
    )


def _cached_lm(model_ref):
    """(model, bigram index, unigram index) — ONE replace-on-new-ref
    worker-cache slot (review fix: per-ref keys accumulate every
    historical model in long-lived sessions)."""
    import ray

    from .util import cached_for_ref

    def build():
        m = ray.get(model_ref)
        return m, pd.Index(m["bg_key"]), pd.Index(m["uni_word"])

    return cached_for_ref("bigram-lm", model_ref, build)


def lm_perplexity(sf_dir: str, min_count: int = 2, top_n: int | None = None):
    """Train on the hash-split train partition, then score EVERY
    document: ``(doc_id, is_train, n_tokens, n_backoff, n_oov,
    nll_micro, ppl)``. ``nll_micro`` is the integer micro-nat
    negative log-likelihood (exact, order-independent); ``ppl`` is
    its floor-truncated perplexity. Valid/test documents exercise the
    backoff and OOV paths."""
    import ray

    model_ref = ray.put(train_bigram_lm(sf_dir, min_count, top_n))
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        return lm_score_batch(*_cached_lm(model_ref), batch)

    return ds.map_batches(score, batch_format="pandas")


def _train_both(
    sf_dir: str,
    min_words: int = 20,
    max_punct_pct: int = 5,
    min_count: int = 2,
) -> tuple[dict, dict]:
    """Train the NB classifier AND the bigram LM from ONE corpus scan
    (review fix: ``model_quality`` used to run the two trainers'
    identical tokenization + split-hash passes back to back — a whole
    redundant corpus read at scale; the tagged-union partial is the
    repo's ``sampling._cap_thresholds_and_rank_offsets`` pattern).
    One keyed shuffle carries both count families — bucketed on
    ``(kind, k1)`` so each word's cross-label total AND each bigram
    group are bucket-local, letting the ``min_count`` prune run
    distributed exactly like the standalone trainers (a hot ``prev``
    key adds at most vocabulary-sized rows to one bucket — negligible
    against the ~V² distinct-bigram table). Each model builds from
    its split of the merged PRUNED table via the SAME
    model-from-counts code the standalone trainers use (fused ==
    standalone asserted in tests/test_lm.py)."""
    from .classify import (
        _labels_and_tokens,
        nb_model_from_counts,
        prune_word_counts,
    )
    from .util import coarse_apply, collect

    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        # ONE tokenization + split hash feeds both count families
        is_train, label, toks = _labels_and_tokens(
            batch, min_words, max_punct_pct
        )
        n = toks.map(len).to_numpy(np.int64)
        row = np.repeat(np.arange(len(batch)), n)
        keep = is_train[row]
        words = toks.explode().dropna().to_numpy()[keep]
        wc = (
            pd.DataFrame({"k1": words, "label": label[row][keep]})
            .groupby(["k1", "label"], sort=False)
            .size()
            .reset_index(name="n")
        )
        wc.insert(0, "kind", "w")
        wc.insert(2, "k2", "")
        dc = (
            pd.DataFrame({"label": label[is_train]})
            .groupby("label", sort=False)
            .size()
            .reset_index(name="n")
        )
        dc.insert(0, "kind", "d")
        dc.insert(1, "k1", "")
        dc.insert(2, "k2", "")
        _, prev, cur = _prev_cur(toks, is_train)
        bc = (
            pd.DataFrame({"k1": prev, "k2": cur})
            .groupby(["k1", "k2"], sort=False)
            .size()
            .reset_index(name="n")
        )
        bc.insert(0, "kind", "b")
        bc.insert(3, "label", False)
        return pd.concat([wc, dc, bc], ignore_index=True)

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby(["kind", "k1", "k2", "label"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        # distributed min_count prune per family (exact per bucket:
        # the (kind, k1) bucketing colocates every row of a word and
        # of a bigram group)
        w = m["kind"] == "w"
        b = m["kind"] == "b"
        wp = prune_word_counts(
            m[w].rename(columns={"k1": "word"}), min_count, None
        ).rename(columns={"word": "k1"})
        bp = prune_bigram_counts(
            m[b].rename(columns={"k1": "prev", "k2": "cur"}),
            min_count,
            None,
        ).rename(columns={"prev": "k1", "cur": "k2"})
        return pd.concat([wp, bp, m[~w & ~b]], ignore_index=True)

    schema = pa.schema(
        [(c, pa.string()) for c in ("kind", "k1", "k2")]
        + [("label", pa.bool_()), ("n", pa.int64())]
    )
    counts = collect(
        coarse_apply(
            ds.map_batches(partials, batch_format="pandas"),
            ["kind", "k1"],
            agg,
            schema,
        ),
        schema,
    )
    nb_counts = counts[counts["kind"].isin(("w", "d"))].rename(
        columns={"k1": "word"}
    )[["kind", "word", "label", "n"]]
    c2 = counts[counts["kind"] == "b"].rename(
        columns={"k1": "prev", "k2": "cur"}
    )[["prev", "cur", "n"]]
    return nb_model_from_counts(nb_counts), lm_model_from_counts(c2)


def model_quality(
    sf_dir: str,
    min_words: int = 20,
    max_punct_pct: int = 5,
    min_count: int = 2,
):
    """Fused model-based quality recording query: the Naive Bayes
    classifier (``ops.classify``) AND the bigram-LM perplexity in ONE
    shuffle-free scoring scan — both models train first (each a
    single keyed shuffle collected model-sized), ship via ``ray.put``
    once, and every batch emits the combined per-document row
    ``(doc_id, is_train, label, n_tokens, n_oov, score_pass,
    score_fail, pred, lm_n_backoff, lm_n_oov, nll_micro, ppl)``.

    Both operators stay first-class (:func:`nb_quality_scores`,
    :func:`lm_perplexity` — each with its own tests); this fusion
    exists because the driver records only 50 ``queries()`` entries,
    and column-for-column it equals the standalone ops (asserted in
    tests/test_lm.py)."""
    import ray

    from .classify import nb_score_batch

    nb_model, lm_model = _train_both(
        sf_dir, min_words, max_punct_pct, min_count
    )
    nb_ref = ray.put(nb_model)
    lm_ref = ray.put(lm_model)
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        from .classify import cached_nb

        nb_m, nb_idx = cached_nb(nb_ref)
        nb = nb_score_batch(nb_m, nb_idx, batch, min_words, max_punct_pct)
        lm = lm_score_batch(*_cached_lm(lm_ref), batch)
        # same batch, same row order; LM's n_tokens/is_train are
        # byte-identical to NB's (same tokenizer + split hash)
        nb["lm_n_backoff"] = lm["n_backoff"]
        nb["lm_n_oov"] = lm["n_oov"]
        nb["nll_micro"] = lm["nll_micro"]
        nb["ppl"] = lm["ppl"]
        return nb

    return ds.map_batches(score, batch_format="pandas")


def lm_perplexity_oracle_sql(
    parquet_path: str, min_count: int = 2, top_n: int | None = None
) -> str:
    """DuckDB replay of the ENTIRE train+score chain (the oracle
    retrains the model in SQL): splitmix64 split, bigram counts with
    BOS contexts over the train partition, THE SAME min_count/top_n
    prune the distributed trainer applies, micro-nat quantization,
    stupid-backoff scoring of every document."""
    topn_pred = (
        f"QUALIFY row_number() OVER (ORDER BY n2 DESC, prev ASC, cur ASC)"
        f" <= {top_n}"
        if top_n is not None
        else ""
    )
    return f"""
        WITH base AS (
            SELECT doc_id, coalesce(text, '') AS text
            FROM {sql_source(parquet_path)}
        ), {splitmix64_sql("doc_id", "base", carry="doc_id")}, hh AS (
            SELECT doc_id, xor(za, za >> 31) % 1000 < {TRAIN_BP} AS is_train
            FROM s2
        ), toks AS (
            SELECT doc_id, regexp_extract_all(text, '\\S+') AS w FROM base
        ), bgl AS (
            SELECT doc_id,
                   unnest(list_transform(range(1, len(w) + 1), i ->
                       struct_pack(
                           prev := CASE WHEN i = 1 THEN chr(30)
                                        ELSE w[i - 1] END,
                           cur := w[i]))) AS s
            FROM toks
        ), bg AS (
            SELECT doc_id, s.prev AS prev, s.cur AS cur FROM bgl
        ), c2 AS (
            -- the SAME prune as the trainer: n >= min_count, then the
            -- top_n most frequent (n desc, (prev, cur) asc)
            SELECT prev, cur, CAST(count(*) AS BIGINT) AS n2
            FROM bg JOIN hh USING (doc_id)
            WHERE is_train GROUP BY prev, cur
            HAVING count(*) >= {min_count}
            {topn_pred}
        ), c1 AS (
            SELECT prev, CAST(sum(n2) AS BIGINT) AS n1 FROM c2 GROUP BY prev
        ), uni AS (
            SELECT cur, CAST(sum(n2) AS BIGINT) AS cu FROM c2 GROUP BY cur
        ), const AS (
            SELECT (SELECT CAST(coalesce(sum(n2), 0) AS BIGINT) FROM c2)
                       AS t,
                   (SELECT count(*) FROM uni) AS v
        ), km AS (
            -- greatest(..., 1) mirrors the Python denom clamp
            -- (ADVICE r3: the degenerate empty/pruned-to-nothing model)
            SELECT CAST(floor(ln({_ALPHA}) * 1e6) AS BIGINT) AS backoff,
                   CAST(floor(ln(1 / greatest(t + v, 1)) * 1e6) AS BIGINT)
                       AS oov_lp
            FROM const
        ), model2 AS (
            SELECT c2.prev, c2.cur,
                   CAST(floor(ln(CAST(n2 AS DOUBLE) / n1) * 1e6) AS BIGINT)
                       AS lp
            FROM c2 JOIN c1 USING (prev)
        ), model1 AS (
            SELECT cur,
                   CAST(floor(ln((cu + 1) / (t + v)) * 1e6) AS BIGINT) AS lp1
            FROM uni, const
        ), contrib AS (
            SELECT b.doc_id,
                   coalesce(m2.lp,
                            k.backoff + coalesce(m1.lp1, k.oov_lp)) AS lp,
                   CASE WHEN m2.lp IS NULL THEN 1 ELSE 0 END AS is_b,
                   CASE WHEN m2.lp IS NULL AND m1.lp1 IS NULL
                        THEN 1 ELSE 0 END AS is_o
            FROM bg b
            LEFT JOIN model2 m2 ON b.prev = m2.prev AND b.cur = m2.cur
            LEFT JOIN model1 m1 ON b.cur = m1.cur
            CROSS JOIN km k
        ), per_doc AS (
            SELECT doc_id,
                   CAST(-sum(lp) AS BIGINT) AS nll,
                   CAST(sum(is_b) AS BIGINT) AS nb,
                   CAST(sum(is_o) AS BIGINT) AS no,
                   CAST(count(*) AS BIGINT) AS n
            FROM contrib GROUP BY doc_id
        )
        SELECT d.doc_id, h.is_train,
               coalesce(p.n, 0) AS n_tokens,
               coalesce(p.nb, 0) AS n_backoff,
               coalesce(p.no, 0) AS n_oov,
               coalesce(p.nll, 0) AS nll_micro,
               CASE WHEN coalesce(p.n, 0) = 0 THEN 0.0
                    ELSE floor(exp(CAST(p.nll AS DOUBLE)
                                   / (p.n * 1000000.0)) * 1e4) / 1e4
               END AS ppl
        FROM base d
        JOIN hh h USING (doc_id)
        LEFT JOIN per_doc p USING (doc_id)
        ORDER BY d.doc_id
    """


def model_quality_oracle_sql(
    parquet_path: str,
    min_words: int = 20,
    max_punct_pct: int = 5,
    min_count: int = 2,
) -> str:
    """Fused DuckDB oracle for :func:`model_quality`: the Naive Bayes
    oracle and the bigram-LM oracle (each a full train+score SQL
    replay, both pruned at the same ``min_count``) joined on doc_id.
    LM's is_train/n_tokens are provably identical to NB's (same
    tokenizer + split hash), so only NB's are projected."""
    from .classify import nb_quality_oracle_sql

    return f"""
        WITH nb AS ({nb_quality_oracle_sql(parquet_path, min_words,
                                           max_punct_pct, min_count)}),
        lmq AS ({lm_perplexity_oracle_sql(parquet_path, min_count)})
        SELECT nb.doc_id, nb.is_train, nb.label, nb.n_tokens, nb.n_oov,
               nb.score_pass, nb.score_fail, nb.pred,
               lmq.n_backoff AS lm_n_backoff,
               lmq.n_oov AS lm_n_oov,
               lmq.nll_micro, lmq.ppl
        FROM nb JOIN lmq USING (doc_id)
        ORDER BY nb.doc_id
    """
