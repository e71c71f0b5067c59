"""Model-based quality classification (fastText/CCNet-style distill).

The public curation recipe (CCNet, Wenzek et al. 2020; GPT-3 §A;
DCLM): train a cheap linear text classifier on quality labels, then
score the whole corpus with it. Here the teacher is this repo's own
rule-based quality filter (``textstats.passes_quality_filter``, the
``passes`` column of ``text_quality_stats``) and the student is a
multinomial Naive Bayes over whitespace tokens — the closed-form
stand-in for fastText's linear classifier (no GPU, no iterative
training, deterministic).

Exactness: every log-probability is quantized to FIXED-POINT
micro-nats (``floor(ln(p) * 1e6)`` as int64) at model-build time, so a
document's score is an INTEGER sum — order-independent under any
distributed summation, and exactly replayable in DuckDB (ln == libm
log on both sides; int64 sums stay < 2^53-free exact range). Ties
break toward ``pass`` (``score_pass >= score_fail``).

Train/score protocol: the training set is the deterministic hash
split of ``ops.sampling`` (``splitmix64(doc_id) % 1000 < 900`` —
bijective, no ties); EVERY document is scored, so valid/test docs
exercise the out-of-vocabulary path.

Scale shape (100 TB):

- the teacher labels + token counts are ONE vectorized pass;
  per-(word, class) counts partial-aggregate per batch before the
  single keyed shuffle (one row per word per class, not per token);
- the model (vocabulary + two int64 log-prob columns) is collected to
  the driver ONCE, and the collect is BOUNDED by a real prune between
  the aggregate and the collect (r3 verdict item 1): ``min_count``
  (default 2 — hapax words dropped, the fastText/KenLM recipe) filters
  inside each shuffle partition, and optional ``top_v`` keeps only
  the V most frequent words (per-partition prefilter → exact driver
  merge of ≤V rows per shuffle partition; ties broken count-desc
  then word-asc, deterministically).
  Pruned/unseen words score through the OOV path; the DuckDB oracle
  replays the identical cutoff, so the pruned model stays hash-exact;
- the model ships via ``ray.put`` once and is read per worker through
  the worker cache; scoring is a shuffle-free vectorized pass
  (``pd.Index.get_indexer`` + ``np.add.at`` integer accumulation).
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


def _labels_and_tokens(batch: pd.DataFrame, min_words: int, max_punct_pct: int):
    """(is_train, label, token lists) for a batch — the teacher label
    is the rule filter's verdict (``textstats.passes_quality_filter``
    over the one quality kernel), plus the deterministic split hash."""
    from .textstats import RE_WORD, _quality_signals, passes_quality_filter

    texts = batch["text"].fillna("")
    sig = _quality_signals(pa.array(texts, type=pa.string()))
    label = passes_quality_filter(sig, min_words, max_punct_pct)
    h = splitmix64(batch["doc_id"].to_numpy(np.int64).view(np.uint64))
    is_train = (h % np.uint64(1000)).astype(np.int64) < TRAIN_BP
    return is_train, label, texts.str.findall(RE_WORD)


def prune_word_counts(
    wc: pd.DataFrame, min_count: int, top_v: int | None
) -> pd.DataFrame:
    """Prune a (word, label, n) count table: drop words whose TOTAL
    count (across labels) is below ``min_count``, then keep the
    ``top_v`` most frequent surviving words (count desc, word asc —
    a deterministic total order). Applied per shuffle bucket (words
    are bucket-local, so per-word totals are exact there) and, for
    ``top_v``, once more on the ≤64·V-row driver merge."""
    if not len(wc):
        return wc
    tot = wc.groupby("word", sort=False)["n"].transform("sum")
    if min_count > 1:
        wc = wc[tot >= min_count]
        tot = tot[tot >= min_count]
    if top_v is not None and len(wc):
        totals = (
            pd.DataFrame({"word": wc["word"], "t": tot})
            .drop_duplicates("word")
            .sort_values(["t", "word"], ascending=[False, True],
                         kind="mergesort")
            .head(top_v)
        )
        wc = wc[wc["word"].isin(totals["word"])]
    return wc


def train_nb_quality(
    sf_dir: str,
    min_words: int = 20,
    max_punct_pct: int = 5,
    min_count: int = 2,
    top_v: int | None = None,
) -> dict:
    """Train the Naive Bayes model on the hash-split training
    partition. Returns the broadcastable model dict:
    ``words`` (sorted vocabulary), ``lp_pass``/``lp_fail`` (int64
    micro-nat log-likelihoods per word), ``oov_pass``/``oov_fail``
    (unseen-word log-likelihood per class), ``prior_pass``/
    ``prior_fail`` (Laplace-smoothed class priors).

    ``min_count``/``top_v`` BOUND the driver collect (see module
    docstring): the vocabulary/totals derive entirely from the pruned
    count table, so the pruned model is self-consistent and the SQL
    oracle replays the same cutoff as one more predicate."""
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        is_train, label, toks = _labels_and_tokens(
            batch, min_words, max_punct_pct
        )
        n = toks.map(len).to_numpy(np.int64)
        row = np.repeat(np.arange(len(batch)), n)
        keep = is_train[row]
        # explode() emits one NaN per empty token list; dropna realigns
        # the flat array with `row` (built from the true counts)
        words = toks.explode().dropna().to_numpy()[keep]
        lab = label[row][keep]
        wc = (
            pd.DataFrame({"word": words, "label": lab})
            .groupby(["word", "label"], sort=False)
            .size()
            .reset_index(name="n")
        )
        wc.insert(0, "kind", "w")
        dc = (
            pd.DataFrame({"label": label[is_train]})
            .groupby("label", sort=False)
            .size()
            .reset_index(name="n")
        )
        dc.insert(0, "kind", "d")
        dc.insert(1, "word", "")
        return pd.concat([wc, dc], ignore_index=True)

    # merge the per-batch partials with ONE coarse keyed shuffle + a
    # vectorized pandas sum per bucket (same merged result — sums are
    # order-independent); Ray's sort-based groupby().sum() on string
    # keys costs several× more at this shape (see ops/lm.py, measured)
    from .util import coarse_apply, collect

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby(["kind", "word", "label"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        # the prune runs HERE, distributed, before any driver collect:
        # each bucket holds every partial of its words (bucket keys
        # exclude label for exactly this reason), so per-word totals
        # are exact per bucket
        w = m["kind"] == "w"
        return pd.concat(
            [prune_word_counts(m[w], min_count, top_v), m[~w]],
            ignore_index=True,
        )

    # an EMPTY training split collects a typed empty table and
    # degrades to the flat prior model
    schema = pa.schema(
        [("kind", pa.string()), ("word", pa.string())]
        + [("label", pa.bool_()), ("n", pa.int64())]
    )
    counts = collect(
        coarse_apply(
            ds.map_batches(partials, batch_format="pandas"),
            ["kind", "word"],
            agg,
            schema,
        ),
        schema,
    )
    if top_v is not None:
        # per-partition prefilter left ≤top_v candidate words per
        # shuffle partition; the exact global top_v is one tiny
        # driver-side pass
        w = counts["kind"] == "w"
        counts = pd.concat(
            [prune_word_counts(counts[w], 1, top_v), counts[~w]],
            ignore_index=True,
        )
    return nb_model_from_counts(counts)


def nb_model_from_counts(counts: pd.DataFrame) -> dict:
    """Build the broadcastable NB model from the merged (kind, word,
    label, n) count table — shared by :func:`train_nb_quality` and the
    fused one-scan trainer in ``ops.lm.model_quality``."""
    wc = counts[counts["kind"] == "w"]
    dc = counts[counts["kind"] == "d"]
    d_pass = int(dc[dc["label"]]["n"].sum())
    d_fail = int(dc[~dc["label"]]["n"].sum())
    vocab = np.sort(wc["word"].unique())
    v = len(vocab)
    per_class = {}
    for cls in (True, False):
        sub = wc[wc["label"] == cls].set_index("word")["n"]
        t_c = int(sub.sum())
        cnt = sub.reindex(vocab, fill_value=0).to_numpy(np.int64)
        denom = max(t_c + v, 1)  # empty training split: degenerate flat model
        # math.log (libm, == DuckDB ln) per vocabulary entry — the
        # model build is vocabulary-sized, not corpus-sized
        lp = np.fromiter(
            (math.floor(math.log((int(c) + 1) / denom) * _LP_SCALE) for c in cnt),
            dtype=np.int64,
            count=v,
        )
        per_class[cls] = {
            "lp": lp,
            "oov": math.floor(math.log(1 / denom) * _LP_SCALE),
        }
    d = d_pass + d_fail
    return {
        "words": vocab,
        "lp_pass": per_class[True]["lp"],
        "lp_fail": per_class[False]["lp"],
        "oov_pass": per_class[True]["oov"],
        "oov_fail": per_class[False]["oov"],
        "prior_pass": math.floor(math.log((d_pass + 1) / (d + 2)) * _LP_SCALE),
        "prior_fail": math.floor(math.log((d_fail + 1) / (d + 2)) * _LP_SCALE),
    }


def nb_score_batch(
    m: dict, idx: pd.Index, batch: pd.DataFrame, min_words: int,
    max_punct_pct: int,
) -> pd.DataFrame:
    """Score one batch against a broadcast model (shared by
    :func:`nb_quality_scores` and the fused ``lm.model_quality``
    recording query)."""
    is_train, label, toks = _labels_and_tokens(batch, min_words, max_punct_pct)
    n = toks.map(len).to_numpy(np.int64)
    row = np.repeat(np.arange(len(batch)), n)
    words = toks.explode().dropna().to_numpy()
    pos = idx.get_indexer(words) if len(words) else np.empty(0, np.int64)
    oov = pos < 0
    if len(m["lp_pass"]) == 0:
        # degenerate (empty-vocabulary) model: everything is OOV —
        # np.where evaluates both branches, so don't index the empty
        # lp arrays (review fix)
        lp_pass = np.full(len(pos), m["oov_pass"], dtype=np.int64)
        lp_fail = np.full(len(pos), m["oov_fail"], dtype=np.int64)
    else:
        lp_pass = np.where(oov, m["oov_pass"], m["lp_pass"][np.maximum(pos, 0)])
        lp_fail = np.where(oov, m["oov_fail"], m["lp_fail"][np.maximum(pos, 0)])
    sp = np.full(len(batch), m["prior_pass"], dtype=np.int64)
    sf = np.full(len(batch), m["prior_fail"], dtype=np.int64)
    np.add.at(sp, row, lp_pass.astype(np.int64))
    np.add.at(sf, row, lp_fail.astype(np.int64))
    n_oov = np.bincount(row[oov], minlength=len(batch)).astype(np.int64)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_numpy(np.int64),
            "is_train": is_train,
            "label": label,
            "n_tokens": n,
            "n_oov": n_oov,
            "score_pass": sp,
            "score_fail": sf,
            "pred": sp >= sf,
        }
    )


def nb_quality_scores(
    sf_dir: str,
    min_words: int = 20,
    max_punct_pct: int = 5,
    min_count: int = 2,
    top_v: int | None = None,
):
    """Train on the hash-split train partition, then score EVERY
    document: ``(doc_id, is_train, label, n_tokens, n_oov,
    score_pass, score_fail, pred)`` with integer micro-nat scores.
    ``pred`` is the classifier's verdict (ties toward pass); ``label``
    is the teacher rule's verdict for eval convenience."""
    import ray

    model_ref = ray.put(
        train_nb_quality(sf_dir, min_words, max_punct_pct, min_count, top_v)
    )
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        m, idx = cached_nb(model_ref)
        return nb_score_batch(m, idx, batch, min_words, max_punct_pct)

    return ds.map_batches(score, batch_format="pandas")


def cached_nb(model_ref):
    """Worker-cached ``(model, word Index)`` for a broadcast NB model
    — ONE replace-on-new-ref slot (review fix: per-ref keys accumulate
    every historical model in long-lived sessions), shared by
    :func:`nb_quality_scores` and the fused ``lm.model_quality``
    scorer (r5 review: the build closure was duplicated
    line-for-line there)."""
    import ray

    from .util import cached_for_ref

    def build():
        m_ = ray.get(model_ref)
        return m_, pd.Index(m_["words"])

    return cached_for_ref("nb-quality", model_ref, build)


def nb_quality_oracle_sql(
    parquet_path: str,
    min_words: int = 20,
    max_punct_pct: int = 5,
    min_count: int = 2,
    top_v: int | None = None,
) -> str:
    """DuckDB replay of the ENTIRE train+score chain (the oracle
    retrains the model in SQL): splitmix64 split, teacher labels,
    word counts, THE SAME min_count/top_v prune the distributed
    trainer applies, micro-nat quantization, per-document integer
    scores. Shared by __ray_entry__ (fused ``model_quality`` row)
    and tests/test_classify.py."""
    topv_pred = (
        f"QUALIFY row_number() OVER (ORDER BY cp + cf DESC, word ASC)"
        f" <= {top_v}"
        if top_v is not None
        else ""
    )
    return f"""
        WITH base AS (
            SELECT doc_id, coalesce(text, '') AS text
            FROM {sql_source(parquet_path)}
        ), {splitmix64_sql("doc_id", "base", carry="doc_id")}, hh AS (
            SELECT doc_id, xor(za, za >> 31) % 1000 < {TRAIN_BP} AS is_train
            FROM s2
        ), lab AS (
            SELECT b.doc_id, h.is_train,
                   len(regexp_extract_all(b.text, '\\S+')) AS n_tokens,
                   (len(regexp_extract_all(b.text, '\\S+')) >= {min_words}
                    AND length(regexp_replace(b.text,
                            '[^!-/:-@\\[-`{{-~]', '', 'g')) * 100
                        <= length(b.text) * {max_punct_pct}) AS label
            FROM base b JOIN hh h USING (doc_id)
        ), trainw AS (
            SELECT l.doc_id, l.label,
                   unnest(regexp_extract_all(b.text, '\\S+')) AS word
            FROM base b JOIN lab l USING (doc_id)
            WHERE l.is_train
        ), wc AS (
            -- the SAME prune as the trainer: total count >= min_count,
            -- then the top_v most frequent (count desc, word asc)
            SELECT word,
                   CAST(sum(CASE WHEN label THEN 1 ELSE 0 END) AS BIGINT)
                       AS cp,
                   CAST(sum(CASE WHEN NOT label THEN 1 ELSE 0 END) AS BIGINT)
                       AS cf
            FROM trainw GROUP BY word
            HAVING count(*) >= {min_count}
            {topv_pred}
        ), const AS (
            -- v / t_* derive from the PRUNED vocabulary, exactly like
            -- nb_model_from_counts builds from the pruned count table
            SELECT (SELECT count(*) FROM wc) AS v,
                   (SELECT CAST(coalesce(sum(cp), 0) AS BIGINT) FROM wc)
                       AS t_pass,
                   (SELECT CAST(coalesce(sum(cf), 0) AS BIGINT) FROM wc)
                       AS t_fail,
                   (SELECT count(*) FROM lab WHERE is_train AND label)
                       AS d_pass,
                   (SELECT count(*) FROM lab WHERE is_train AND NOT label)
                       AS d_fail
        ), km AS (
            -- greatest(..., 1) mirrors the Python denom clamp
            -- (ADVICE r3: the degenerate empty/pruned-to-nothing model)
            SELECT CAST(floor(ln(1 / greatest(t_pass + v, 1)) * 1e6)
                        AS BIGINT) AS oov_pass,
                   CAST(floor(ln(1 / greatest(t_fail + v, 1)) * 1e6)
                        AS BIGINT) AS oov_fail,
                   CAST(floor(ln((d_pass + 1) / (d_pass + d_fail + 2)) * 1e6)
                        AS BIGINT) AS prior_pass,
                   CAST(floor(ln((d_fail + 1) / (d_pass + d_fail + 2)) * 1e6)
                        AS BIGINT) AS prior_fail
            FROM const
        ), model AS (
            SELECT word,
                   CAST(floor(ln((cp + 1) / greatest(t_pass + v, 1)) * 1e6)
                        AS BIGINT) AS lp_pass,
                   CAST(floor(ln((cf + 1) / greatest(t_fail + v, 1)) * 1e6)
                        AS BIGINT) AS lp_fail
            FROM wc, const
        ), tok AS (
            SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS word
            FROM base
        ), contrib AS (
            SELECT t.doc_id,
                   coalesce(m.lp_pass, k.oov_pass) AS lp_pass,
                   coalesce(m.lp_fail, k.oov_fail) AS lp_fail,
                   CASE WHEN m.word IS NULL THEN 1 ELSE 0 END AS is_oov
            FROM tok t LEFT JOIN model m ON t.word = m.word CROSS JOIN km k
        ), per_doc AS (
            SELECT doc_id,
                   CAST(sum(lp_pass) AS BIGINT) AS sp,
                   CAST(sum(lp_fail) AS BIGINT) AS sf,
                   CAST(sum(is_oov) AS BIGINT) AS n_oov
            FROM contrib GROUP BY doc_id
        )
        SELECT l.doc_id, l.is_train, l.label,
               CAST(l.n_tokens AS BIGINT) AS n_tokens,
               coalesce(p.n_oov, 0) AS n_oov,
               k.prior_pass + coalesce(p.sp, 0) AS score_pass,
               k.prior_fail + coalesce(p.sf, 0) AS score_fail,
               k.prior_pass + coalesce(p.sp, 0)
                   >= k.prior_fail + coalesce(p.sf, 0) AS pred
        FROM lab l LEFT JOIN per_doc p USING (doc_id) CROSS JOIN km k
        ORDER BY l.doc_id
    """
