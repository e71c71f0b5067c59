"""Deterministic corpus sampling / splitting / capping operators."""

import pathlib

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def test_splitmix64_reference_vector():
    """Public test vector (Vigna's splitmix64.c: seed 0 →
    0xE220A8397B1DCDAF) plus bijectivity on a range."""
    from lexor_ray.ops.sampling import splitmix64

    assert int(splitmix64(np.array([0]))[0]) == 0xE220A8397B1DCDAF
    xs = np.arange(100_000, dtype=np.uint64)
    assert len(np.unique(splitmix64(xs))) == len(xs)


def test_corpus_sampling_matches_local_recompute(ray_session):
    """Every emitted decision equals a driver-local numpy recompute
    over the full table — split thresholds, stratified rates,
    per-source cap membership, and the global shuffle rank."""
    import pyarrow.parquet as pq

    from lexor_ray.ops.sampling import (
        DEFAULT_LANG_RATES_BP,
        RANK_SALT,
        SAMPLE_SALT,
        TRAIN_BP,
        VALID_BP,
        corpus_sampling,
        splitmix64,
    )

    got = corpus_sampling(SF).to_pandas()
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "lang", "source"]
    ).to_pandas()
    ids = docs["doc_id"].to_numpy(np.uint64)
    h = splitmix64(ids)
    hs = splitmix64(ids ^ SAMPLE_SALT)
    mod = (h % np.uint64(1000)).astype(np.int64)
    want_split = np.where(
        mod < TRAIN_BP, "train", np.where(mod < VALID_BP, "valid", "test")
    )
    rates = docs["lang"].map(DEFAULT_LANG_RATES_BP).to_numpy(np.int64)
    want_sampled = (hs % np.uint64(10000)).astype(np.int64) < rates
    rank_in_source = (
        pd.DataFrame({"source": docs["source"], "h": h})
        .groupby("source")["h"]
        .rank(method="first")
        .to_numpy()
    )
    want_kept = rank_in_source <= 15
    # rank rides its own salted stream, independent of the cap hash
    # (r5 review: survivors of a capped source must not cluster at
    # the lowest ranks)
    want_rank = np.argsort(np.argsort(splitmix64(ids ^ RANK_SALT)))

    got = got.sort_values("doc_id").reset_index(drop=True)
    order = np.argsort(docs["doc_id"].to_numpy())
    assert list(got["split"]) == list(want_split[order])
    assert list(got["sampled"]) == list(want_sampled[order])
    assert list(got["kept_by_cap"]) == list(want_kept[order])
    assert list(got["shuffle_rank"]) == list(want_rank[order])


def test_corpus_sampling_empty_input(ray_session, tmp_path):
    """A documents table with no rows: the cap/rank pre-aggregate
    collects a typed empty table, and the operator returns no rows
    instead of failing on a missing column."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexor_ray.ops.sampling import corpus_sampling

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    assert corpus_sampling(str(tmp_path)).take_all() == []


def test_corpus_sampling_split_proportions(ray_session):
    from lexor_ray.ops.sampling import corpus_sampling

    df = corpus_sampling(SF).to_pandas()
    frac = df["split"].value_counts(normalize=True)
    assert 0.8 < frac.get("train", 0) < 0.97
    assert frac.get("test", 0) > 0
    # per-source cap really bounds every source
    assert df["kept_by_cap"].sum() <= 15 * 20
    assert not df["kept_by_cap"].all()  # the cap actually cuts
    # shuffle_rank is a permutation of 0..n-1
    assert sorted(df["shuffle_rank"]) == list(range(len(df)))


def test_gopher_ngrams_planted():
    """Planted repetition vs a naive Counter implementation."""
    from collections import Counter

    from lexor_ray.ops.textstats import GopherQuality

    texts = [
        "spam ham spam ham spam ham eggs",
        "one two three four five six seven eight",  # no repeats
        "a b c d e f a b c d e f a b c d e f",  # long dup 5/6-grams
        "",
        "solo",
    ]
    batch = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = GopherQuality()(batch)

    def naive(text, n, kind):
        words = text.split()
        L = max(len(text), 1)
        grams = [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]
        c = Counter(grams)
        if kind == "top":
            if not c:
                return 0.0
            # tie-break: highest count, lexicographically smallest gram
            best = min(c.items(), key=lambda kv: (-kv[1], kv[0]))
            chars = best[1] * len(best[0]) if best[1] >= 2 else 0
            return np.floor(chars * 10000.0 / L) / 10000
        chars = sum(v * len(k) for k, v in c.items() if v >= 2)
        return np.floor(chars * 10000.0 / L) / 10000

    for i, t in enumerate(texts):
        row = got[got["doc_id"] == i].iloc[0]
        assert row["top2_frac"] == naive(t, 2, "top"), (i, "top2")
        assert row["top3_frac"] == naive(t, 3, "top"), (i, "top3")
        assert row["dup5_frac"] == naive(t, 5, "dup"), (i, "dup5")
        assert row["dup6_frac"] == naive(t, 6, "dup"), (i, "dup6")
    # the planted repeats actually fire
    assert got.loc[0, "top2_frac"] > 0 and got.loc[2, "dup6_frac"] > 0


def _text_quality_oracle(sf_dir: str) -> pd.DataFrame:
    import sys

    import duckdb

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    import __ray_entry__

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    return con.sql(__ray_entry__.oracle_sql()["text_quality_stats"]).df()


def _assert_matches_text_quality_oracle(sf_dir: str) -> pd.DataFrame:
    """text_quality_stats of ``sf_dir`` sorted by doc_id, after
    checking it against the oracle on every column."""
    from lexor_ray.ops.textstats import text_quality_stats

    got = text_quality_stats(sf_dir).to_pandas()
    want = _text_quality_oracle(sf_dir)
    assert list(got.columns) == list(want.columns)
    got = got.sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(
        got, want.sort_values("doc_id", ignore_index=True), check_dtype=False
    )
    return got


def test_text_quality_stats_matches_parents(ray_session):
    """The recorded entry equals its DuckDB oracle on the shared test
    data, on every column and in the oracle's column order."""
    _assert_matches_text_quality_oracle(SF)


def test_text_quality_stats_matches_oracle_on_unicode_whitespace(
    ray_session, tmp_path
):
    """Words split where the oracle's RE2 splits them: on tab,
    newline, form feed, carriage return and space, and not on a
    no-break space, a vertical tab, an em space or an ideographic
    space. A text that starts with a tab or ends with a newline has
    no extra word."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    passing = " ".join(f"word{i}" for i in range(24)) + " the end."
    texts = [
        "a\xa0b c",
        "x\vy z",
        "p\u2003q",
        "\u3000",
        "ideographic\u3000space here",
        "\tTabbed start\nsecond line\r\nthird\fpage\n",
        "",
        passing,
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = _assert_matches_text_quality_oracle(str(tmp_path))
    assert list(got["n_tokens"]) == [2, 2, 1, 1, 2, 6, 0, 26]
    assert list(got["passes"]) == [False] * 7 + [True]


def test_neardup_candidates_union(ray_session):
    """The tagged union carries exactly the two parents' row sets."""
    from lexor_ray.ops.dedup import (
        neardup_candidates,
        ngram_jaccard_pairs,
        simhash_candidates,
    )

    fused = neardup_candidates(SF).to_pandas()
    nj = ngram_jaccard_pairs(SF).to_pandas()  # Dataset or pa.Table
    sh = simhash_candidates(SF).to_pandas()
    j = fused[fused["algo"] == "jaccard"]
    s = fused[fused["algo"] == "simhash"]
    assert len(j) == len(nj) and len(s) == len(sh)
    assert set(zip(j["a"], j["b"])) == set(zip(nj["a"], nj["b"]))
    assert set(zip(s["a"], s["b"])) == set(zip(sh["a"], sh["b"]))


def test_gopher_quality_rules_crafted():
    """Each Gopher rule flips on a crafted document that violates ONLY
    it (the others hold), plus one document passing everything."""
    from lexor_ray.ops.textstats import GopherQuality

    # 60 distinct-ish words incl. >=2 stopwords, alphabetic, no
    # symbols/bullets/ellipses, mean word length in [3, 10]
    good = "the quick brown fox jumps over and over with " + " ".join(
        f"word{i:03d}" for i in range(51)
    )
    texts = {
        "pass": good,
        "too_short": "the cat sat with a mat",  # < 50 words
        "long_words": "the with " + " ".join(
            "x" * 40 for _ in range(58)
        ),  # mean word length > 10
        "symbols": good + " " + "#" * 20,  # > 0.1 symbols/word
        "bullets": "- the item with stuff\n" * 20
        + good.replace(" ", "\n", 0),  # all lines bulleted
        "ellipsis": (good + "...\n") * 5,  # >30% lines end ...
        "non_alpha": "the with " + " ".join(
            str(i) for i in range(1000, 1058)
        ),  # <80% alphabetic words
        "no_stop": " ".join(f"tok{i:03d}" for i in range(60)),
        "repetition": "the with " + "spam ham " * 40,  # top2 > 0.2
    }
    batch = pd.DataFrame(
        {"doc_id": range(len(texts)), "text": list(texts.values())}
    )
    got = GopherQuality()(batch).set_index(
        pd.Index(list(texts.keys()), name="case")
    )
    assert bool(got.loc["pass", "passes_gopher"])
    expect_broken = {
        "too_short": "rule_words",
        "long_words": "rule_word_len",
        "symbols": "rule_symbols",
        "bullets": "rule_bullets",
        "ellipsis": "rule_ellipsis",
        "non_alpha": "rule_alpha",
        "no_stop": "rule_stopwords",
        "repetition": "rule_repetition",
    }
    for case, rule in expect_broken.items():
        assert not got.loc[case, rule], (case, rule)
        assert not got.loc[case, "passes_gopher"], case


def test_gopher_quality_vs_naive_reference():
    """Signal columns recomputed by an independent per-document pure-
    Python implementation over a randomized corpus (seeded) — catches
    vectorization bugs (bincount offsets, explode alignment) the
    crafted cases might miss."""
    import random

    from lexor_ray.ops.textstats import _GOPHER_STOPWORDS, GopherQuality

    rng = random.Random(11)
    vocab = ["the", "of", "and", "x#y", "...", "•item", "Word", "123", "émî"]
    texts = []
    for _ in range(60):
        n = rng.randint(0, 80)
        words = [rng.choice(vocab) for _ in range(n)]
        # random newlines to exercise the line-based rules
        sep = lambda: "\n" if rng.random() < 0.15 else " "  # noqa: E731
        texts.append(sep().join(words) if words else "")
    texts += ["", "\n\n", "- only\n- bullets\n", "ends...\n…"]
    batch = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = GopherQuality()(batch)

    for i, t in enumerate(texts):
        words = t.split()
        lines = t.split("\n")
        row = got.iloc[i]
        assert row["n_words"] == len(words), i
        assert row["n_word_chars"] == sum(len(w) for w in words), i
        n_sym = (
            t.count("#")
            + (len(t) - len(t.replace("...", ""))) // 3
            + t.count("…")
        )
        assert row["n_symbols"] == n_sym, i
        assert row["n_lines"] == len(lines), i
        assert row["n_bullet_lines"] == sum(
            ln.startswith(("- ", "* ", "•")) for ln in lines
        ), i
        assert row["n_ellipsis_lines"] == sum(
            ln.endswith(("...", "…")) for ln in lines
        ), i
        assert row["n_alpha_words"] == sum(
            any(c.isascii() and c.isalpha() for c in w) for w in words
        ), i
        assert row["n_stopwords"] == len(
            {w.lower() for w in words} & set(_GOPHER_STOPWORDS)
        ), i
