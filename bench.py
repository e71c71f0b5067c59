"""Benchmark harness (driver contract).

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) with ``ray.init(address='local',
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "turns_per_sec": ...}

``--scaling`` reruns the headline extraction in fresh subprocesses at
num_cpus=8 and num_cpus=32 on the same input and reports both
throughputs + scaling efficiency (the sandbox proxy for the N vs 4N
cluster criterion, SURVEY.md §4.3) and appends nothing — record the
numbers in BASELINE.md manually.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def run_benchmarks(sf_dir: str, num_cpus: int) -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from lexor_ray.pipeline import extract_ds, read_transcripts
    from lexor_ray.transcripts import sf_from_dir, transcripts_dir

    sf = sf_from_dir(sf_dir)
    bench_turns = os.environ.get("GRAFT_BENCH_TURNS")
    if bench_turns:  # override: e.g. scaling runs use a larger input
        sf = int(bench_turns) / 1_000_000
    tdir = transcripts_dir(sf)
    only = os.environ.get("GRAFT_BENCH_ONLY", "").split(",") if os.environ.get(
        "GRAFT_BENCH_ONLY"
    ) else None

    # warm the page cache so we measure compute + shuffle, not cold
    # IO: actually touch every byte of the input parquet (r4 review:
    # count_rows() answers from footers without reading data pages,
    # and the ops tables were never pre-read at all)
    import glob as _glob

    for _f in sorted(
        _glob.glob(os.path.join(tdir, "*.parquet"))
        + _glob.glob(os.path.join(sf_dir, "*.parquet"))
    ):
        with open(_f, "rb") as _fh:
            while _fh.read(1 << 24):
                pass
    import pyarrow.dataset as pads

    n_turns = pads.dataset(tdir, format="parquet").count_rows()

    # warm the worker pool (untimed): force every worker process to
    # start and import the library once, as a long-lived cluster would
    # have — otherwise per-process import cost lands in the first
    # timed stage.
    import ray.data as rd

    def _warm(batch):
        import lexor_ray.extract  # noqa: F401

        lexor_ray.extract.extract_one("<p>warm</p>")
        return batch

    rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        _warm, batch_size=1
    ).materialize()

    timings: dict[str, float] = {}

    def timed(name, fn, repeats: int = 1):
        if only is not None and name not in only:
            return
        best = None
        for _ in range(repeats):
            t0 = time.time()
            fn()
            dt = time.time() - t0
            best = dt if best is None else min(best, dt)
        timings[name] = round(best, 3)

    # headline: full extraction consumed by the production sink — a
    # distributed parquet write (driver-side iter_batches would funnel
    # every output block through one process and cap throughput).
    # GRAFT_PROD_SHAPE=1 switches every extract row to the
    # production-sink shape (carry_source=False — the run_extraction
    # default since r4: the source text stays in the input table and
    # is not re-emitted); the default keeps the r1–r3-comparable shape
    prod_shape = os.environ.get("GRAFT_PROD_SHAPE", "") not in ("", "0")

    def read_per_file(d: str):
        # one block per input file, never split — the read shape
        # run_extraction uses for each chunk
        files = sorted(_glob.glob(os.path.join(d, "*.parquet")))
        return read_transcripts(files, override_num_blocks=len(files))

    def run_extract():
        import shutil

        out_dir = "/tmp/lexor_ray_bench/extract"
        shutil.rmtree(out_dir, ignore_errors=True)
        ds = read_per_file(tdir)
        out = extract_ds(
            ds, emit_log=True, emit_lineage=True, carry_source=not prod_shape
        )
        out.write_parquet(out_dir)

    # best of 2: the first pass additionally warms plasma / allocator /
    # page-cache state a long-lived cluster would already have
    timed("extract_turns", run_extract, repeats=2)

    from lexor_ray.ops import dedup, relational, similarity, textstats

    timed("q1_pricing_summary", lambda: relational.q1_pricing_summary(sf_dir).to_pandas())
    timed(
        "events_tumbling_window",
        lambda: relational.events_tumbling_window(sf_dir).to_pandas(),
    )
    timed(
        "events_sessionize", lambda: relational.events_sessionize(sf_dir).to_pandas()
    )
    timed("exact_dedup", lambda: dedup.exact_dedup(sf_dir).to_pandas())
    timed("minhash_dedup", lambda: dedup.minhash_dedup(sf_dir).to_pandas())
    timed("brute_force_topk", lambda: similarity.brute_force_topk(sf_dir).to_pandas())
    timed("lsh_ann_topk", lambda: similarity.lsh_ann_topk(sf_dir).to_pandas())
    timed(
        "text_quality_stats",
        lambda: textstats.text_quality_stats(sf_dir).to_pandas(),
    )

    from lexor_ray.ops import decontam, pii

    timed("pii_scrub", lambda: pii.pii_scrub(sf_dir).to_pandas())
    timed("decontaminate", lambda: decontam.decontaminate(sf_dir).to_pandas())

    from lexor_ray.ops import cleaning, packing, sampling

    timed("c4_clean", lambda: cleaning.c4_clean(sf_dir).to_pandas())
    timed(
        "passage_dedup",
        lambda: cleaning.passage_dedup_docs(sf_dir, k=8, key="hash").to_pandas(),
    )
    timed("pack_sequences", lambda: packing.pack_sequences(sf_dir).to_pandas())

    from lexor_ray.ops import classify, lm

    timed(
        "nb_quality", lambda: classify.nb_quality_scores(sf_dir).to_pandas()
    )
    timed(
        "lm_perplexity", lambda: lm.lm_perplexity(sf_dir).to_pandas()
    )
    timed("corpus_sampling", lambda: sampling.corpus_sampling(sf_dir).to_pandas())

    from lexor_ray.ops import bloom

    timed("bloom_dedup", lambda: bloom.bloom_dedup(sf_dir).to_pandas())

    from lexor_ray.ops import sketch

    timed(
        "gopher_quality", lambda: textstats.gopher_quality(sf_dir).to_pandas()
    )
    timed(
        "heavy_hitter_terms",
        lambda: sketch.heavy_hitter_terms(sf_dir).to_pandas(),
    )
    timed(
        "embedding_features",
        lambda: similarity.embedding_features(sf_dir).to_pandas(),
    )

    # round-comparable BIG headline: the sf0.1 input (100k turns) is
    # startup-dominated (~1.5 s wall for ~0.15 s of extraction work),
    # so round-over-round deltas on it measure Ray session warmup, not
    # the pipeline. Re-run the same extraction on a GRAFT_BIG_TURNS
    # input (default 2M) where compute dominates; skipped when the
    # caller already overrides the input size (scaling runs) or
    # restricts the query set.
    big = {}
    if only is None and not bench_turns:
        big_turns = int(os.environ.get("GRAFT_BIG_TURNS", "2000000"))
        tdir_big = transcripts_dir(big_turns / 1_000_000)
        big_n = pads.dataset(tdir_big, format="parquet").count_rows()

        def run_extract_big(carry_source: bool) -> float:
            import shutil

            out_dir = "/tmp/lexor_ray_bench/extract_big"
            best = None
            for _ in range(2):
                shutil.rmtree(out_dir, ignore_errors=True)
                t0 = time.time()
                ds = read_per_file(tdir_big)
                out = extract_ds(
                    ds, emit_log=True, emit_lineage=True,
                    carry_source=carry_source,
                )
                out.write_parquet(out_dir)
                dt = time.time() - t0
                best = dt if best is None else min(best, dt)
            return best

        best = run_extract_big(carry_source=not prod_shape)
        big = {
            "big_n_turns": big_n,
            "big_sec": round(best, 3),
            "big_turns_per_sec": round(big_n / best, 1),
        }
        if not prod_shape:
            # the run_extraction production shape (carry_source=False)
            # recorded beside the round-comparable row
            pbest = run_extract_big(carry_source=False)
            big["big_prod_sec"] = round(pbest, 3)
            big["big_prod_turns_per_sec"] = round(big_n / pbest, 1)

    ray.shutdown()
    headline = timings.get("extract_turns")
    return {
        "metric": "extraction+ops wall time at sf (headline=extract_turns)",
        "value": headline,
        "unit": "sec",
        "queries": timings,
        "sf": sf,
        "num_cpus": num_cpus,
        "n_turns": n_turns,
        "turns_per_sec": round(n_turns / headline, 1) if headline else None,
        **big,
    }


def run_scaling(sf_dir: str) -> dict:
    """Same job, fresh processes, at the two parallelism levels in
    GRAFT_SCALE_CPUS (default 8,32). Uses a 4M-turn input
    (GRAFT_BENCH_TURNS overridable) so the job is compute-bound rather
    than dominated by session startup — the honest proxy for the N vs
    4N cluster criterion. See BENCH/BASELINE.md for why the 2,8 pair
    is the better node-scaling proxy on a single box."""

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=sf_dir,
            GRAFT_BENCH_TURNS=os.environ.get("GRAFT_BENCH_TURNS", "4000000"),
            GRAFT_BENCH_ONLY="extract_turns",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    n_lo, n_hi = (
        int(x) for x in os.environ.get("GRAFT_SCALE_CPUS", "8,32").split(",")
    )
    lo, hi = run(n_lo), run(n_hi)
    thr_lo = lo["turns_per_sec"]
    thr_hi = hi["turns_per_sec"]
    eff = (thr_hi / thr_lo) / (n_hi / n_lo)
    return {
        "metric": f"scaling efficiency (num_cpus {n_lo} -> {n_hi}, same input)",
        f"sec_{n_lo}": lo["value"],
        f"sec_{n_hi}": hi["value"],
        f"turns_per_sec_{n_lo}": thr_lo,
        f"turns_per_sec_{n_hi}": thr_hi,
        "scaling_efficiency": round(eff, 3),
        "sf": lo["sf"],
    }


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling(sf_dir)))
        return
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    print(json.dumps(run_benchmarks(sf_dir, num_cpus)))


if __name__ == "__main__":
    main()
