"""Cluster job entrypoint for the extraction pipeline — the script a
fixed-size multi-node Ray cluster runs via ``ray job submit``:

    ray job submit --address http://<head>:8265 --working-dir . -- \\
        python tools/submit_extraction.py \\
        --input /data/transcripts --output /data/extracted \\
        --files-per-chunk 64 --max-in-flight 3

Inside a submitted job ``ray.init()`` attaches to the hosting
cluster (the job server sets RAY_ADDRESS); run standalone it starts a
local session, which is how this sandbox exercises it (no dashboard →
no job server here; the submission command line above is the intended
production launch). The chunked/resumable path this script drives is
exercised at scale by ``tools/soak.py`` (16M-turn sustained runs +
kill-one-chunk resume probes); ``bench.py --scaling`` measures the
unchunked extraction at N and 4N parallelism — see BENCH/BASELINE.md
for both.

The job is resumable by construction: ``run_extraction`` lands each
chunk as ``data/part-<key>/`` (atomic rename) plus
``manifest/part-<key>.json``, where ``key`` hashes the chunk's input
paths, the dialect, ``carry_source`` and ``lexor_ray.__version__``,
and skips chunks whose manifest already records them. Resubmitting
the SAME command after a mid-run failure continues where the dead run
stopped; a changed ``--dialect`` redoes every chunk. When all chunks
are done ``_commit.json`` names the live parts and the rest of
``data/`` and ``manifest/`` is deleted (verified by the soak's
kill/resume run and
tests/test_pipeline.py::test_run_extraction_resumable).

Prints ONE JSON line: chunk totals, rows, wall seconds, turns/s.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="transcripts parquet dir")
    ap.add_argument("--output", required=True, help="output root (data/ + manifest/)")
    ap.add_argument("--files-per-chunk", type=int, default=64)
    ap.add_argument("--batch-size", type=int, default=1024)
    ap.add_argument("--max-in-flight", type=int, default=3)
    ap.add_argument(
        "--dialect", default="html-text", help="conversion dialect (e.g. html-text)"
    )
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # under `ray job submit` this attaches to the hosting cluster;
        # standalone it starts a local session
        ray.init(include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from lexor_ray.pipeline import run_extraction

    t0 = time.time()
    stats = run_extraction(
        args.input,
        args.output,
        files_per_chunk=args.files_per_chunk,
        batch_size=args.batch_size,
        max_in_flight=args.max_in_flight,
        dialect=args.dialect,
    )
    wall = time.time() - t0
    # rows_skipped comes from run_extraction itself (r4 review: a
    # pre-run manifest directory scan miscounted stale/orphaned parts
    # that the run deletes or reprocesses, yielding negative rates)
    new_rows = stats["rows"] - stats["rows_skipped"]
    print(
        json.dumps(
            {
                "chunks_total": stats["chunks_total"],
                "chunks_skipped": stats["chunks_skipped"],
                "rows_total": stats["rows"],
                "rows_this_run": new_rows,
                "wall_sec": round(wall, 3),
                "turns_per_sec": round(new_rows / wall) if wall > 0 else 0,
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
