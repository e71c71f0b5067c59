"""Ray Data assembly of the extraction engine.

The reference pipeline (``lexor/command/to.py:225-291``: read → parse →
convert → write, one file per process) restated Ray-Data-first
(SURVEY.md §3.1): ``read_parquet(transcripts)`` →
``map_batches`` over stateless tasks running :class:`ExtractBatch`
(compiled dialect registries built once per worker process and cached,
§2.7) → optional ``sort(['conv_id','turn_idx'])`` ordering shuffle →
a parquet write into content-addressed parts whose write tasks return
the per-chunk lineage partials, folded into a manifest enabling exact
resume (north rule) without reading the output back.

Scale notes (100 TB / 10^12 turns):

- The extract stage is embarrassingly parallel per row; no shuffle.
  The only wide op is the optional ordering sort, applied at
  comparison time, never mid-pipeline (SURVEY.md §7.4.5).
- ``columns=`` pruning at the read: only ``conv_id, turn_idx, text``
  leave storage for extraction.
- Long tool-output turns: handled by a character budget per batch —
  the UDF slices incoming Arrow batches so a few multi-MB rows never
  ride with thousands of small ones (length-skew mitigation of
  SURVEY.md §4.3 without a repartition pass).
- Resumability: input files are processed in deterministic chunks;
  each chunk lands as ``data/part-<key>/`` (atomic rename) plus a
  ``manifest/part-<key>.json`` with input fragment identity,
  parser-rule hit counts and span checksums, where ``key`` hashes
  everything that decides the chunk's output (:func:`_part_key`). A
  rerun skips completed chunks; ``_commit.json`` names the live parts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import uuid
import zlib

import numpy as np
import pyarrow as pa

from .extract import Extractor

EXTRACT_INPUT_COLUMNS = ["conv_id", "turn_idx", "text"]

LOG_TYPE = pa.list_(
    pa.struct(
        [
            ("module", pa.string()),
            ("code", pa.string()),
            ("line", pa.int32()),
            ("col", pa.int32()),
            ("arg", pa.list_(pa.string())),
        ]
    )
)


def transcript_schema() -> pa.Schema:
    """The enforced input schema (BASELINE.json ``input_hint``)."""
    return pa.schema(
        [
            ("conv_id", pa.string()),
            ("turn_idx", pa.int32()),
            ("role", pa.string()),
            ("text", pa.string()),
            ("tool", pa.string()),
            ("ts", pa.timestamp("us")),
        ]
    )


class ExtractBatch:
    """Batch UDF: parse→convert→write per row, fused (SURVEY.md §2.2
    legend). Dialect registries are compiled once in ``__init__`` and
    the instance is cached per worker process (``_WORKER_EXTRACTORS``)
    — the Ray restatement of the reference's ``_reload`` amortization
    (``parser.py:159-160``)."""

    #: stable rule order for the lineage hit vector
    RULE_NAMES = [
        "CommentParser",
        "CDataParser",
        "DoctypeParser",
        "PIParser",
        "ElementParser",
        "StrayCloseParser",
        "EntityParser",
    ]

    def __init__(
        self,
        dialect: str = "html-text",
        emit_log: bool = True,
        emit_lineage: bool = True,
        max_batch_chars: int = 8_000_000,
        carry_source: bool = True,
    ) -> None:
        self.extractor = Extractor(dialect)
        self.emit_log = emit_log
        self.emit_lineage = emit_lineage
        self.max_batch_chars = max_batch_chars
        self.carry_source = carry_source
        self._rule_index = {n: i for i, n in enumerate(self.RULE_NAMES)}

    def __call__(self, batch: pa.Table):
        # char-budget slicing: keep huge tool-output rows from blowing
        # up one task's heap (skew mitigation, SURVEY.md §4.3).
        import pyarrow.compute as pc

        nchars = pc.sum(pc.binary_length(batch["text"])).as_py() or 0
        if nchars > self.max_batch_chars and batch.num_rows > 1:
            half = batch.num_rows // 2
            yield from self(batch.slice(0, half))
            yield from self(batch.slice(half))
            return
        yield self._process(batch)

    def _process(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        extractor = self.extractor
        parser = extractor.parser
        out_texts: list[str] = []
        flat_start: list[int] = []
        flat_end: list[int] = []
        span_offsets = np.empty(n + 1, dtype=np.int32)
        span_offsets[0] = 0
        logs: list[list[dict]] = []
        span_crc = np.zeros(n, dtype=np.int64)
        hit_vecs = np.zeros((n, len(self.RULE_NAMES)), dtype=np.int32)
        rule_index = self._rule_index
        for i, text in enumerate(texts):
            if text is None:
                text = ""
            parser.rule_hits = {}
            res = extractor.extract_one(text)
            out_texts.append(res["extracted_text"])
            spans = res["spans"]
            for s, e in spans:
                flat_start.append(s)
                flat_end.append(e)
            span_offsets[i + 1] = len(flat_start)
            logs.append(res["log"])
            if self.emit_lineage:
                span_crc[i] = zlib.crc32(
                    np.asarray(spans, dtype=np.int64).tobytes()
                    + res["extracted_text"].encode("utf-8", "surrogatepass")
                )
                for rname, cnt in parser.rule_hits.items():
                    idx = rule_index.get(rname)
                    if idx is not None:
                        hit_vecs[i, idx] = cnt
        if not self.carry_source:
            # production shape: the source text already lives in the
            # input table and spans index into it — re-emitting it
            # roughly doubles write/emission bytes per turn (measured
            # 371→202 MB at 2M turns; BENCH/BASELINE.md r4)
            batch = batch.select(
                [c for c in batch.column_names if c != "text"]
            )
        struct = pa.StructArray.from_arrays(
            [pa.array(flat_start, type=pa.int64()), pa.array(flat_end, type=pa.int64())],
            ["start", "end"],
        )
        spans_arr = pa.ListArray.from_arrays(pa.array(span_offsets, type=pa.int32()), struct)
        out = batch.append_column("extracted_text", pa.array(out_texts, type=pa.string()))
        out = out.append_column("spans", spans_arr)
        if self.emit_log:
            out = out.append_column("log", pa.array(logs, type=LOG_TYPE))
        if self.emit_lineage:
            out = out.append_column("span_crc", pa.array(span_crc))
            out = out.append_column(
                "rule_hits", pa.FixedSizeListArray.from_arrays(
                    pa.array(hit_vecs.reshape(-1), type=pa.int32()), len(self.RULE_NAMES)
                )
            )
        return out


#: per-worker-process extractor cache: Ray reuses worker processes
#: across tasks, so the compiled dialect registries are built once per
#: worker, without an actor pool's dispatch overhead (an actor pool
#: measured 1.7-3x slower for this workload on Ray 2.49 local mode;
#: see BASELINE.md).
_WORKER_EXTRACTORS: dict[tuple, "ExtractBatch"] = {}


def _extract_batches(
    batch, dialect, emit_log, emit_lineage, max_batch_chars, carry_source=True
):
    key = (dialect, emit_log, emit_lineage, max_batch_chars, carry_source)
    ex = _WORKER_EXTRACTORS.get(key)
    if ex is None:
        ex = _WORKER_EXTRACTORS[key] = ExtractBatch(
            dialect=dialect,
            emit_log=emit_log,
            emit_lineage=emit_lineage,
            max_batch_chars=max_batch_chars,
            carry_source=carry_source,
        )
    yield from ex(batch)


def extract_ds(
    ds,
    dialect: str = "html-text",
    batch_size: int | None = None,
    concurrency=None,
    emit_log: bool = True,
    emit_lineage: bool = True,
    max_batch_chars: int = 8_000_000,
    carry_source: bool = True,
):
    """Attach the fused extraction stage to a transcripts Dataset.

    ``carry_source=False`` drops the source ``text`` column from the
    output (the input table already holds it; spans index into it) —
    the production-sink shape, cutting emission/write bytes per turn
    nearly in half on this corpus.

    The stage runs as stateless tasks with a per-worker extractor
    cache (state amortized per worker process, elastic scheduling).
    ``batch_size=None`` processes whole blocks; the char-budget inside
    :class:`ExtractBatch` still splits pathological long-turn batches.
    """
    import functools

    fn = functools.partial(
        _extract_batches,
        dialect=dialect,
        emit_log=emit_log,
        emit_lineage=emit_lineage,
        max_batch_chars=max_batch_chars,
        carry_source=carry_source,
    )
    return ds.map_batches(
        fn, batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency
    )


def read_transcripts(path, columns=None, **kwargs):
    """Schema-pruned read of a transcripts table (prune at the read:
    extraction needs only conv_id/turn_idx/text)."""
    import ray.data

    return ray.data.read_parquet(
        path, columns=columns or EXTRACT_INPUT_COLUMNS, **kwargs
    )


def stable_order(ds):
    """The explicit ordering shuffle of the north rule: global sort by
    ``(conv_id, turn_idx)``. Apply only at comparison/export time —
    this is the expensive all-to-all path (SURVEY.md §7.4.5)."""
    return ds.sort(["conv_id", "turn_idx"])


def conversation_stats(ds, salt_buckets: int = 8):
    """Per-conversation roll-up (n_turns, total_chars) with **salted
    keys**: pass 1 groups by ``(conv_id, salt)`` so a pathological
    conversation with millions of turns spreads over ``salt_buckets``
    reducers; pass 2 merges the tiny salted partials per conv_id
    (SURVEY.md §4.3 hot-key design — ordering-free because the
    aggregate is associative)."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        salt = pc.cast(
            pc.bit_wise_and(batch["turn_idx"], salt_buckets - 1), pa.int32()
        )
        t = pa.table(
            {
                "conv_id": batch["conv_id"],
                "salt": salt,
                # fill_null so ("n_chars", "count") counts EVERY turn —
                # a null text row otherwise vanishes from n_turns while
                # the oracle's count(*) keeps it (r5 review)
                "n_chars": pc.cast(
                    pc.utf8_length(pc.fill_null(batch["text"], "")),
                    pa.int64(),
                ),
            }
        )
        return t.group_by(["conv_id", "salt"]).aggregate(
            [("n_chars", "sum"), ("n_chars", "count")]
        )

    from ray.data.aggregate import Sum

    salted = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["conv_id", "salt"])
        .aggregate(
            Sum("n_chars_sum", alias_name="chars"),
            Sum("n_chars_count", alias_name="turns"),
        )
    )
    return (
        salted.groupby("conv_id")
        .aggregate(
            Sum("chars", alias_name="total_chars"),
            Sum("turns", alias_name="n_turns"),
        )
        .sort("conv_id")
    )


# ---------------------------------------------------------------------------
# Resumable chunked run with lineage manifest (north rule: "resumable
# from checkpoint with per-partition lineage + metrics")


def ensure_fsspec_http_probe() -> None:
    """Make Ray's `fsspec.implementations.http` probe (path resolution
    of every read and file write) race-free under threads. When
    aiohttp is absent that import FAILS, Python evicts the partial
    module, and every thread re-attempts it
    — two concurrent attempts race into a non-ModuleNotFoundError
    ImportError that Ray's probe doesn't catch. Register a stub module
    with an HTTPFileSystem sentinel class once: the probe then
    succeeds and its isinstance check is correctly False for real
    filesystems. Shared by run_extraction's chunk threads and the
    overlapped tools/check_correctness.py gate."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
    except ModuleNotFoundError:
        import sys as _sys
        import types as _types

        _stub = _types.ModuleType("fsspec.implementations.http")
        _stub.__doc__ = (
            "lexor_ray SENTINEL module (pipeline.ensure_fsspec_http_probe): "
            "aiohttp is absent so the real fsspec http module cannot "
            "import; this stub exists ONLY so Ray's per-write "
            "isinstance probe succeeds race-free. Any attempt to "
            "actually USE the filesystem raises ImportError."
        )

        class _HTTPFileSystemSentinel:
            """Probe-only stand-in — ``isinstance(fs, HTTPFileSystem)``
            is correctly False for every real filesystem, and real
            use fails LOUDLY instead of silently (ADVICE r2 fix)."""

            def __init__(self, *a, **kw):
                raise ImportError(
                    "fsspec.implementations.http is a lexor_ray probe "
                    "sentinel: aiohttp is not installed, so the real "
                    "HTTPFileSystem is unavailable in this environment"
                )

        _stub.HTTPFileSystem = _HTTPFileSystemSentinel
        _sys.modules["fsspec.implementations.http"] = _stub


def _chunks(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def _read_json(path: str):
    """The JSON value at ``path``, or ``None`` when it is missing or
    unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _finished(mpath: str, chunk: list[str]) -> dict | None:
    """The manifest at ``mpath`` if it records ``chunk`` as done; a
    missing, corrupt or foreign manifest means "not done"."""
    rec = _read_json(mpath)
    if isinstance(rec, dict) and rec.get("inputs") == chunk and isinstance(rec.get("rows"), int):
        return rec
    return None


def _write_json(path: str, obj) -> None:
    """Atomic write: a uniquely named tmp file, then ``os.replace``, so
    concurrent writers never interleave into one file."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    try:
        os.replace(tmp, path)
    except FileNotFoundError:
        # a concurrent run's cleanup removed our tmp file; it keeps a
        # manifest only when that run landed the same part there
        if not os.path.exists(path):
            raise


def _part_key(chunk: list[str], dialect: str, carry_source: bool) -> str:
    """Content address of one chunk's output: everything that decides
    the bytes a chunk writes. A change of inputs, chunking, dialect,
    ``carry_source`` or engine version gives a new key, so a rerun can
    never match a part written under other settings."""
    from . import __version__

    blob = json.dumps([chunk, dialect, carry_source, __version__])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _part_sink(path: str, inputs: list[str]):
    """A Ray Data sink that writes one chunk into the existing dir
    ``path`` and folds its lineage record (inputs, rows, span checksum
    xor, rule-hit sums) from what the write tasks return, so no pass
    reads the output back. After ``write_datasink`` the record is the
    sink's ``record``. Built here so that importing this module does
    not import ``ray.data``."""
    import pyarrow.parquet as pq
    from ray.data import Datasink
    from ray.data.block import BlockAccessor

    class _PartSink(Datasink):
        record = None

        def write(self, blocks, ctx) -> tuple[int, list[int]]:
            # one file per task, named by its index: a retried task
            # overwrites its own file instead of adding a second one
            xor = 0
            hits = np.zeros(len(ExtractBatch.RULE_NAMES), dtype=np.int64)
            writer = None
            try:
                for block in blocks:
                    table = BlockAccessor.for_block(block).to_arrow()
                    if not table.num_rows:
                        continue
                    if writer is None:
                        name = os.path.join(path, f"{ctx.task_idx:05d}.parquet")
                        writer = pq.ParquetWriter(name, table.schema)
                    writer.write_table(table)
                    crc = table.column("span_crc").to_numpy()
                    xor ^= int(np.bitwise_xor.reduce(crc))
                    rh = table.column("rule_hits").combine_chunks().flatten()
                    hits += rh.to_numpy().reshape(table.num_rows, -1).sum(axis=0)
            finally:
                if writer is not None:
                    writer.close()
            return xor, hits.tolist()

        def on_write_complete(self, write_result) -> None:
            xor = 0
            hits = np.zeros(len(ExtractBatch.RULE_NAMES), dtype=np.int64)
            for x, h in write_result.write_returns:
                xor ^= x
                hits += h
            self.record = {
                "inputs": inputs,
                "rows": int(write_result.num_rows),
                "span_checksum_xor": xor,
                "rule_hits": {
                    n: int(c) for n, c in zip(ExtractBatch.RULE_NAMES, hits.tolist())
                },
            }

    return _PartSink()


def run_extraction(
    input_path: str,
    out_dir: str,
    dialect: str = "html-text",
    files_per_chunk: int = 64,
    batch_size: int = 1024,
    concurrency=None,
    max_in_flight: int = 2,
    carry_source: bool = False,
) -> dict:
    """Extract a directory (or file) of transcripts parquet in
    deterministic chunks of ``files_per_chunk`` input files and return
    a summary dict (``chunks_total``, ``chunks_skipped``, ``rows``,
    ``rows_skipped``).

    Output layout, correct by naming alone:

    - ``data/part-<key>/`` holds a chunk's parquet files and
      ``manifest/part-<key>.json`` its lineage record (inputs, rows,
      span checksum, rule hits). ``key`` is :func:`_part_key`: the first
      16 hex digits of sha256 over the chunk's input paths, the
      dialect, ``carry_source`` and ``lexor_ray.__version__``.
    - A chunk is done when its manifest loads and names the chunk's
      inputs; a rerun skips it. Otherwise one Ray Data execution reads
      it (one block per input file), extracts it and writes it into a
      uniquely named ``data/.<uuid>.tmp`` dir, one parquet file per
      write task; the write tasks return the lineage partials the
      manifest is folded from. The dir is then renamed to
      ``data/part-<key>/``. If that name already exists another run
      landed the same content first: ours is dropped and the landed
      part kept. A chunk without rows lands an empty part.
    - When every chunk is done, ``_commit.json`` lists the part keys
      in chunk order with their rows (rewritten only when it changes),
      and every entry of ``data/`` and ``manifest/`` it does not name
      is deleted, including the tmp dirs of crashed runs.

    Runs with the same arguments may share an ``out_dir``; runs with
    different arguments on one ``out_dir`` at the same time delete
    each other's parts (the last commit wins). Readers take the part
    set from ``_commit.json``; ``pyarrow.dataset`` over ``data/`` also
    skips the dot-named tmp dirs.

    Up to ``max_in_flight`` chunk pipelines run at once (each Dataset
    has its own streaming executor), so one chunk's startup and
    commit tail overlaps the next chunk's compute (BENCH/BASELINE.md
    soak).
    """
    from concurrent.futures import ThreadPoolExecutor

    if os.path.isdir(input_path):
        files = sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(".parquet")
        )
    else:
        files = [input_path]
    # a mistyped path or a transiently unmounted dir must not become
    # data loss: the cleanup would delete the previous run's output
    if not files:
        raise ValueError(
            f"no .parquet inputs under {input_path!r}; refusing to run "
            "(the cleanup would delete the previous run's output)"
        )
    missing = [f for f in files if "://" not in f and not os.path.exists(f)]
    if missing:
        raise ValueError(f"input paths do not exist: {missing[:3]}")
    manifest_dir = os.path.join(out_dir, "manifest")
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(manifest_dir, exist_ok=True)
    os.makedirs(data_dir, exist_ok=True)
    chunks = list(_chunks(files, files_per_chunk))
    keys = [_part_key(chunk, dialect, carry_source) for chunk in chunks]
    rows: dict[str, int] = {}
    summary = {"chunks_total": len(chunks), "chunks_skipped": 0, "rows": 0, "rows_skipped": 0}
    for key, chunk in zip(keys, chunks):
        rec = _finished(os.path.join(manifest_dir, f"part-{key}.json"), chunk)
        if rec is not None:
            rows[key] = rec["rows"]
            summary["chunks_skipped"] += 1
            summary["rows_skipped"] += rec["rows"]
    jobs = [(k, c) for k, c in zip(keys, chunks) if k not in rows]

    def process(key: str, chunk: list) -> int:
        part = os.path.join(data_dir, f"part-{key}")
        mpath = os.path.join(manifest_dir, f"part-{key}.json")
        tmp = os.path.join(data_dir, f".{uuid.uuid4().hex}.tmp")
        rec = None
        try:
            # made here, not by the write: a chunk with no rows writes
            # no file and still lands an (empty) part
            os.makedirs(tmp)
            sink = _part_sink(tmp, chunk)
            extract_ds(
                # one block per input file, never split: each extract
                # task writes at most one file per input file
                read_transcripts(chunk, override_num_blocks=len(chunk)),
                dialect=dialect,
                batch_size=batch_size,
                concurrency=concurrency,
                carry_source=carry_source,
            ).write_datasink(sink, concurrency=concurrency)
            rec = sink.record
            os.rename(tmp, part)
        except Exception:
            # another run with this key got there first: the rename
            # found its part in place, or its cleanup removed our tmp
            # dir. Same key, same content, so keep what landed.
            shutil.rmtree(tmp, ignore_errors=True)
            landed = _finished(mpath, chunk)
            if landed is not None:
                return landed["rows"]
            if rec is None or not os.path.isdir(part):
                raise
        _write_json(mpath, rec)
        return rec["rows"]

    ensure_fsspec_http_probe()
    with ThreadPoolExecutor(max_workers=max(1, max_in_flight)) as pool:
        for (key, _), n in zip(jobs, pool.map(lambda job: process(*job), jobs)):
            rows[key] = n

    commit = {"parts": [{"key": k, "rows": rows[k]} for k in keys]}
    commit_path = os.path.join(out_dir, "_commit.json")
    if _read_json(commit_path) != commit:
        _write_json(commit_path, commit)
    live = {f"part-{k}" for k in keys}
    for name in os.listdir(data_dir):
        if name not in live:
            shutil.rmtree(os.path.join(data_dir, name), ignore_errors=True)
    for name in os.listdir(manifest_dir):
        if name.removesuffix(".json") not in live:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(manifest_dir, name))
    summary["rows"] = sum(rows.values())
    return summary

