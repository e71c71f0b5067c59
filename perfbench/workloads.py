"""The benchmark's workloads.

Each workload runs whole rounds of the same operations. ``round`` runs
one round and keeps what the checks need; ``check`` judges every
operation of every round against a computation made apart from the
program (generation-time goldens, DuckDB oracles); ``metrics`` turns the
rounds into the end-to-end throughput: input rows per CPU second (and,
for the host line, per wall second) of the round's timed operations,
each taken by its median over the rounds. With
a :class:`~perfbench.trace.Trace` a round also runs the one-core kernel
pass and materializes each pipeline stage on its own, and ``layers``
reads the per-layer numbers off the trace.

The ``extract`` workload is the two transcript pipelines, html-text
``run_extraction`` and DOM markdown, one after the other in each round;
``ops`` is the operator suite.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from perfbench import inputs, ops_suite, session

KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]
#: run_extraction's batch size
BATCH = 1024
#: input files per run_extraction chunk: 4 files make 2 chunks, run together
FILES_PER_CHUNK = 2


class _Clock:
    """Wall and session CPU seconds from its start to ``stop``."""

    def __init__(self) -> None:
        self.cpu0, self.t0 = session.cpu_s(), time.perf_counter()

    def stop(self) -> dict:
        return {"wall_s": time.perf_counter() - self.t0, "cpu_s": session.cpu_s() - self.cpu0}


def _medians(times: list[dict]) -> tuple[float, float]:
    """(median wall seconds, median CPU seconds) of timed operations."""
    return (statistics.median(t["wall_s"] for t in times),
            statistics.median(t["cpu_s"] for t in times))


def _throughput(rows: int, medians: list[tuple[float, float]]) -> dict:
    """``rows`` over the summed medians of the operations that did them."""
    return {"rows_per_cpu_s": rows / sum(c for _, c in medians),
            "rows_per_s": rows / sum(w for w, _ in medians)}


def _span(tr, name: str):
    return tr.span(name) if tr is not None else contextlib.nullcontext()


def _attempt(fn):
    """(result, error) of ``fn()``; an exception fails the operation."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        return None, f"error: {type(exc).__name__}: {exc}"[:300]


def _wrong(msg: str | None) -> str | None:
    """An operation that ran but whose output the check rejects."""
    return f"wrong: {msg}" if msg else None


def _snapshot(root: str) -> dict:
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(d, f))
            out[os.path.relpath(os.path.join(d, f), root)] = (st.st_size, st.st_mtime_ns)
    return out


def _du_mb(root: str) -> float:
    return sum(size for size, _ in _snapshot(root).values()) / 1e6


def _same(a, b) -> bool:
    a = pa.chunked_array(a).combine_chunks()
    b = pa.chunked_array(b).combine_chunks().cast(a.type)
    return a.equals(b)


def _markdown_batch(batch: pa.Table) -> pa.Table:
    """The ``extract_markdown`` stage UDF: one cached MarkdownBatch per
    worker."""
    from lexor_ray.ops.transcripts_ops import MarkdownBatch
    from lexor_ray.ops.util import cached

    return cached("markdown", MarkdownBatch)(batch)


class Workload:
    name = ""

    def __init__(self, work_dir: str, seed: int, scale: float = 1.0) -> None:
        """``scale`` shrinks the inputs (the quick mode)."""
        self.seed = seed
        self.scale = scale
        self.data_dir = os.path.join(work_dir, "data")
        self.out_dir = os.path.join(work_dir, "out", self.name)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

    def round_dir(self, k: int) -> str:
        return os.path.join(self.out_dir, f"r{k}")

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


class _Transcripts(Workload):
    turns = 0

    def prepare(self) -> None:
        self.turns = int(type(self).turns * self.scale)
        base = inputs.ensure(
            "transcripts", self.seed, self.turns,
            os.path.join(self.data_dir, f"transcripts-{self.turns}-seed{self.seed}"),
        )
        sf_dir = os.path.join(base, f"sf{self.turns / 1_000_000:g}")
        self.src = os.path.join(sf_dir, "transcripts")
        self.files = sorted(glob.glob(os.path.join(self.src, "*.parquet")))
        self.golden_dir = os.path.join(sf_dir, "golden")

    def golden(self) -> pa.Table:
        return pq.read_table(self.golden_dir).sort_by(KEYS)


class ExtractText(_Transcripts):
    """A fresh ``run_extraction`` (html-text, production defaults,
    ``FILES_PER_CHUNK`` input files per chunk) and a rerun over its
    finished output."""

    name = "extract-text"
    turns = 40_000

    def _run(self, out: str):
        from lexor_ray.pipeline import run_extraction

        return _attempt(lambda: run_extraction(self.src, out, files_per_chunk=FILES_PER_CHUNK))

    def round(self, k: int, tr=None) -> dict:
        rec = {}
        if tr is not None:
            rec["stage"] = self._kernels_and_stages(k, tr)
        out = self.round_dir(k)
        clock = _Clock()
        with _span(tr, "pipeline.run_extraction"):
            rec["fresh"] = self._run(out)
        rec["time"] = clock.stop()
        before = _snapshot(out)
        with _span(tr, "pipeline.resume"):
            rec["rerun"] = self._run(out)
        rec.update(out=out, unchanged=before == _snapshot(out))
        return rec

    def _kernels_and_stages(self, k: int, tr) -> str:
        import lexor_ray.extract as extract_mod
        from lexor_ray.pipeline import (
            EXTRACT_INPUT_COLUMNS, ExtractBatch, extract_ds, read_transcripts,
        )

        # one-core kernels over the first input file
        batch = pq.read_table(self.files[0], columns=EXTRACT_INPUT_COLUMNS)
        eb = ExtractBatch(carry_source=False)
        scan = extract_mod._scan_extract

        def scan_traced(*args, **kwargs):
            tr.count("fast_scan.rows")
            with tr.span("fast_scan.scan"):
                return scan(*args, **kwargs)

        eb.extractor.extract_one = tr.wrap("extract.extract_one", eb.extractor.extract_one)
        extract_mod._scan_extract = scan_traced
        try:
            for off in range(0, batch.num_rows, BATCH):
                with tr.span("pipeline.extract_batch"):
                    for _ in eb(batch.slice(off, BATCH)):
                        pass
        finally:
            extract_mod._scan_extract = scan
        # the pipeline, one materialized stage at a time
        stage = self.round_dir(k) + "-stages"
        with tr.span("pipeline.read"):
            ds = read_transcripts(self.files).materialize()
        tr.count("pipeline.read_blocks", ds.num_blocks())
        with tr.span("pipeline.map"):
            ds = extract_ds(ds, batch_size=BATCH, carry_source=False).materialize()
        with tr.span("pipeline.write"):
            ds.write_parquet(stage)
        return stage

    def layers(self, rec: dict, tr) -> dict:
        return {
            "fast_scan.scan_s": tr.total("fast_scan.scan"),
            "fast_scan.rows": tr.counts.get("fast_scan.rows", 0),
            "extract.extract_one_s": tr.total("extract.extract_one"),
            "extract.self_s": tr.self_time("extract.extract_one"),
            "pipeline.extract_batch_s": tr.total("pipeline.extract_batch"),
            "pipeline.extract_batch_self_s": tr.self_time("pipeline.extract_batch"),
            "pipeline.read_s": tr.total("pipeline.read"),
            "pipeline.map_s": tr.total("pipeline.map"),
            "pipeline.write_s": tr.total("pipeline.write"),
            "pipeline.read_blocks": tr.counts.get("pipeline.read_blocks", 0),
            "pipeline.run_extraction_s": tr.total("pipeline.run_extraction"),
            "pipeline.resume_s": tr.total("pipeline.resume"),
            "pipeline.output_mb": _du_mb(os.path.join(rec["out"], "data")),
        }

    def _compare(self, data_dir: str, gold: pa.Table) -> str | None:
        t = pads.dataset(data_dir, format="parquet").to_table(
            columns=["conv_id", "turn_idx", "extracted_text", "spans", "log"]
        ).sort_by(KEYS)
        if t.num_rows != gold.num_rows:
            return f"rows {t.num_rows} != golden {gold.num_rows}"
        if not (_same(t["conv_id"], gold["conv_id"]) and _same(t["turn_idx"], gold["turn_idx"])):
            return "(conv_id, turn_idx) set differs from the golden"
        if not _same(t["extracted_text"], gold["clean_text"]):
            return "extracted_text != clean_text"
        n_spans = pc.list_value_length(t["spans"]).cast(pa.int64())
        if not _same(n_spans, gold["n_spans"].cast(pa.int64())):
            return "span count != n_spans"
        log = t["log"].combine_chunks()
        parents = pc.list_parent_indices(log).to_numpy()
        codes = pc.list_flatten(log).field("code")
        for code, col in (("W100", "n_w100"), ("E100", "n_e100"), ("W101", "n_w101")):
            mask = pc.equal(codes, code).to_numpy(zero_copy_only=False)
            got = np.bincount(parents[mask], minlength=t.num_rows)
            if not np.array_equal(got, gold[col].to_numpy()):
                return f"{code} counts != {col}"
        return None

    def check(self, records: list[dict]) -> list[str | None]:
        gold = self.golden()
        n_chunks = -(-len(self.files) // FILES_PER_CHUNK)
        outcomes = []
        for rec in records:
            fresh, err = rec["fresh"]
            if err is None:
                want = {"chunks_total": n_chunks, "chunks_skipped": 0, "rows": self.turns}
                got = {key: fresh.get(key) for key in want}
                err = _wrong(f"summary {got} != {want}" if got != want else None)
            if err is None:
                err = _wrong(self._compare(os.path.join(rec["out"], "data"), gold))
            outcomes.append(err)
            rerun, err = rec["rerun"]
            if err is None:
                want = {"chunks_total": n_chunks, "chunks_skipped": n_chunks,
                        "rows_skipped": self.turns}
                got = {key: rerun.get(key) for key in want}
                if got != want:
                    err = _wrong(f"rerun summary {got} != {want}")
                elif not rec["unchanged"]:
                    err = _wrong("rerun changed the finished output")
            outcomes.append(err)
            if "stage" in rec:
                outcomes.append(_wrong(self._compare(rec["stage"], gold)))
        return outcomes

    def work(self, records: list[dict]) -> tuple[int, tuple[float, float]]:
        """(turns, medians of the fresh run)"""
        return self.turns, _medians([r["time"] for r in records])


class ExtractMarkdown(_Transcripts):
    """``read_transcripts`` → ``MarkdownBatch`` → ``stable_order`` →
    ``write_parquet``: the ``extract_markdown`` pipeline on seeded
    input, written out."""

    name = "extract-markdown"
    turns = 8_000

    def round(self, k: int, tr=None) -> dict:
        from lexor_ray.pipeline import read_transcripts, stable_order

        if tr is not None:
            self._kernels(tr)
        out = self.round_dir(k)

        def pipeline():
            if tr is None:
                ds = read_transcripts(self.src)
                ds = ds.map_batches(_markdown_batch, batch_format="pyarrow", batch_size=512)
                stable_order(ds).write_parquet(out)
                return
            with tr.span("pipeline.markdown.read"):
                ds = read_transcripts(self.src).materialize()
            with tr.span("pipeline.markdown.map"):
                ds = ds.map_batches(
                    _markdown_batch, batch_format="pyarrow", batch_size=512
                ).materialize()
            with tr.span("pipeline.stable_order"):
                ds = stable_order(ds).materialize()
            with tr.span("pipeline.markdown.write"):
                ds.write_parquet(out)

        clock = _Clock()
        _, err = _attempt(pipeline)
        return {"out": out, "error": err, "time": clock.stop()}

    def _kernels(self, tr) -> None:
        """The DOM parser, converter and writer over the first input
        file, one core."""
        from lexor_ray.ops.transcripts_ops import MarkdownBatch

        mb = MarkdownBatch()
        for text in pq.read_table(self.files[0], columns=["text"])["text"].to_pylist():
            with tr.span("core.parser.parse"):
                doc = mb.parser.parse(text or "")
            tr.count("core.dom.nodes", sum(1 for _ in doc.iter()))
            with tr.span("core.converter.convert"):
                doc = mb.converter.convert(doc)
            with tr.span("core.writer.write"):
                mb.writer.write(doc)

    def layers(self, rec: dict, tr) -> dict:
        return {
            "core.parser.parse_s": tr.total("core.parser.parse"),
            "core.converter.convert_s": tr.total("core.converter.convert"),
            "core.writer.write_s": tr.total("core.writer.write"),
            "core.dom.nodes": tr.counts.get("core.dom.nodes", 0),
            "pipeline.markdown.read_s": tr.total("pipeline.markdown.read"),
            "pipeline.markdown.map_s": tr.total("pipeline.markdown.map"),
            "pipeline.stable_order_s": tr.total("pipeline.stable_order"),
            "pipeline.markdown.write_s": tr.total("pipeline.markdown.write"),
            "pipeline.markdown.output_mb": _du_mb(rec["out"]),
        }

    def _compare(self, out: str, gold: pa.Table) -> str | None:
        files = sorted(glob.glob(os.path.join(out, "*.parquet")))
        if not files:
            return "no output files"
        ranges, parts = [], []
        for f in files:
            t = pq.read_table(f, columns=["conv_id", "turn_idx", "markdown"])
            if t.num_rows == 0:
                continue
            keys = list(zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()))
            if keys != sorted(keys):
                return f"{os.path.basename(f)} is not sorted by (conv_id, turn_idx)"
            ranges.append((keys[0], keys[-1]))
            parts.append(t)
        ranges.sort()
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            if not hi < lo:
                return "output files have overlapping key ranges"
        t = pa.concat_tables(parts).sort_by(KEYS)
        if t.num_rows != gold.num_rows:
            return f"rows {t.num_rows} != golden {gold.num_rows}"
        if not (_same(t["conv_id"], gold["conv_id"]) and _same(t["turn_idx"], gold["turn_idx"])):
            return "(conv_id, turn_idx) set differs from the golden"
        if not _same(t["markdown"], gold["clean_md"]):
            return "markdown != clean_md"
        return None

    def check(self, records: list[dict]) -> list[str | None]:
        gold = self.golden()
        return [r["error"] or _wrong(self._compare(r["out"], gold)) for r in records]

    def work(self, records: list[dict]) -> tuple[int, tuple[float, float]]:
        """(turns, medians of the pipeline)"""
        return self.turns, _medians([r["time"] for r in records])


class Extract:
    """Each round runs the html-text ``run_extraction`` and its rerun,
    then the markdown pipeline, each on its own seeded input."""

    name = "extract"

    def __init__(self, work_dir: str, seed: int, scale: float = 1.0) -> None:
        self.parts = (ExtractText(work_dir, seed, scale), ExtractMarkdown(work_dir, seed, scale))

    def prepare(self) -> None:
        for part in self.parts:
            part.prepare()

    def round(self, k: int, tr=None) -> dict:
        return {part.name: part.round(k, tr) for part in self.parts}

    def layers(self, rec: dict, tr) -> dict:
        out = {}
        for part in self.parts:
            out.update(part.layers(rec[part.name], tr))
        return out

    def check(self, records: list[dict]) -> list[str | None]:
        return [o for part in self.parts for o in part.check([r[part.name] for r in records])]

    def metrics(self, records: list[dict]) -> dict:
        # turns of both inputs over the sum of the two pipelines' medians
        work = [part.work([r[part.name] for r in records]) for part in self.parts]
        return _throughput(sum(n for n, _ in work), [m for _, m in work])

    def cleanup(self) -> None:
        for part in self.parts:
            part.cleanup()


class Ops(Workload):
    """Each operator of ``ops_suite.SUITE`` in turn, on the tables of its
    scale factor, from the call to its collected result."""

    name = "ops"

    def prepare(self) -> None:
        # keyed by the nominal scale factor, which names the layers
        self.sf_dirs = {
            sf: inputs.ensure(
                "tables", self.seed, sf * self.scale,
                os.path.join(self.data_dir, f"tables-{sf * self.scale:g}-seed{self.seed}"),
            )
            for sf in ops_suite.SUITE
        }
        self.want = {
            sf: ops_suite.read_oracles(self.sf_dirs[sf], names)
            for sf, names in ops_suite.SUITE.items()
        }
        self.rows_in = 0
        for sf, names in ops_suite.SUITE.items():
            for name in names:
                for t in ops_suite.OPERATORS[name][1]:
                    path = os.path.join(self.sf_dirs[sf], f"{t}.parquet")
                    self.rows_in += pq.ParquetFile(path).metadata.num_rows

    @staticmethod
    def layer(sf: float, name: str) -> str:
        return f"ops.sf{sf:g}.{name}"

    def round(self, k: int, tr=None) -> dict:
        import ray.data

        results = []
        for sf, names in ops_suite.SUITE.items():
            for name in names:
                fn, sf_dir = ops_suite.resolve(name), self.sf_dirs[sf]

                def call():
                    with _span(tr, self.layer(sf, name)):
                        with _span(tr, "ops.exec"):
                            res = fn(sf_dir)
                            if tr is not None and isinstance(res, ray.data.Dataset):
                                res = res.materialize()
                        with _span(tr, "ops.collect"):
                            return ops_suite.to_pandas(res)

                clock = _Clock()
                df, err = _attempt(call)
                timed = clock.stop()
                # judged now, so that no round's results are held: the
                # peak RSS is then the same however many rounds run
                where = f"{name} at sf{sf:g}"
                if err is not None:
                    outcome = f"{where}: {err}"
                else:
                    err = ops_suite.mismatch(ops_suite.canon(df), self.want[sf][name])
                    outcome = _wrong(f"{where}: {err}" if err else None)
                results.append({"sf": sf, "name": name, "time": timed, "outcome": outcome})
        return {"results": results}

    def layers(self, rec: dict, tr) -> dict:
        out = {
            f"{self.layer(sf, n)}_s": tr.total(self.layer(sf, n))
            for sf, names in ops_suite.SUITE.items()
            for n in names
        }
        out["ops.exec_s"] = tr.total("ops.exec")
        out["ops.collect_s"] = tr.total("ops.collect")
        return out

    def check(self, records: list[dict]) -> list[str | None]:
        return [r["outcome"] for rec in records for r in rec["results"]]

    def metrics(self, records: list[dict]) -> dict:
        # each operator's medians over the rounds, summed over the suite
        per_op = zip(*([r["time"] for r in rec["results"]] for rec in records))
        return _throughput(self.rows_in, [_medians(list(times)) for times in per_op])


WORKLOADS = {w.name: w for w in (Extract, Ops)}
