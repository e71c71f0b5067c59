"""Distributed == single-process oracle, and resume semantics.

The north-rule gate: the Ray pipeline's extracted text + spans must be
byte-identical per (conv_id, turn_idx) to the pure-function oracle
under stable turn ordering; chunked runs must resume exactly."""

import os
import shutil

import pyarrow.parquet as pq
import pytest

from lexor_ray.extract import Extractor
from lexor_ray.pipeline import (
    _part_key,
    extract_ds,
    read_transcripts,
    run_extraction,
    stable_order,
    transcript_schema,
)
from lexor_ray.transcripts import generate_transcripts, transcripts_dir


@pytest.fixture(scope="module")
def small_dir(ray_session):
    return transcripts_dir(0.001)


def _snapshot(root):
    """(size, mtime) of every file under ``root``."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(d, f))
            out[os.path.relpath(os.path.join(d, f), root)] = (st.st_size, st.st_mtime_ns)
    return out


def _rows(out_dir):
    import pyarrow.dataset as pads

    return (
        pads.dataset(os.path.join(out_dir, "data"), format="parquet")
        .to_table(columns=["conv_id", "turn_idx", "extracted_text", "spans"])
        .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    )


def test_generator_deterministic():
    a = generate_transcripts(200, seed=42)
    b = generate_transcripts(200, seed=42)
    assert a.equals(b)
    assert a.schema.equals(transcript_schema())


def test_ray_matches_oracle(ray_session, small_dir):
    ds = read_transcripts(small_dir)
    out = stable_order(extract_ds(ds, batch_size=128, concurrency=2))
    rows = out.take_all()
    ex = Extractor()
    src = pq.read_table(
        os.path.join(small_dir), columns=["conv_id", "turn_idx", "text"]
    ).to_pylist()
    oracle = {
        (r["conv_id"], r["turn_idx"]): ex.extract_one(r["text"]) for r in src
    }
    assert len(rows) == len(oracle)
    prev_key = None
    for row in rows:
        key = (row["conv_id"], row["turn_idx"])
        if prev_key is not None:
            assert key > prev_key  # stable turn ordering
        prev_key = key
        want = oracle[key]
        assert row["extracted_text"] == want["extracted_text"], key
        got_spans = [(s["start"], s["end"]) for s in row["spans"]]
        assert got_spans == [tuple(s) for s in want["spans"]], key
        assert [r["code"] for r in row["log"]] == [
            r["code"] for r in want["log"]
        ], key


def test_run_extraction_resumable(ray_session, small_dir, tmp_path):
    out_dir = str(tmp_path / "out")
    s1 = run_extraction(small_dir, out_dir, files_per_chunk=1, concurrency=2)
    assert s1["chunks_total"] >= 2 and s1["chunks_skipped"] == 0
    # simulate a crashed run missing the last chunk
    parts = sorted(os.listdir(os.path.join(out_dir, "manifest")))
    victim = parts[-1]
    os.remove(os.path.join(out_dir, "manifest", victim))
    shutil.rmtree(os.path.join(out_dir, "data", victim[: -len(".json")]))
    s2 = run_extraction(small_dir, out_dir, files_per_chunk=1, concurrency=2)
    assert s2["chunks_skipped"] == s2["chunks_total"] - 1
    assert s2["rows"] == s1["rows"]
    # manifest carries lineage: rule hits and span checksum
    import json

    with open(os.path.join(out_dir, "manifest", parts[0])) as fh:
        rec = json.load(fh)
    assert rec["rows"] > 0
    assert sum(rec["rule_hits"].values()) > 0
    assert "span_checksum_xor" in rec


def test_resume_rejects_stale_fragment_identity(ray_session, small_dir, tmp_path):
    """A manifest whose recorded input-fragment list no longer matches
    the chunk (input set changed between runs) must NOT be skipped —
    fragment identity is part of the resume contract (north rule:
    lineage carries 'input fragment identity')."""
    import json

    out_dir = str(tmp_path / "out_frag")
    s1 = run_extraction(small_dir, out_dir, files_per_chunk=1, concurrency=2)
    parts = sorted(os.listdir(os.path.join(out_dir, "manifest")))
    victim = os.path.join(out_dir, "manifest", parts[0])
    with open(victim) as fh:
        rec = json.load(fh)
    rec["inputs"] = ["/somewhere/else.parquet"]
    with open(victim, "w") as fh:
        json.dump(rec, fh)
    s2 = run_extraction(small_dir, out_dir, files_per_chunk=1, concurrency=2)
    # the tampered chunk is reprocessed, the rest skipped
    assert s2["chunks_skipped"] == s2["chunks_total"] - 1
    assert s2["rows"] == s1["rows"]
    with open(victim) as fh:
        assert json.load(fh)["inputs"] != ["/somewhere/else.parquet"]


def test_resume_after_crash_with_stale_tmp(ray_session, small_dir, tmp_path):
    """A run killed mid-chunk leaves a .tmp dir and no manifest entry;
    the rerun must clean it up and produce the complete output."""
    out_dir = str(tmp_path / "out3")
    s1 = run_extraction(small_dir, out_dir, files_per_chunk=1, concurrency=2)
    # simulate crash: victim chunk loses manifest+data, leaves garbage tmp
    parts = sorted(os.listdir(os.path.join(out_dir, "manifest")))
    victim = parts[-1][: -len(".json")]
    os.remove(os.path.join(out_dir, "manifest", parts[-1]))
    shutil.rmtree(os.path.join(out_dir, "data", victim))
    stale = os.path.join(out_dir, "data", "." + victim + ".tmp")
    os.makedirs(stale)
    with open(os.path.join(stale, "garbage.parquet"), "w") as fh:
        fh.write("not parquet")
    s2 = run_extraction(small_dir, out_dir, files_per_chunk=1, concurrency=2)
    assert s2["rows"] == s1["rows"]
    assert not os.path.exists(stale)
    import pyarrow.dataset as pads

    n = pads.dataset(os.path.join(out_dir, "data"), format="parquet").count_rows()
    assert n == s1["rows"]


def test_char_budget_splits_huge_batches(ray_session):
    """A batch whose text exceeds max_batch_chars is recursively split
    (skew guard for multi-MB turns) with identical total output."""
    import pyarrow as pa

    from lexor_ray.pipeline import ExtractBatch

    texts = ["<p>" + ("x" * 50_000) + "</p>" for _ in range(8)]
    batch = pa.table(
        {
            "conv_id": [f"c{i}" for i in range(8)],
            "turn_idx": pa.array(range(8), type=pa.int32()),
            "text": texts,
        }
    )
    small_budget = ExtractBatch(max_batch_chars=60_000)
    outs = list(small_budget(batch))
    assert len(outs) > 1  # forced splitting
    assert sum(t.num_rows for t in outs) == 8
    big_budget = ExtractBatch(max_batch_chars=10_000_000)
    whole = list(big_budget(batch))
    assert len(whole) == 1
    merged = pa.concat_tables(outs).sort_by("conv_id")
    assert merged.column("extracted_text").to_pylist() == whole[0].sort_by(
        "conv_id"
    ).column("extracted_text").to_pylist()


def test_rerun_is_idempotent(ray_session, small_dir, tmp_path):
    import json

    out_dir = str(tmp_path / "out2")
    s1 = run_extraction(small_dir, out_dir, files_per_chunk=2, concurrency=2)
    before = _snapshot(out_dir)
    s2 = run_extraction(small_dir, out_dir, files_per_chunk=2, concurrency=2)
    assert s2["chunks_skipped"] == s2["chunks_total"]
    assert s1["rows"] == s2["rows"]
    # a rerun on finished output touches no file, _commit.json included
    assert _snapshot(out_dir) == before
    with open(os.path.join(out_dir, "_commit.json")) as fh:
        commit = json.load(fh)
    assert len(commit["parts"]) == s1["chunks_total"]
    assert sum(p["rows"] for p in commit["parts"]) == s1["rows"]
    assert sorted(os.listdir(os.path.join(out_dir, "data"))) == sorted(
        "part-" + p["key"] for p in commit["parts"]
    )


def test_golden_log_codes_match_engine():
    """The generation-time diagnostic-code counts must equal what the
    engine actually logs per turn (the compositional-contribution
    claim behind the extraction_log_summary oracle)."""
    from collections import Counter

    from lexor_ray.extract import extract_one
    from lexor_ray.transcripts import generate_transcripts

    tbl, golden = generate_transcripts(1500, seed=11, with_golden=True)
    gm = {
        (c, i): (e, w, s)
        for c, i, e, w, s in zip(
            golden["conv_id"].to_pylist(),
            golden["turn_idx"].to_pylist(),
            golden["n_e100"].to_pylist(),
            golden["n_w100"].to_pylist(),
            golden["n_w101"].to_pylist(),
        )
    }
    sm = {
        (c, i): n
        for c, i, n in zip(
            golden["conv_id"].to_pylist(),
            golden["turn_idx"].to_pylist(),
            golden["n_spans"].to_pylist(),
        )
    }
    for c, i, t in zip(
        tbl["conv_id"].to_pylist(),
        tbl["turn_idx"].to_pylist(),
        tbl["text"].to_pylist(),
    ):
        res = extract_one(t)
        got = Counter(l["code"] for l in res["log"])
        assert (
            got.get("E100", 0),
            got.get("W100", 0),
            got.get("W101", 0),
        ) == gm[(c, i)], (c, i, t[:80])
        assert set(got) <= {"E100", "W100", "W101"}
        assert len(res["spans"]) == sm[(c, i)], (c, i, t[:80])


def test_golden_markdown_matches_engine():
    """The generation-time composed markdown (transcripts._compose_md)
    must equal the real parse→convert→write markdown per turn — the
    claim behind the extract_markdown oracle. 8k turns cover every
    part shape incl. E100 nesting, W100 sweeps, lists, images,
    entities and boilerplate divs."""
    from lexor_ray.dialects.markdown import to_markdown
    from lexor_ray.transcripts import generate_transcripts

    tbl, golden = generate_transcripts(8000, seed=123, with_golden=True)
    want = {
        (c, i): md
        for c, i, md in zip(
            golden["conv_id"].to_pylist(),
            golden["turn_idx"].to_pylist(),
            golden["clean_md"].to_pylist(),
        )
    }
    for c, i, t in zip(
        tbl["conv_id"].to_pylist(),
        tbl["turn_idx"].to_pylist(),
        tbl["text"].to_pylist(),
    ):
        assert to_markdown(t) == want[(c, i)], (c, i, t[:120])


def test_markdown_compose_structure_fuzz():
    """Randomized STRUCTURE fuzz of the markdown composition rules:
    part kinds in adversarial orders the corpus generator never emits
    (lists first, images first, consecutive unclosed parts, unclosed
    blockquotes followed by pre/list, boilerplate between paragraphs).
    _compose_md's spec semantics must match the real writer on every
    ordering."""
    import numpy as np

    from lexor_ray.dialects.markdown import to_markdown
    from lexor_ray.transcripts import _compose_md

    rng = np.random.default_rng(20260817)
    words = "alpha beta gamma delta epsilon zeta".split()

    def sent(lo=1, hi=6):
        n = int(rng.integers(lo, hi))
        return " ".join(words[int(rng.integers(0, len(words)))] for _ in range(n))

    def one_part():
        kind = ["para", "quote", "list", "img", "pre", "drop", "boiler",
                "unclosed", "w100", "w101"][int(rng.integers(0, 10))]
        tag = ["p", "div", "section"][int(rng.integers(0, 3))]
        inner = sent()
        inner_md = inner
        deco = rng.random()
        if deco < 0.25:
            s1 = sent(1, 3)
            inner = f"{inner} <b>{s1}</b>"
            inner_md = f"{inner_md} **{s1}**"
        elif deco < 0.4:
            s1 = sent(1, 3)
            inner = f'{inner} <a href="http://x/9">{s1}</a>'
            inner_md = f"{inner_md} [{s1}](http://x/9)"
        elif deco < 0.5:
            inner = f"{inner} &amp; &lt;z&gt;"
            inner_md = f"{inner_md} & <z>"
        if kind == "para":
            return f"<{tag}>{inner}</{tag}>", ("para", inner_md, True)
        if kind == "quote":
            return f"<blockquote>{inner}</blockquote>", ("quote", inner_md, True)
        if kind == "list":
            items = [sent(1, 4) for _ in range(int(rng.integers(1, 4)))]
            return (
                "<ul>" + "".join(f"<li>{s}</li>" for s in items) + "</ul>",
                ("list", items),
            )
        if kind == "img":
            return '<img src="i.png" alt="A b">', ("img", "i.png", "A b")
        if kind == "pre":
            d = sent(2, 6)
            return f"<pre>{d}</pre>", ("pre", d)
        if kind == "drop":
            return [
                "<!DOCTYPE html>",
                f"<!-- {sent()} -->",
                f"<script>var q={int(rng.integers(0,99))};</script>",
                f"<?pi {sent(1,3)} ?>",
            ][int(rng.integers(0, 4))], ("drop",)
        if kind == "boiler":
            b = sent(2, 5)
            return f'<div class="ad wide">{b}</div>', ("para", b, True)
        if kind == "unclosed":
            if rng.random() < 0.4:
                return f"<blockquote>{inner}", ("quote", inner_md, False)
            return f"<{tag}>{inner}", ("para", inner_md, False)
        if kind == "w100":
            return f"<{tag}><span>{inner}</{tag}>", ("para", inner_md, True)
        return f"<{tag}>{inner}</{tag}></em>", ("para", inner_md, True)

    bad = 0
    for _ in range(400):
        n = int(rng.integers(1, 7))
        parts, specs = zip(*(one_part() for _ in range(n)))
        text = "\n".join(parts)
        want = _compose_md(list(specs))
        got = to_markdown(text)
        if got != want:
            bad += 1
            if bad <= 3:
                print("SRC:", repr(text))
                print("GOT:", repr(got))
                print("WANT:", repr(want))
    assert bad == 0


def test_run_extraction_concurrent_chunks(ray_session, small_dir, tmp_path):
    """Overlapped chunk pipelines (max_in_flight=4) produce the same
    output as sequential, and resume under concurrency still skips
    exactly the finished chunks."""
    import pyarrow.dataset as pads

    seq_dir = str(tmp_path / "seq")
    con_dir = str(tmp_path / "con")
    s1 = run_extraction(small_dir, seq_dir, files_per_chunk=1, max_in_flight=1)
    s2 = run_extraction(small_dir, con_dir, files_per_chunk=1, max_in_flight=4)
    assert s2["rows"] == s1["rows"] and s2["chunks_total"] == s1["chunks_total"]
    a = (
        pads.dataset(os.path.join(seq_dir, "data"), format="parquet")
        .to_table(columns=["conv_id", "turn_idx", "extracted_text"])
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    b = (
        pads.dataset(os.path.join(con_dir, "data"), format="parquet")
        .to_table(columns=["conv_id", "turn_idx", "extracted_text"])
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert a.equals(b)
    # kill one chunk, rerun concurrently → exactly that chunk redone
    parts = sorted(os.listdir(os.path.join(con_dir, "manifest")))
    victim = parts[1]
    os.remove(os.path.join(con_dir, "manifest", victim))
    shutil.rmtree(os.path.join(con_dir, "data", victim[: -len(".json")]))
    s3 = run_extraction(small_dir, con_dir, files_per_chunk=1, max_in_flight=4)
    assert s3["chunks_skipped"] == s3["chunks_total"] - 1
    assert s3["rows"] == s1["rows"]


def test_submit_entrypoint_subprocess(small_dir, tmp_path):
    """The `ray job submit` entrypoint (tools/submit_extraction.py) in
    a fresh process: clean run, then a resume run after deleting one
    chunk's manifest + data — exactly that chunk is redone."""
    import json
    import subprocess
    import sys

    out = str(tmp_path / "job_out")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cmd = [
        sys.executable,
        os.path.join(repo, "tools", "submit_extraction.py"),
        "--input", small_dir,
        "--output", out,
        "--files-per-chunk", "2",
    ]
    env = dict(os.environ, RAY_ADDRESS="local")
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert r1.returncode == 0, r1.stderr[-2000:]
    s1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert s1["chunks_skipped"] == 0 and s1["rows_this_run"] == s1["rows_total"] > 0

    parts = sorted(os.listdir(os.path.join(out, "manifest")))
    victim = parts[0]
    os.remove(os.path.join(out, "manifest", victim))
    shutil.rmtree(os.path.join(out, "data", victim[: -len(".json")]))
    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert r2.returncode == 0, r2.stderr[-2000:]
    s2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert s2["chunks_skipped"] == s2["chunks_total"] - 1
    assert 0 < s2["rows_this_run"] < s1["rows_total"]
    assert s2["rows_total"] == s1["rows_total"]


def test_rechunked_rerun_sweeps_orphaned_parts(ray_session, small_dir, tmp_path):
    """Rerunning into the same out_dir with a COARSER chunking must
    remove the previous run's parts (data AND manifests): otherwise a
    reader of data/ would see every row twice."""
    import pyarrow.dataset as pds

    out_dir = str(tmp_path / "out_rechunk")
    s1 = run_extraction(small_dir, out_dir, files_per_chunk=1, concurrency=2)
    assert s1["chunks_total"] > 1
    s2 = run_extraction(small_dir, out_dir, files_per_chunk=64, concurrency=2)
    assert s2["chunks_total"] == 1
    files = sorted(
        os.path.join(small_dir, f)
        for f in os.listdir(small_dir)
        if f.endswith(".parquet")
    )
    part = "part-" + _part_key(files, "html-text", False)
    assert sorted(os.listdir(os.path.join(out_dir, "manifest"))) == [
        part + ".json"
    ]
    assert sorted(os.listdir(os.path.join(out_dir, "data"))) == [part]
    rows = pds.dataset(os.path.join(out_dir, "data")).count_rows()
    assert rows == s1["rows"] == s2["rows"]


def test_changed_dialect_rerun_gets_fresh_output(ray_session, small_dir, tmp_path):
    """A rerun into the same out_dir with another dialect must not skip
    the parts the first dialect wrote: the part key covers the
    dialect, so every chunk is redone and the old parts are removed."""
    out_dir = str(tmp_path / "out_dialect")
    fresh_dir = str(tmp_path / "fresh_latex")
    run_extraction(small_dir, out_dir, files_per_chunk=2, concurrency=2)
    s2 = run_extraction(
        small_dir, out_dir, dialect="latex-text", files_per_chunk=2, concurrency=2
    )
    fresh = run_extraction(
        small_dir, fresh_dir, dialect="latex-text", files_per_chunk=2, concurrency=2
    )
    assert s2["chunks_skipped"] == 0
    assert s2["rows"] == fresh["rows"]
    assert _rows(out_dir).equals(_rows(fresh_dir))
    for sub in ("manifest", "data"):
        assert sorted(os.listdir(os.path.join(out_dir, sub))) == sorted(
            os.listdir(os.path.join(fresh_dir, sub))
        )


def test_concurrent_runs_share_out_dir(ray_session, small_dir, tmp_path):
    """Two runs with the same arguments on one out_dir at the same
    time: both report every row, each chunk lands once, no tmp dir is
    left behind and the manifests are byte-identical to a solo run's."""
    from concurrent.futures import ThreadPoolExecutor

    solo_dir = str(tmp_path / "solo")
    shared = str(tmp_path / "shared")
    solo = run_extraction(small_dir, solo_dir, files_per_chunk=1, concurrency=2)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futs = [
            pool.submit(
                run_extraction, small_dir, shared, files_per_chunk=1, concurrency=2
            )
            for _ in range(2)
        ]
        results = [f.result(timeout=600) for f in futs]
    for s in results:
        assert s["rows"] == solo["rows"]
        assert s["chunks_total"] == solo["chunks_total"]
    data = sorted(os.listdir(os.path.join(shared, "data")))
    assert data == sorted(os.listdir(os.path.join(solo_dir, "data")))
    assert len(data) == solo["chunks_total"]
    assert not [n for n in data if n.startswith(".")]
    mdir, solo_mdir = os.path.join(shared, "manifest"), os.path.join(solo_dir, "manifest")
    assert sorted(os.listdir(mdir)) == sorted(os.listdir(solo_mdir))
    for name in os.listdir(solo_mdir):
        with open(os.path.join(mdir, name), "rb") as a, open(
            os.path.join(solo_mdir, name), "rb"
        ) as b:
            assert a.read() == b.read(), name
    assert _rows(shared).equals(_rows(solo_dir))
