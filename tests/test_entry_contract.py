"""Driver-contract smoke: entry()/queries()/oracle_sql() shape."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


def test_entry_returns_rows(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    import ray.data

    assert isinstance(res, ray.data.Dataset)
    assert res.count() > 0
    names = res.schema().names
    assert "extracted_text" in names and "conv_id" in names


def test_queries_oracle_keys_align(ray_session):
    import __ray_entry__ as e

    q, o = e.queries(), e.oracle_sql()
    assert set(o).issubset(set(q)), "oracle entries without a query"
    assert len(q) >= 25
    # the driver records only the FIRST 50 queries (CORRECTNESS_r01
    # and _r02 both hold exactly 50 rows) — every entry beyond 50
    # would silently fall out of the correctness record (r2 verdict
    # item 1), so the dict must never exceed the window again
    assert len(q) <= 50, "driver window is 50 — merge, don't append"


def test_module_does_not_own_ray(ray_session):
    """No ray.init/ray.shutdown CALLS anywhere in the entry module
    (docstrings may mention them)."""
    import ast
    import inspect

    import __ray_entry__ as e

    tree = ast.parse(inspect.getsource(e))
    calls = [
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert "init" not in calls and "shutdown" not in calls


def test_oracle_data_paths_follow_lexor_ray_data(tmp_path):
    """With LEXOR_RAY_DATA set, every generated-data path the oracle
    SQL reads lies under it, where the generator writes."""
    import json
    import os
    import subprocess

    repo = str(pathlib.Path(__file__).resolve().parent.parent)
    code = (
        "import json, __ray_entry__ as e; "
        "print(json.dumps({k: v for k, v in vars(e).items() "
        "if k.startswith('_SF') and isinstance(v, str)}))"
    )
    env = dict(os.environ, LEXOR_RAY_DATA=str(tmp_path), PYTHONPATH=repo)
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=repo, timeout=120,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    paths = json.loads(r.stdout.strip().splitlines()[-1])
    assert {"_SF001_TRANSCRIPTS", "_SF001_GOLDEN", "_SF001_MEDIA_GOLDEN"} <= set(paths)
    for name, path in paths.items():
        assert path.startswith(str(tmp_path) + os.sep), (name, path)
