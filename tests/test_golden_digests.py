"""Seeded outputs pinned by digest.

A small seeded pipeline runs every command through `run_cli` and the
SHA-256 of every file it writes and of every stdout is compared with the
table in golden_digests.json.  The bits depend on numpy's internals (row-sum
order, BLAS) and on the backend, so the table records the versions and the
backend it was taken on, and on another numpy or backend the test fails and
says so rather than reporting every digest.

A change that alters an output on purpose rewrites the table with

    PYTHONPATH=src python tests/test_golden_digests.py

and lists each changed digest in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from logistic_lda import BACKEND
from logistic_lda.cli import run_cli

HERE = Path(__file__).resolve().parent
TABLE = HERE / "golden_digests.json"
DENSE = HERE.parent / "perfbench" / "dense.py"

TOKEN_RUN = [
    ("gen", "--k", "3", "--v", "12", "--docs", "10", "--len", "8", "--seed", "42",
     "-o", "plain.jsonl"),
    ("gen", "--k", "3", "--v", "12", "--docs", "16", "--len", "10", "--seed", "42",
     "--labeled", "-o", "c.jsonl"),
    ("train", "--corpus", "c.jsonl", "-o", "m.ckpt", "--mode", "variational",
     "--epochs", "3", "--lr", "0.05", "--gamma", "auto", "--metrics", "m.metrics.jsonl"),
    ("eval", "--corpus", "c.jsonl", "--model", "m.ckpt", "--truth", "c.jsonl.truth"),
    ("eval", "--corpus", "c.jsonl", "--model", "m.ckpt", "--truth", "c.jsonl.truth",
     "--no-converged"),
    ("infer", "--corpus", "c.jsonl", "--model", "m.ckpt", "-o", "p.jsonl"),
    ("topics", "--corpus", "c.jsonl", "--model", "m.ckpt", "-n", "4"),
    ("gibbs", "--corpus", "c.jsonl", "--burn-in", "2", "--samples", "2", "--seed", "1",
     "--truth", "c.jsonl.truth"),
]
DENSE_SIZES = dict(k=3, v=12, dim=4, groups=12, heldout=4, length=5)
DENSE_RUN = [
    ("train", "--corpus", "train.jsonl", "-o", "d.ckpt", "--mode", "discriminative",
     "--encoder", "mlp", "--hidden", "6", "--epochs", "2", "--batch-size", "4",
     "--lr", "0.01", "--n-iter", "3", "--metrics", "d.metrics.jsonl"),
    ("eval", "--corpus", "heldout.jsonl", "--model", "d.ckpt",
     "--truth", "heldout.jsonl.truth"),
    ("infer", "--corpus", "heldout.jsonl", "--model", "d.ckpt", "-o", "dp.jsonl",
     "--no-converged"),
]


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "python": platform.python_version(),
            "blas": f"{blas['name']} {blas.get('version', '?')}", "backend": BACKEND}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _load_dense():
    spec = importlib.util.spec_from_file_location("perfbench_dense", DENSE)
    dense = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dense)
    return dense


def _run(name, root, runs):
    """Run each argv in root; return {output name: digest} for every stdout
    and every file left in root."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for i, argv in enumerate(runs):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_cli(list(argv))
            assert code == 0, f"{name} step {i} ({' '.join(argv)}) exited {code}"
            digests[f"{name} {i} {argv[0]} stdout"] = _sha(out.getvalue().encode())
    finally:
        os.chdir(cwd)
    for path in sorted(root.iterdir()):
        digests[f"{name} file {path.name}"] = _sha(path.read_bytes())
    return digests


def digests(tmp):
    token, dense = Path(tmp) / "token", Path(tmp) / "dense"
    token.mkdir()
    dense.mkdir()
    _load_dense().make(str(dense), seed=42, **DENSE_SIZES)
    return {**_run("token", token, TOKEN_RUN), **_run("dense", dense, DENSE_RUN)}


def test_seeded_outputs_match_the_table(tmp_path):
    table = json.loads(TABLE.read_text())
    here = environment()
    assert [here[k] for k in ("numpy", "backend")] == [
        table["environment"][k] for k in ("numpy", "backend")], (
        f"the table was taken on {table['environment']}, this is {here}: "
        "rewrite it here (see the module docstring) and check every change")
    got, want = digests(tmp_path), table["digests"]
    differ = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
    assert not differ, (f"outputs that differ from the table "
                        f"(taken on {table['environment']}, this is {here}): {differ}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"environment": environment(), "digests": digests(tmp)}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['digests'])} digests to {TABLE}", file=sys.stderr)
