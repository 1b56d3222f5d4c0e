"""The benchmark's layer tracer (`perfbench/spans.py`) must keep working on
the library as it is.  Every function it wraps must exist under the name
the tracer looks up, and every count it takes must read what the library
returns.  A renamed function, or a changed return value that a counter
reads, then fails here in seconds, instead of showing up only in a traced
benchmark run.  spans.py and dense.py are read as they are; nothing in
them is changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from logistic_lda import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    names = [(module, path) for module, path, _, _ in load("spans").WRAPS]
    assert names
    missing = []
    for module, path in names:
        # the lookup Tracer.install makes: a module, then an attribute path
        try:
            owner = importlib.import_module(f"logistic_lda.{module}")
            for part in path.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
            continue
        if not callable(owner):
            missing.append(f"{module}.{path} (not callable)")
    assert missing == []


@pytest.mark.usefixtures("numpy_kernels")
def test_traced_pipeline_takes_every_count(tmp_path, capsys):
    spans, dense = load("spans"), load("dense")

    class NotingTracer(spans.Tracer):
        """The stock tracer, noting which spans a wrap with counts opened."""

        def __init__(self):
            super().__init__()
            self.counted = []

        def _wrapper(self, original, name, counts):
            traced = super()._wrapper(original, name, counts)
            if counts is None:
                return traced

            def noted(*args, **kwargs):
                self.counted.append(len(self.spans))  # the index traced gives its span
                return traced(*args, **kwargs)

            return noted

    c, m, t = (str(tmp_path / name) for name in ("c.jsonl", "m.ckpt", "c.jsonl.truth"))
    model = ["--corpus", c, "--model", m]
    commands = [
        ["gen", "--k", "3", "--v", "9", "--docs", "12", "--len", "8", "--seed", "7", "-o", c],
        ["train", "--corpus", c, "-o", m, "--epochs", "2", "--batch-size", "4", "--quiet"],
        ["eval", *model, "--truth", t],
        ["infer", *model, "-o", str(tmp_path / "p.jsonl")],
        ["topics", *model, "-n", "3"],
        ["gibbs", "--corpus", c, "--truth", t, "--burn-in", "1", "--samples", "2"],
        ["train", "--corpus", str(tmp_path / "train.jsonl"), "-o", str(tmp_path / "d.ckpt"),
         "--mode", "discriminative", "--hidden", "4", "--epochs", "2", "--batch-size", "8",
         "--quiet"],
    ]
    tracer = NotingTracer()
    tracer.install()
    try:
        dense.make(str(tmp_path), seed=42, k=3, v=12, dim=4, groups=16, heldout=4, length=5)
        codes = [cli.run_cli(argv) for argv in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    assert tracer.missing == []
    counted = [tracer.spans[i] for i in tracer.counted]
    assert [s.name for s in counted if not s.counts] == []
    assert {s.name for s in counted} >= {
        "data_io.load_corpus", "data_io.save_corpus", "data_io.checkpoint_save",
        "data_io.checkpoint_load", "data_io.write_predictions", "mean_field.estep_fixed",
        "mean_field.estep_converged", "encoders.forward", "encoders.backward",
        "math_kernels.digamma", "math_kernels.trigamma", "math_kernels.softmax",
        "lda_baseline.gibbs_sweep"}
