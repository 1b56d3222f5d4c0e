"""Self-test of the benchmark.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import LAYERS, Span, layer_self_times, self_times  # noqa: E402

assert run.program_present(), "run from a checkout that holds src/logistic_lda"
SPEC = run.load_spec()
NAMES = ("pipeline-token", "dense-mlp", "gibbs-token")


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert set(run.workloads()) == set(NAMES)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    w = run.workloads(tiny=True)[name]
    result, report = run.run(w, seed=7, seconds=0, trace=trace, out_dir=tmp_path)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(spec)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == spec[metric]["unit"]
        assert spec[metric]["better"] in ("lower", "higher")
        assert math.isfinite(entry["value"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["trace.missing_wrappers"] == 0, report["missing_wrappers"]
    # Each traced stage's root spans lie inside that same process's wall time.
    assert set(report["stage_roots_s"]) == {st for st, _ in w.stages}
    for stage, roots in report["stage_roots_s"].items():
        assert 0 < roots <= report["traced_walls"][stage]
    assert values["cli.stage_overhead_s"] > 0
    layers = sum(values[f"{la}.self_s"] for la in LAYERS)
    assert layers == pytest.approx(sum(report["stage_roots_s"].values()), rel=1e-9)
    json.dumps(report, default=str)  # the report file must serialise


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        Span("cli.train", "cli", 0.0, 10.0, phase="train"),
        Span("data_io.load_corpus", "data_io", 1.0, 4.0, parent=0, phase="train"),
        Span("mean_field.flatten_groups", "mean_field", 2.0, 3.0, parent=1, phase="train"),
        Span("training.train", "training", 5.0, 9.0, parent=0, phase="train"),
        Span("encoders.forward", "encoders", 5.5, 6.5, parent=3, phase="train"),
        Span("encoders.forward", "encoders", 6.0, 7.0, parent=3, phase="train"),  # overlaps
        Span("lda_baseline.generate_corpus", "lda_baseline", 20.0, 21.0, phase="setup"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 1.0, 1.0])
    layers = layer_self_times(spans, {"train"})
    assert layers["cli"] == pytest.approx(3.0)
    assert layers["encoders"] == pytest.approx(2.0)
    assert layers["training"] == pytest.approx(2.5)
    assert layers["lda_baseline"] == 0.0  # setup spans are not stage time


def test_missing_corpus_counts_as_failure_and_the_rest_still_runs(tmp_path):
    w = run.workloads(tiny=True)["pipeline-token"]
    w.stages = [(st, ["missing.jsonl" if a == "corpus.jsonl" else a for a in args])
                if st == "eval" else (st, args) for st, args in w.stages]
    result, report = run.run(w, seed=7, seconds=0, trace=False, out_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1
    assert report["failures"][0].startswith("eval exited 2")
    assert "missing.jsonl" in report["failures"][0]
    assert set(report["passes"][0]) == {"train", "eval", "infer", "topics"}
    assert len(report["passes"][0]["train"]) == run.FIT_RUNS


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    import numpy as np

    ballast = np.ones(160 * 2**20 // 8)  # the benchmark's own peak grows past 160 MB
    p = run.run_process(run.import_argv(), tmp_path)
    assert p.code == 0
    assert 20 < p.rss_mb < 140, p.rss_mb  # `import logistic_lda.cli` alone needs about 80 MB
    del ballast


def test_stage_timeout_kills_the_command(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STAGE_TIMEOUT_S", 1)
    p = run.run_process([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path)
    assert p.code != 0 and p.wall_s < 30


def test_renamed_layer_function_is_reported_missing():
    from spans import Tracer

    tracer = Tracer()
    tracer.install([("training", "no_such_function", "training.nothing", None),
                    ("training", "Optimizer.no_such_method", "training.nothing", None),
                    ("no_such_module", "f", "x.f", None)])
    tracer.uninstall()
    assert tracer.missing == ["training.no_such_function", "training.Optimizer.no_such_method",
                              "no_such_module.f"]


def test_quality_ranges_at_the_readme_seed_and_another_seed(tmp_path):
    full = run.workloads()
    for name, seed in (("pipeline-token", run.README_SEED), ("pipeline-token", 7),
                       ("gibbs-token", 7), ("dense-mlp", 7)):
        result, report = run.run(full[name], seed=seed, seconds=0, trace=False, out_dir=tmp_path)
        assert result["correct"], report["failures"]
        ranges = [q for q in full[name].quality if q[4] in (None, seed)]
        assert ranges
        for stage, key, low, high, _ in ranges:
            assert low <= report["outputs"][stage][key] <= high


def test_exits_nonzero_without_output_when_the_program_is_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-mlp",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
