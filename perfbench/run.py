#!/usr/bin/env python3
"""Benchmark of the logistic-lda command-line pipeline.

    python3 perfbench/run.py --workload pipeline-token --seed 42 --seconds 20 --trace 0

A run builds the workload's inputs from --seed, then runs the workload's
CLI stages as fresh processes on the numpy backend, one at a time (a
closed loop with one client), and checks every exit code and output.
Passes over the stages repeat until --seconds have elapsed; each pass runs
the fit stage FIT_RUNS times.  Times are medians over the runs of a stage
(total_s sums the stages' medians), scaled to the reference host speed by
the calibration job timed just before and just after each process (see
CALIB_REF_S).  The end-to-end metrics named in BENCHMARK.json are printed
with --trace 0.

With --trace 1 the run builds the inputs in a traced process, then makes
one pass of the stages as plain processes and one as traced processes:
each traced stage runs perfbench/spans.py, which wraps the layer functions
with span recorders, runs the stage and writes its spans.  It prints the
per-layer metrics of BENCHMARK.json, unscaled.  A traced stage's wall time
minus its root spans is the stage overhead (interpreter start, imports,
argument parsing); the traced pass minus the plain one is the tracing
overhead.

The last line of standard output is the JSON result.  The full report
(environment, per-pass times, failures with their stderr tail, spans) is
written to perfbench/out/<workload>-seed<seed>[-trace].json.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# numpy is imported lazily, after this, so the calibration job runs with the
# same BLAS threads as the children.
PINNED_ENV = {
    "LOGISTIC_LDA_BACKEND": "numpy",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

README_SEED = 42  # gen --seed 42 and train --seed 2 reproduce the README figures
TRAIN_SEED = 2
SETUP_REPEATS = 3
IMPORTS_PER_PASS = 2
# The fit stage is the longest stage, and the one a shared host's speed
# swings move most, so a timed pass runs it twice to give fit_s more samples.
FIT_RUNS = 2
STAGE_TIMEOUT_S = 150
# Median of calibrate() on the reference host (2-vCPU Intel Xeon container).
# Each timed process's wall time is multiplied by CALIB_REF_S / (the mean of
# the calibrations just before and just after it): the shared host's speed
# swings by 10-30 % over seconds to minutes, and over ten-seed sets the
# scaling cut the worst run-to-run spread from 0.33 to 0.13.  The raw wall
# times are kept in the report.
CALIB_REF_S = 0.22
STAGES = ("train", "eval", "infer", "topics", "gibbs")
# Quality that holds at every seed of the full-size token corpus.  Over gen
# seeds 1-12, 42 and 201-210 the pipeline's final_loss ranged from 8.8 to
# 24.4 (the untrained model's is 33.7) and the Gibbs matched item accuracy
# from 0.45 to 0.85 (chance is 0.2).  Matched item accuracy of the pipeline
# itself ranged from 0.22 to 0.96, so it has a floor at the README seed only.
TRAINED_LOSS_MAX = 30.0
GIBBS_ACCURACY_MIN = 0.35
DENSE_SIZES = {"k": 10, "v": 200, "dim": 32, "groups": 2000, "heldout": 500, "length": 20}


@dataclass
class Workload:
    name: str
    setup: list       # `gen` arguments, or None for the dense corpus script
    stages: list      # (stage, CLI arguments), run in this order
    fit: str          # the stage that fits a model
    groups: int       # groups in the corpus the post-fit stages read
    k: int
    dense_sizes: dict = field(default_factory=dict)
    # Quality ranges (stage, key, low, high, seed): the stage's output `key`
    # must lie in [low, high] at that seed, or at every seed when it is None.
    quality: list = field(default_factory=list)


def workloads(tiny=False):
    """The benchmark's workloads; `tiny` shrinks every size for the self-test."""
    docs, length, epochs = (40, 12, 3) if tiny else (1000, 60, 30)
    gen = ["gen", "--k", "5", "--v", "100", "--docs", str(docs), "--len", str(length),
           "--seed", "{seed}", "-o", "corpus.jsonl"]
    model = ["--corpus", "corpus.jsonl", "--model", "model.ckpt"]
    pipeline = Workload(
        name="pipeline-token",
        setup=gen,
        stages=[
            ("train", ["train", "--corpus", "corpus.jsonl", "-o", "model.ckpt", "--gamma", "auto",
                       "--epochs", str(epochs), "--batch-size", "100", "--lr", "0.05",
                       "--seed", str(TRAIN_SEED), "--quiet"]),
            ("eval", ["eval", *model, "--truth", "corpus.jsonl.truth"]),
            ("infer", ["infer", *model, "-o", "preds.jsonl"]),
            ("topics", ["topics", *model, "-n", "10"]),
        ],
        fit="train", groups=docs, k=5,
        quality=[] if tiny else [
            ("eval", "matched_item_accuracy", 0.95, 1.0, README_SEED),
            ("train", "final_loss", 0.0, TRAINED_LOSS_MAX, None),
        ],
    )
    sweeps = ("1", "1") if tiny else ("3", "2")
    gibbs = Workload(
        name="gibbs-token",
        setup=gen,
        stages=[("gibbs", ["gibbs", "--corpus", "corpus.jsonl", "--burn-in", sweeps[0],
                           "--samples", sweeps[1], "--truth", "corpus.jsonl.truth"])],
        fit="gibbs", groups=docs, k=5,
        quality=[] if tiny else [("gibbs", "matched_item_accuracy", GIBBS_ACCURACY_MIN, 1.0, None)],
    )
    sizes = dict(DENSE_SIZES)
    if tiny:
        sizes.update(groups=40, heldout=10, length=5)
    held = ["--corpus", "heldout.jsonl", "--model", "model.ckpt", "--no-converged"]
    dense_mlp = Workload(
        name="dense-mlp",
        setup=None,
        stages=[
            ("train", ["train", "--corpus", "train.jsonl", "-o", "model.ckpt",
                       "--mode", "discriminative", "--encoder", "mlp", "--hidden", "64",
                       "--epochs", "2" if tiny else "10", "--seed", str(TRAIN_SEED),
                       "--quiet"]),
            ("eval", ["eval", *held, "--truth", "heldout.jsonl.truth"]),
            ("infer", ["infer", *held, "-o", "preds.jsonl"]),
        ],
        fit="train", groups=sizes["heldout"], k=sizes["k"],
        dense_sizes=sizes,
        quality=[] if tiny else [("eval", "group_accuracy", 0.7, 1.0, None)],
    )
    return {w.name: w for w in (pipeline, dense_mlp, gibbs)}


# ---------------------------------------------------------------------------
# processes

def child_env():
    return dict(os.environ, **PINNED_ENV, PYTHONPATH=str(SRC))


@dataclass
class Proc:
    wall_s: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


def _kill_group(pid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_process(argv, cwd):
    """Run argv in cwd through perfbench/spawn.py and wait for it.  The wall
    time and the peak RSS are the command's own, taken from outside it."""
    out_path, err_path, result_path = cwd / ".stdout", cwd / ".stderr", cwd / ".proc.json"
    result_path.unlink(missing_ok=True)
    launcher = [sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(result_path), *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(launcher, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(STAGE_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    if result_path.exists():
        r = json.loads(result_path.read_text(encoding="utf-8"))
        wall, code, rss = r["wall_s"], r["code"], r["rss_mb"]
    else:  # the launcher was killed, or could not start the command
        code, rss = proc.returncode or 1, 0.0
    return Proc(wall, code, rss, out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"))


def setup_command(w, seed):
    """The (program, arguments) that build the workload's inputs in the current directory."""
    if w.setup is not None:
        return "cli", fill(w.setup, seed)
    sizes = [a for key, value in w.dense_sizes.items() for a in (f"--{key}", str(value))]
    return "dense", ["--seed", str(seed), "--out", ".", *sizes]


def command_argv(program, args):
    if program == "dense":
        return [sys.executable, str(HERE / "dense.py"), *args]
    return [sys.executable, "-m", "logistic_lda.cli", *args]


def traced_argv(phase, spans_path, program, args):
    return [sys.executable, str(HERE / "spans.py"), "--phase", phase, "--spans", str(spans_path),
            program, *args]


def fill(args, seed):
    return [a.format(seed=seed) for a in args]


def import_argv():
    return [sys.executable, "-c", "import logistic_lda.cli"]


def input_digest(cwd):
    h = hashlib.sha256()
    for path in sorted(p for p in cwd.iterdir() if not p.name.startswith(".")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks

class Ledger:
    """Counts operations (stage runs and output checks) and keeps each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def process(self, label, p):
        return self.check(p.code == 0, f"{label} exited {p.code}: {p.stderr[-800:]}")


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_stage(w, seed, stage, stdout, cwd, ledger, seen):
    """Check the output of a stage that exited 0.  `seen` holds the first
    summary of each stage, which every later pass of the same seed, traced
    or not, must repeat exactly."""
    try:
        if stage == "topics":
            lines = stdout.strip().splitlines()
            summary = lines
            ok = len(lines) == w.k and all(ln.startswith(f"topic {k}:") for k, ln in enumerate(lines))
            ledger.check(ok, f"topics: expected {w.k} topic lines, got {lines[:3]}")
        elif stage == "infer":
            from logistic_lda.data_io import read_predictions

            ids, labels, p_label, p_items = read_predictions(cwd / "preds.jsonl")
            sums = p_label.sum(axis=1)
            ok = (_last_json(stdout)["groups"] == w.groups == len(ids) == len(p_items)
                  and bool(((sums > 0.99999) & (sums < 1.00001)).all()))
            ledger.check(ok, f"infer: {len(ids)} prediction records for {w.groups} groups")
            summary = hashlib.sha256(json.dumps([ids, labels.tolist()]).encode()).hexdigest()
        else:
            summary = _last_json(stdout)
            if stage == "train":
                ok = math.isfinite(summary["final_loss"])
                ledger.check(ok, f"train: final_loss {summary['final_loss']!r}")
            else:
                acc = [summary[k] for k in ("matched_item_accuracy", "matched_group_accuracy")]
                ledger.check(all(0.0 <= a <= 1.0 for a in acc), f"{stage}: accuracies {acc}")
            for q_stage, key, low, high, q_seed in w.quality:
                if q_stage == stage and q_seed in (None, seed):
                    ledger.check(low <= summary[key] <= high,
                                 f"{stage}: {key} {summary[key]} outside [{low}, {high}]")
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        ledger.check(False, f"{stage}: unreadable output ({exc!r}): {stdout[-300:]}")
        return None
    if stage in seen:
        ledger.check(summary == seen[stage], f"{stage}: output differs between runs of seed {seed}")
    else:
        seen[stage] = summary
    return summary


# ---------------------------------------------------------------------------
# the two kinds of run

def run_scaled(argv, cwd, calib):
    """run_process, plus its wall time at the reference host speed, judged by
    the calibrations just before and just after it (appended to `calib`)."""
    if not calib:
        calib.append(calibrate())
    p = run_process(argv, cwd)
    calib.append(calibrate())
    return p, p.wall_s * 2.0 * CALIB_REF_S / (calib[-2] + calib[-1])


def set_up(w, seed, work, ledger, repeats, calib):
    """Build the inputs `repeats` times; returns ([(wall, scaled)], directory of the first)."""
    times, digests = [], set()
    for i in range(repeats):
        d = work / f"setup{i}"
        d.mkdir()
        p, scaled = run_scaled(command_argv(*setup_command(w, seed)), d, calib)
        times.append((p.wall_s, scaled))
        if ledger.process("setup", p):
            digests.add(input_digest(d))
        if i:
            shutil.rmtree(d)
    ledger.check(len(digests) <= 1, f"setup: seed {seed} gave {len(digests)} different inputs")
    return times, work / "setup0"


def warm_up(cwd, ledger):
    """Untimed: fills __pycache__ and the page cache, as a user's repeat run finds them."""
    ledger.process("warm-up import", run_process(import_argv(), cwd))
    for path in cwd.iterdir():
        path.read_bytes()


def calibrate():
    """Seconds one fixed reference job takes now.

    The job mixes the kinds of work the stages do (interpreter loops, JSON
    parsing, numpy element-wise kernels, the thin matrix products of an MLP
    layer) and never touches the library, so its time tracks only how fast
    the shared host runs at the moment."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w1, w2 = rng.random((40_000, 32)), rng.random((32, 64)), rng.random((64, 10))
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    json.loads(json.dumps([[i, i / 7.0, str(i)] for i in range(20_000)]))
    a = np.linspace(0.0, 1.0, 300_000)
    for _ in range(40):
        a = np.exp(-a) / (1.0 + a.sum() * 1e-9)
    for _ in range(2):
        h = np.tanh(x @ w1)
        h @ w2
        h.T @ x
    return time.perf_counter() - start


def stage_pass(w, seed, cwd, ledger, seen, calib, imports, rss, fit_runs=1):
    """Import probes, then every stage, the fit stage `fit_runs` times;
    returns each stage's [(wall, scaled)] times."""
    times = {}
    for _ in range(IMPORTS_PER_PASS):
        p, t = run_scaled(import_argv(), cwd, calib)
        ledger.process("import", p)
        imports.append((p.wall_s, t))
    for stage, args in w.stages:
        for _ in range(fit_runs if stage == w.fit else 1):
            p, t = run_scaled(command_argv("cli", args), cwd, calib)
            times.setdefault(stage, []).append((p.wall_s, t))
            rss.append(p.rss_mb)
            if ledger.process(stage, p):
                check_stage(w, seed, stage, p.stdout, cwd, ledger, seen)
    return times


def timed_run(w, seed, seconds, work, ledger, report):
    calib = []
    setup, cwd = set_up(w, seed, work, ledger, SETUP_REPEATS, calib)
    warm_up(cwd, ledger)
    seen, imports, rss, passes = {}, [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(stage_pass(w, seed, cwd, ledger, seen, calib, imports, rss, FIT_RUNS))
    report.update(setup_s=setup, import_s=imports, passes=passes, rss_mb=rss, outputs=seen,
                  calibration_s=calib)
    scaled = {stage: [t for times in passes for _, t in times[stage]] for stage in passes[0]}
    return {
        "setup_s": statistics.median(t for _, t in setup),
        "import_s": statistics.median(t for _, t in imports),
        "fit_s": statistics.median(scaled[w.fit]),
        "total_s": sum(statistics.median(ts) for ts in scaled.values()),
        "peak_rss_mb": max(rss),
    }


def run_traced(phase, program, args, cwd, label, ledger, spans, missing):
    """Run one command in a traced process; its spans join `spans` and the
    wrapped names it could not find join `missing`.  Returns the process."""
    from spans import Span

    path = cwd / ".spans.json"
    path.unlink(missing_ok=True)
    p = run_process(traced_argv(phase, path, program, args), cwd)
    ledger.process(label, p)
    if path.exists():
        dump = json.loads(path.read_text(encoding="utf-8"))
        offset = len(spans)
        for d in dump["spans"]:
            spans.append(Span(**dict(d, parent=d["parent"] + offset if d["parent"] >= 0 else -1)))
        missing.update(dump["missing"])
    return p


def traced_run(w, seed, work, ledger, report):
    cwd = work / "inputs"
    cwd.mkdir()
    spans, missing = [], set()
    run_traced("setup", *setup_command(w, seed), cwd, "traced setup", ledger, spans, missing)
    warm_up(cwd, ledger)
    seen, imports, rss = {}, [], []
    walls = {stage: times[0][0]
             for stage, times in stage_pass(w, seed, cwd, ledger, seen, [], imports, rss).items()}
    traced = {}
    for stage, args in w.stages:
        p = run_traced(stage, "cli", args, cwd, f"traced {stage}", ledger, spans, missing)
        traced[stage] = p.wall_s
        if p.code == 0:
            check_stage(w, seed, stage, p.stdout, cwd, ledger, seen)
    roots = {st: sum(s.duration for s in spans if s.parent < 0 and s.phase == st) for st in traced}
    report.update(stage_walls=walls, traced_walls=traced, stage_roots_s=roots, outputs=seen,
                  missing_wrappers=sorted(missing),
                  samples={"epochs": sum(s.name == "training.emit" for s in spans),
                           "gibbs_sweeps": sum(s.name == "lda_baseline.gibbs_sweep"
                                               for s in spans)},
                  spans=[vars(s) for s in spans])
    return layer_metrics(spans, missing, walls, traced, roots, imports, seen)


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans, missing, walls, traced, roots, imports, seen):
    """Per-layer metrics from the traced pass; `walls` are the plain pass's
    stage wall times, `traced` the traced pass's and `roots` its root spans."""
    from spans import LAYERS, layer_self_times

    stages = set(walls)

    def of(name):
        return [s for s in spans if s.name == name]

    def secs(name):
        return sum(s.duration for s in of(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in of(name))

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    epochs = []
    for t in of("training.train"):
        marks = [t.start] + [e.end for e in of("training.emit") if t.start <= e.start <= t.end]
        epochs += [b - a for a, b in zip(marks, marks[1:])]
    train_items = sum(s.counts["items"] for s in of("data_io.load_corpus") if s.phase == "train")
    sweeps = [s.duration for s in of("lda_baseline.gibbs_sweep")]
    quality = seen.get("eval") or seen.get("gibbs") or {}

    m = {
        "cli.import_s": _median([wall for wall, _ in imports]),
        "cli.stage_overhead_s": sum(traced.values()) - sum(roots.values()),
        **{f"cli.{st}_wall_s": walls.get(st, 0.0) for st in STAGES},
        **{f"{layer}.self_s": t for layer, t in layer_self_times(spans, stages).items()
           if layer in LAYERS},
        "data_io.load_corpus_s": secs("data_io.load_corpus"),
        "data_io.load_corpus_items_per_s": rate(count("data_io.load_corpus", "items"),
                                                secs("data_io.load_corpus")),
        "data_io.save_corpus_s": secs("data_io.save_corpus"),
        "data_io.corpus_bytes": count("data_io.save_corpus", "bytes"),
        "data_io.write_predictions_s": secs("data_io.write_predictions"),
        "data_io.predictions_bytes": count("data_io.write_predictions", "bytes"),
        "data_io.load_truth_s": secs("data_io.load_truth"),
        "data_io.checkpoint_save_s": secs("data_io.checkpoint_save"),
        "data_io.checkpoint_load_s": secs("data_io.checkpoint_load"),
        "data_io.checkpoint_bytes": max((s.counts["bytes"] for s in of("data_io.checkpoint_save")),
                                        default=0),
        "mean_field.flatten_groups_s": secs("mean_field.flatten_groups"),
        "mean_field.estep_converged_s": secs("mean_field.estep_converged"),
        "mean_field.estep_converged_sweeps": count("mean_field.estep_converged", "sweeps"),
        "mean_field.item_sweeps": count("mean_field.estep_converged", "item_sweeps")
        + count("mean_field.estep_fixed", "item_sweeps"),
        "mean_field.estep_fixed_s": secs("mean_field.estep_fixed"),
        "mean_field.estep_fixed_calls": len(of("mean_field.estep_fixed")),
        "encoders.forward_s": secs("encoders.forward"),
        "encoders.backward_s": secs("encoders.backward"),
        "encoders.items": count("encoders.forward", "items"),
        "training.unroll_fwd_s": secs("training.unroll_fwd"),
        "training.unroll_bwd_s": secs("training.unroll_bwd"),
        "training.optimizer_step_s": secs("training.optimizer_step"),
        "training.elbo_s": secs("training.elbo"),
        "training.epoch_s_median": _median(epochs),
        "training.epoch_s_p90": _p90(epochs),
        "training.items_per_s": rate(len(epochs) * train_items, secs("training.train")),
        "training.final_loss": seen.get("train", {}).get("final_loss", 0.0),
        "regularizer.update_s": secs("regularizer.update"),
        "math_kernels.digamma_s": secs("math_kernels.digamma"),
        "math_kernels.digamma_points": count("math_kernels.digamma", "points"),
        "math_kernels.trigamma_s": secs("math_kernels.trigamma"),
        "math_kernels.trigamma_points": count("math_kernels.trigamma", "points"),
        "math_kernels.softmax_s": secs("math_kernels.softmax"),
        "lda_baseline.generate_corpus_s": secs("lda_baseline.generate_corpus"),
        "lda_baseline.gibbs_sweep_s_median": _median(sweeps),
        "lda_baseline.gibbs_sweep_s_p90": _p90(sweeps),
        "lda_baseline.tokens_per_s": rate(count("lda_baseline.gibbs_sweep", "tokens"), sum(sweeps)),
        "lda_baseline.estimate_s": secs("lda_baseline.estimate"),
        "evaluation.report_s": secs("evaluation.report"),
        "evaluation.top_items_s": secs("evaluation.top_items"),
        "evaluation.matched_item_accuracy": quality.get("matched_item_accuracy", 0.0),
        "evaluation.matched_group_accuracy": quality.get("matched_group_accuracy", 0.0),
        "evaluation.group_accuracy": quality.get("group_accuracy", 0.0),
        "trace.overhead_s": sum(traced.values()) - sum(walls.values()),
        "trace.overhead_share": rate(sum(traced.values()) - sum(walls.values()), sum(walls.values())),
        "trace.missing_wrappers": len(missing),
    }
    return m


# ---------------------------------------------------------------------------

def environment():
    import numpy
    import scipy

    from logistic_lda import backend

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "backend": backend.BACKEND,
        "has_numba": backend.HAS_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "pinned_env": PINNED_ENV,
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(w, seed, seconds, trace, out_dir=OUT):
    """One benchmark run; returns (result dict, report dict)."""
    spec = load_spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"{w.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    ledger = Ledger()
    report = {"workload": w.name, "seed": seed, "trace": trace, "environment": environment()}
    try:
        if trace:
            values = traced_run(w, seed, work, ledger, report)
        else:
            values = timed_run(w, seed, seconds, work, ledger, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(wanted):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    report.update(failures=ledger.failures, result=result)
    return result, report


def program_present():
    """True when the checkout holds the library, and this process imports that copy."""
    if not (SRC / "logistic_lda" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import logistic_lda

    return Path(logistic_lda.__file__).resolve().is_relative_to(SRC)


def main(argv=None):
    names = ("pipeline-token", "dense-mlp", "gibbs-token")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names, required=True)
    p.add_argument("--seed", type=int, default=README_SEED)
    p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not program_present():
        print(f"error: no logistic_lda package under {SRC}", file=sys.stderr)
        return 2
    w = workloads()[args.workload]
    result, report = run(w, args.seed, args.seconds, bool(args.trace))
    suffix = "-trace" if args.trace else ""
    path = OUT / f"{w.name}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    print("environment:", json.dumps(report["environment"]))
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
