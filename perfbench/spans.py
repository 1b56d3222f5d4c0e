"""Span tracing for the traced benchmark run, from outside the library.

`Tracer.install` replaces layer functions, as bound in the modules that
call them, with wrappers that record a span (name, layer, start, end,
parent) and the counts taken at that boundary.  Nothing under src/ is
edited, and `Tracer.uninstall` puts every original back.  A wrapped name
that no longer exists is listed in `Tracer.missing` instead of failing.

Run as a script, it executes one CLI command (or the dense-corpus builder)
with the tracer installed and writes the spans to a JSON file, so that a
stage's wall time, taken from outside, and its spans come from the same
process:

    python3 perfbench/spans.py --phase train --spans spans.json -- cli train ...
    python3 perfbench/spans.py --phase setup --spans spans.json -- dense --seed 42 ...
"""

import argparse
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "data_io", "mean_field", "encoders", "training", "regularizer",
          "math_kernels", "lda_baseline", "evaluation")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for a root span
    phase: str = ""   # the stage (or "setup") the span belongs to
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _rows(x):
    return int(np.shape(x)[0])


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _estep_name(args, kwargs):
    tol = kwargs.get("tol", args[5] if len(args) > 5 else 0.0)
    return "mean_field.estep_converged" if tol > 0.0 else "mean_field.estep_fixed"


def _estep_counts(args, kwargs, result):
    sweeps = int(result[3])
    return {"sweeps": sweeps, "item_sweeps": _rows(args[0]) * sweeps}


def _corpus_items(args, kwargs, result):
    return {"items": sum(len(g.items) for g in result.groups)}


def _points(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _first_rows(args, kwargs, result):
    return {"items": _rows(args[0])}


def _tokens(args, kwargs, result):
    return {"tokens": args[1].num_items}


# (module, attribute path, span name or callable(args, kwargs) -> name, counts)
# Each entry is the name a caller looks up at call time, so the wrapper sees
# every call that caller makes.
WRAPS = [
    ("cli", "_cmd_gen", "cli.gen", None),
    ("cli", "_cmd_train", "cli.train", None),
    ("cli", "_cmd_eval", "cli.eval", None),
    ("cli", "_cmd_infer", "cli.infer", None),
    ("cli", "_cmd_topics", "cli.topics", None),
    ("cli", "_cmd_gibbs", "cli.gibbs", None),
    ("cli", "load_corpus", "data_io.load_corpus", _corpus_items),
    ("cli", "save_corpus", "data_io.save_corpus", _file_bytes),
    ("data_io", "save_corpus", "data_io.save_corpus", _file_bytes),
    ("cli", "save_truth", "data_io.save_truth", None),
    ("data_io", "save_truth", "data_io.save_truth", None),
    ("cli", "load_truth", "data_io.load_truth", None),
    ("cli", "corpus_from_groups", "data_io.corpus_from_groups", None),
    ("data_io", "corpus_from_groups", "data_io.corpus_from_groups", None),
    ("cli", "save_checkpoint", "data_io.checkpoint_save", _file_bytes),
    ("cli", "load_checkpoint", "data_io.checkpoint_load", _file_bytes),
    ("cli", "write_predictions", "data_io.write_predictions", _file_bytes),
    ("cli", "flatten_groups", "mean_field.flatten_groups", None),
    ("training", "flatten_groups", "mean_field.flatten_groups", None),
    ("evaluation", "flatten_groups", "mean_field.flatten_groups", None),
    ("training", "batch_mean_field", _estep_name, _estep_counts),
    ("training", "forward_logits_batch", "encoders.forward", _first_rows),
    ("training", "backward_batch", "encoders.backward", _first_rows),
    ("cli", "train", "training.train", None),
    ("cli", "predict_corpus", "training.predict_corpus", None),
    ("evaluation", "predict_corpus", "training.predict_corpus", None),
    ("training", "_unroll_fwd", "training.unroll_fwd", None),
    ("training", "_unroll_bwd", "training.unroll_bwd", None),
    ("training", "Optimizer.step", "training.optimizer_step", None),
    ("training", "_corpus_elbo", "training.elbo", None),
    ("training", "_emit", "training.emit", None),
    ("training", "update_running_estimate", "regularizer.update", None),
    ("training", "digamma", "math_kernels.digamma", _points),
    ("mean_field", "digamma", "math_kernels.digamma", _points),
    ("training", "trigamma", "math_kernels.trigamma", _points),
    ("training", "softmax", "math_kernels.softmax", _points),
    ("training", "log_softmax", "math_kernels.softmax", _points),
    ("mean_field", "softmax", "math_kernels.softmax", _points),
    ("cli", "generate_corpus", "lda_baseline.generate_corpus", None),
    ("lda_baseline", "generate_corpus", "lda_baseline.generate_corpus", None),
    ("cli", "gibbs_run", "lda_baseline.gibbs_run", None),
    ("lda_baseline", "gibbs_init", "lda_baseline.gibbs_init", None),
    ("lda_baseline", "gibbs_sweep", "lda_baseline.gibbs_sweep", _tokens),
    ("lda_baseline", "estimate_beta_theta", "lda_baseline.estimate", None),
    ("cli", "evaluation_report", "evaluation.report", None),
    ("cli", "top_items_per_topic", "evaluation.top_items", None),
]


class Tracer:
    """Records spans in memory while installed; single-threaded callers only."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.phase = ""
        self._stack = []
        self._originals = []

    def install(self, wraps=WRAPS):
        for module, path, name, counts in wraps:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(f"logistic_lda.{module}")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrapper(original, name, counts))
            self._originals.append((owner, attr, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name, counts):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = Span(span_name, span_name.split(".", 1)[0], time.perf_counter(),
                        parent=self._stack[-1] if self._stack else -1, phase=self.phase)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_self_times(spans, phases):
    """Self time per layer, over the spans of the given phases."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        if s.phase in phases:
            totals[s.layer] = totals.get(s.layer, 0.0) + t
    return totals


def main(argv=None):
    p = argparse.ArgumentParser(description="Run one command with the layer tracer installed.")
    p.add_argument("--phase", required=True, help="the stage the spans belong to")
    p.add_argument("--spans", required=True, help="JSON file the spans are written to")
    p.add_argument("program", choices=("cli", "dense"))
    p.add_argument("args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    tracer = Tracer()
    tracer.phase = args.phase
    tracer.install()
    try:
        if args.program == "dense":
            import dense

            dense.main(args.args)
            code = 0
        else:
            from logistic_lda import cli

            code = cli.run_cli(args.args)
    finally:
        tracer.uninstall()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"missing": tracer.missing, "spans": [vars(s) for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
