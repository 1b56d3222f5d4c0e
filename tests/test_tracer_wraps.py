"""Every function that the benchmark's layer tracer (`perfbench/spans.py`)
wraps must exist in the library under the name the tracer looks up.  A
renamed function then fails here, in milliseconds, instead of showing up
only as `trace.missing_wrappers` in a traced benchmark run.  spans.py is
read as it is; nothing in it is changed."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, path) for module, path, _, _ in spans.WRAPS]


def test_every_traced_name_resolves():
    names = traced_names()
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
