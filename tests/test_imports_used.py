"""Every name a module of the package imports is used there, exported in its
`__all__`, or looked up there by the benchmark's layer tracer
(`perfbench/spans.py`'s WRAPS, read as it is).  A traced name whose only
use is the tracer's lookup goes once WRAPS stops naming it."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logistic_lda"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {}
    for module, path, _, _ in spans.WRAPS:
        traced.setdefault(module, set()).add(path.split(".")[0])
    return traced


def _imported(tree):
    """{bound name: line} for every import statement of the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    allowed = used | _exported(tree) | _traced_names().get(module, set())
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in allowed)
    assert unused == [], f"{module}.py imports names it does not use: {unused}"


def test_the_modules_are_found():
    assert {"cli", "errors", "training", "__init__"} <= set(MODULES)
