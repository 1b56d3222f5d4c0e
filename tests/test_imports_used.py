"""Every name a module of the package imports is used there, exported in its
`__all__`, or looked up there by the benchmark's layer tracer
(`perfbench/spans.py`'s WRAPS, read as it is).  A traced name whose only
use is the tracer's lookup goes once WRAPS stops naming it.  No module but
`backend.py` imports numba, names `njit` or defines a numba loop."""

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


def _numba_parts(tree):
    """What ties a module to numba: numba imports, the name njit, and
    functions named *_nb (the loop twins)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numba"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numba":
            found.append(node.module)
        elif isinstance(node, ast.alias) and "njit" in (node.name, node.asname):
            found.append("njit")
        elif (isinstance(node, ast.Name) and node.id == "njit"
              or isinstance(node, ast.Attribute) and node.attr == "njit"):
            found.append("njit")
        elif isinstance(node, ast.FunctionDef) and node.name.endswith("_nb"):
            found.append(node.name)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_numba_lives_only_in_backend(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = _numba_parts(tree)
    if module == "backend":
        assert {"numba", "njit", "_mean_field_batch_nb", "_unroll_bwd_nb",
                "_gibbs_sweep_nb"} <= set(found)
    else:
        assert found == [], f"{module}.py holds numba code: {sorted(set(found))}"


def test_the_modules_are_found():
    assert {"cli", "errors", "training", "__init__"} <= set(MODULES)
