"""Every count, rate and flag of the Python API goes through one of
math_kernels' check_int, check_real and check_bool, which state its rule
in one call.  Each argument below used to be truncated by int(), read for
its truth value, or refused with an untyped error; and no function in
src/ casts one of its own parameters with a bare int(), float() or bool()."""

import ast
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from logistic_lda import math_kernels
from logistic_lda.data_io import corpus_from_groups
from logistic_lda.encoders import Item, forward_logits_batch, init_params
from logistic_lda.errors import ContractError, DomainError
from logistic_lda.evaluation import confusion_matrix, evaluation_report, top_items_per_topic
from logistic_lda.lda_baseline import (
    disjoint_topic_matrix,
    generate_corpus,
    gibbs_init,
    sample_corpus,
)
from logistic_lda.math_kernels import SeededRng
from logistic_lda.mean_field import Group, HyperParams, batch_mean_field, flatten_groups
from logistic_lda.regularizer import RegularizerState, default_gamma, update_running_estimate
from logistic_lda.training import predict_corpus

SRC = Path(__file__).resolve().parents[1] / "src" / "logistic_lda"


def _groups():
    return [Group(id="a", items=[Item(token=0), Item(token=2)], label=0),
            Group(id="b", items=[Item(token=1)], label=1)]


def _model():
    return init_params("table", (2, 3), 0.1, SeededRng(0)), HyperParams(alpha=np.ones(2))


def _batch_mean_field(**kw):
    flat = flatten_groups(_groups())
    theta, hyper = _model()
    args = {"clamp_labels": False, "max_sweeps": 3, "tol": 0.0, **kw}
    return batch_mean_field(forward_logits_batch(flat.payload, theta), flat, hyper,
                            args.pop("clamp_labels"), args.pop("max_sweeps"), **args)


def _top_items(**kw):
    theta, hyper = _model()
    return top_items_per_topic(corpus_from_groups(_groups(), 2), theta, hyper,
                               **{"n": 2, **kw})


def _generate(labeled):
    return generate_corpus(2, 4, 3, 5, np.ones(2), disjoint_topic_matrix(2, 4), SeededRng(0),
                           labeled=labeled)


def _sample(K=2, V=4, D=3, N_per_doc=5, labeled=False):
    return sample_corpus(K, V, D, N_per_doc, np.ones(2), disjoint_topic_matrix(2, 4),
                         SeededRng(0), labeled=labeled)


class Arg(NamedTuple):
    name: str             # the name the error message starts with
    call: Callable        # call(value) runs the function with the argument set to value
    wrong: tuple          # values of a wrong type: ContractError
    outside: tuple = ()   # (value, error) pairs out of range
    boundary: tuple = ()  # values at the edge of the rule, accepted


NOT_INT = (2.5, 2.9, 3.0, "3", True)  # and None, where it picks no default
NOT_BOOL = ("no", "", 0, 1, None, np.int64(1))
BOOLS = (True, False, np.True_)

ARGS = {
    "corpus_from_groups:vocab_size": Arg(
        "vocab_size", lambda v: corpus_from_groups(_groups(), 2, vocab_size=v),
        NOT_INT, ((0, ContractError), (-1, ContractError)), (3, np.int64(3))),
    "gibbs_init:V": Arg(
        "V", lambda v: gibbs_init(flatten_groups(_groups()), 2, 0.1, SeededRng(0), V=v),
        (3.9, *NOT_INT), ((0, ContractError),), (3, np.uint8(3))),
    "batch_mean_field:max_sweeps": Arg(
        "max_sweeps", lambda v: _batch_mean_field(max_sweeps=v),
        (*NOT_INT, None), ((0, ContractError), (-3, ContractError)), (1, np.int32(1))),
    "batch_mean_field:tol": Arg(
        "tol", lambda v: _batch_mean_field(tol=v),
        ("x", None, True, 1j),
        ((-1.0, DomainError), (-5e-324, DomainError), (np.nan, DomainError),
         (np.inf, DomainError)),
        (0.0, 0, 5e-324, np.float32(1e-6))),
    "batch_mean_field:clamp_labels": Arg(
        "clamp_labels", lambda v: _batch_mean_field(clamp_labels=v), NOT_BOOL, (), BOOLS),
    "predict_corpus:converged": Arg(
        "converged", lambda v: predict_corpus(flatten_groups(_groups()), *_model(), converged=v),
        NOT_BOOL, (), BOOLS),
    "top_items_per_topic:converged": Arg(
        "converged", lambda v: _top_items(converged=v), NOT_BOOL, (), BOOLS),
    "top_items_per_topic:n": Arg(
        "n", lambda v: _top_items(n=v), (1.5, *NOT_INT, None), ((-1, ContractError),),
        (0, np.int64(2))),
    "disjoint_topic_matrix:K": Arg(
        "K", lambda v: disjoint_topic_matrix(v, 4), (*NOT_INT, None), ((0, ContractError),),
        (1, np.int64(4))),
    "disjoint_topic_matrix:V": Arg(
        "V", lambda v: disjoint_topic_matrix(3, v), (4.5, *NOT_INT, None), ((2, ContractError),),
        (3, np.int64(3))),
    "evaluation_report:K": Arg(
        "K", lambda v: evaluation_report(pred_groups=[0, 0], true_groups=[0, 0], K=v),
        (*NOT_INT, None), ((0, ContractError),), (1, np.int64(2))),
    "confusion_matrix:K": Arg(
        "K", lambda v: confusion_matrix([0, 0], [0, 0], v),
        (*NOT_INT, None), ((0, ContractError),), (1, np.int64(2))),
    "default_gamma:num_items": Arg(
        "num_items", default_gamma, (*NOT_INT, None), ((0, ContractError),),
        (1, np.int64(3))),
    "update_running_estimate:total_items": Arg(
        "total_items", lambda v: update_running_estimate(RegularizerState(), np.zeros((4, 2)), v),
        (4.5, *NOT_INT, None), ((3, ContractError),), (4, np.int64(4))),
    "generate_corpus:labeled": Arg("labeled", _generate, NOT_BOOL, (), BOOLS),
    "generate_corpus:K": Arg(
        "K", lambda v: generate_corpus(v, 4, 3, 5, np.ones(2), disjoint_topic_matrix(2, 4),
                                       SeededRng(0)),
        (2.0, *NOT_INT, None), ((0, ContractError), (-2, ContractError)), (np.int64(2),)),
    "generate_corpus:V": Arg(
        "V", lambda v: generate_corpus(2, v, 3, 5, np.ones(2), disjoint_topic_matrix(2, 4),
                                       SeededRng(0)),
        (4.0, *NOT_INT, None), ((0, ContractError),), (np.uint8(4),)),
    "sample_corpus:K": Arg(
        "K", lambda v: _sample(K=v), (2.0, *NOT_INT, None),
        ((0, ContractError), (-2, ContractError)), (np.int64(2),)),
    "sample_corpus:V": Arg(
        "V", lambda v: _sample(V=v), (4.0, *NOT_INT, None), ((0, ContractError),),
        (np.uint8(4),)),
    "sample_corpus:D": Arg(
        "D", lambda v: _sample(D=v), (*NOT_INT, None), ((0, ContractError),),
        (1, np.int32(3))),
    "sample_corpus:N_per_doc": Arg(
        "N_per_doc", lambda v: _sample(N_per_doc=v), (*NOT_INT, None),
        ((0, ContractError),), (1, np.int64(5))),
    "sample_corpus:labeled": Arg(
        "labeled", lambda v: _sample(labeled=v), NOT_BOOL, (), BOOLS),
}


@pytest.mark.parametrize("arg", ARGS.values(), ids=ARGS.keys())
def test_argument_keeps_its_rule(arg):
    wrong_type = rf"^{arg.name} must be an? (integer|number|bool), got "
    for value in arg.wrong:
        with pytest.raises(ContractError, match=wrong_type):
            arg.call(value)
    for value, error in arg.outside:
        with pytest.raises(error, match=rf"^{arg.name} must be "):
            arg.call(value)
    for value in arg.boundary:
        arg.call(value)


def test_checked_counts_keep_their_value():
    assert corpus_from_groups(_groups(), 2, vocab_size=np.int64(7)).payload.size == 7
    assert type(corpus_from_groups(_groups(), 2, vocab_size=np.int64(7)).payload.size) is int
    assert gibbs_init(flatten_groups(_groups()), 2, 0.1, SeededRng(0), V=5).n_kv.shape == (2, 5)
    assert _batch_mean_field(max_sweeps=np.int64(2))[3] == 2
    assert [len(row) for row in _top_items(n=np.int64(1))] == [1, 1]
    assert default_gamma(np.int64(3)) == 12.0
    labeled, _ = _generate(np.True_)
    assert [g.label is not None for g in labeled] == [True] * 3
    assert [g.label for g in _generate(False)[0]] == [None] * 3


def test_a_numpy_total_gives_the_same_estimate():
    g = np.log(np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]))
    _, a = update_running_estimate(RegularizerState(), g, 10)
    _, b = update_running_estimate(RegularizerState(), g, np.int64(10))
    np.testing.assert_array_equal(a, b)


class TestCheckInt:
    def test_a_python_int_is_returned_as_the_same_object(self):
        value = 10 ** 30
        assert math_kernels.check_int(value, "x") is value
        assert math_kernels.check_int(value, "x", 0) is value

    @pytest.mark.parametrize("value", [np.int64(5), np.uint8(5), np.int8(5)])
    def test_numpy_integers_become_int(self, value):
        out = math_kernels.check_int(value, "x", 5)
        assert (type(out), out) == (int, 5)

    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, np.float64(2.0), "2", None,
                                       1j])
    def test_other_types_are_refused(self, value):
        with pytest.raises(ContractError, match=r"^x must be an integer, got "):
            math_kernels.check_int(value, "x")

    @pytest.mark.parametrize("value, low", [(-1, 0), (np.int64(-1), 0), (2, 3), (-10 ** 30, -1)])
    def test_a_value_below_low_is_refused(self, value, low):
        with pytest.raises(ContractError, match=rf"^x must be an integer >= {low}, got {value}$"):
            math_kernels.check_int(value, "x", low)

    def test_low_itself_is_accepted(self):
        assert math_kernels.check_int(-3, "x", -3) == -3


class TestCheckReal:
    @pytest.mark.parametrize("interval, inside, outside", [
        ("[0, 1)", [0, 0.0, -0.0, 0.5, np.nextafter(1.0, 0.0)], [1, 1.0, -5e-324]),
        ("(0, 1]", [5e-324, 1, 1.0], [0, 0.0, -0.0, np.nextafter(1.0, 2.0)]),
        ("(0, inf)", [5e-324, 1e308], [0.0, -1.0]),
        ("[-1, 1]", [-1, 1.0], [-1.5, 1.5]),
        ("(-inf, inf)", [-1e308, 0, 1e308], []),
    ])
    def test_interval_ends(self, interval, inside, outside):
        for value in inside:
            assert math_kernels.check_real(value, "x", interval) == value
        for value in [*outside, np.nan, np.inf, -np.inf]:
            with pytest.raises(DomainError,
                               match=rf"^x must be finite and lie in {re.escape(interval)}, "):
                math_kernels.check_real(value, "x", interval)

    def test_the_default_interval_takes_every_finite_value(self):
        assert math_kernels.check_real(-1e308, "x") == -1e308
        for value in [np.nan, np.inf, -np.inf]:
            with pytest.raises(DomainError, match=r"^x must be finite and lie in \(-inf, inf\)"):
                math_kernels.check_real(value, "x")

    @pytest.mark.parametrize("value, expected", [
        (np.float32(0.5), 0.5), (np.float16(0.25), 0.25), (np.int64(3), 3.0),
        (np.uint8(3), 3.0), (3, 3.0),
    ])
    def test_numpy_scalars_and_ints_become_float(self, value, expected):
        out = math_kernels.check_real(value, "x", "[0, inf)")
        assert (type(out), out) == (float, expected)

    @pytest.mark.parametrize("value", [True, False, np.True_, "1", None, 1j, np.complex128(1)])
    def test_other_types_are_refused(self, value):
        with pytest.raises(ContractError, match=r"^x must be a number, got "):
            math_kernels.check_real(value, "x", "[0, inf)")

    @pytest.mark.parametrize("interval", ["(-inf, inf)", "[0, inf)"])
    def test_an_int_beyond_the_float_range_is_refused(self, interval):
        with pytest.raises(ContractError, match=r"^x 1000+ is beyond the float range$"):
            math_kernels.check_real(10 ** 400, "x", interval)


class TestCheckBool:
    @pytest.mark.parametrize("value, expected", [(True, True), (False, False),
                                                 (np.True_, True), (np.bool_(False), False)])
    def test_bools_become_bool(self, value, expected):
        out = math_kernels.check_bool(value, "x")
        assert (type(out), out) == (bool, expected)

    @pytest.mark.parametrize("value", [0, 1, "no", "", None, np.int64(1), 1.0, [True]])
    def test_other_types_are_refused(self, value):
        with pytest.raises(ContractError, match=r"^x must be a bool, got "):
            math_kernels.check_bool(value, "x")


# ---------------------------------------------------------------------------
# no bare cast of a parameter

CASTS = {"int", "float", "bool"}
HELPERS = {"check_int", "check_real", "check_bool"}


def parameter_casts(source, filename):
    """`file:line cast(name)` for each bare int()/float()/bool() call on a
    parameter of the function it sits in.  math_kernels' three checks and
    cli.py's argparse `type=` converters are where such casts belong."""
    tree = ast.parse(source, filename)
    allowed = HELPERS if filename == "math_kernels.py" else set()
    if filename == "cli.py":
        allowed = {kw.value.id for node in ast.walk(tree) if isinstance(node, ast.Call)
                   for kw in node.keywords if kw.arg == "type" and isinstance(kw.value, ast.Name)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if getattr(fn, "name", None) in allowed:
            continue
        a = fn.args
        params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in CASTS and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                found.append(f"{filename}:{node.lineno} {node.func.id}({node.args[0].id})")
    return sorted(set(found))


def test_no_function_casts_its_own_parameter():
    found = [cast for path in sorted(SRC.glob("*.py"))
             for cast in parameter_casts(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_scan_sees_a_cast_and_only_a_cast():
    source = (
        "def f(a, *rest, b=1, **kw):\n"
        "    return int(a), float(b), bool(kw), int(rest), int(a.x), int(len(a))\n"
        "def check_int(value):\n"
        "    return int(value)\n"
        "g = lambda v: float(v)\n"
    )
    assert parameter_casts(source, "m.py") == [
        "m.py:2 bool(kw)", "m.py:2 float(b)", "m.py:2 int(a)", "m.py:2 int(rest)",
        "m.py:4 int(value)", "m.py:5 float(v)"]
    assert parameter_casts(source, "math_kernels.py") == [
        "math_kernels.py:2 bool(kw)", "math_kernels.py:2 float(b)", "math_kernels.py:2 int(a)",
        "math_kernels.py:2 int(rest)", "math_kernels.py:5 float(v)"]
    converter = "import argparse\ndef width(t):\n    return int(t)\np = argparse.ArgumentParser()\n"
    converter += "p.add_argument('--w', type=width)\n"
    assert parameter_casts(converter, "cli.py") == []
    assert parameter_casts(converter, "other.py") == ["other.py:3 int(t)"]
