import argparse
import ctypes
import json
import platform
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from logistic_lda import cli, mean_field, training
from logistic_lda.cli import _BOOL_KEYS, _build_parser, _inject_config, run_cli
from logistic_lda.data_io import (
    Corpus,
    PayloadSpec,
    load_checkpoint,
    load_corpus,
    read_predictions,
    save_corpus,
)
from logistic_lda.encoders import Item
from logistic_lda.math_kernels import SeededRng
from logistic_lda.mean_field import FlatGroups

from oracles import reference_mean_field_batch


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def tiny_corpus(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    code, _, _ = run(capsys, "gen", "--k", "3", "--v", "9", "--docs", "12", "--len", "8",
                     "--seed", "7", "--labeled", "-o", str(path))
    assert code == 0
    return path


class TestGen:
    def test_smoke_writes_corpus_and_truth(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        code, stdout, _ = run(capsys, "gen", "--k", "5", "--v", "100", "--docs", "50",
                              "--len", "40", "--seed", "7", "-o", str(out))
        assert code == 0
        assert out.exists() and (tmp_path / "c.jsonl.truth").exists()
        info = json.loads(stdout.strip().splitlines()[-1])
        assert info["groups"] == 50 and info["items"] == 2000
        corpus = load_corpus(out)
        assert corpus.num_topics == 5
        assert corpus.payload.size == 100

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (a, b):
            code, _, _ = run(capsys, "gen", "--k", "2", "--v", "6", "--docs", "4",
                             "--len", "5", "--seed", "3", "-o", str(p))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--k", "2")
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--zebra", "1")
        assert code == 1
        assert "usage" in err

    @pytest.mark.parametrize("truth", ["c.jsonl", "./sub/../c.jsonl", "link.jsonl"])
    def test_truth_at_the_corpus_path_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     truth):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "c.jsonl")
        code, out, err = run(capsys, "gen", "--k", "2", "--v", "4", "--docs", "3", "--len", "2",
                             "-o", "c.jsonl", "--truth", truth)
        assert code == 1
        assert out == ""
        assert f"--truth {truth} and -o c.jsonl" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "sub"]


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_subcommand_help_exits_zero(self, capsys):
        assert run(capsys, "train", "--help")[0] == 0

    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys)[0] == 1


class TestTrainInferEval:
    def test_pipeline(self, tmp_path, tiny_corpus, capsys):
        model = tmp_path / "m.ckpt"
        code, stdout, err = run(
            capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
            "--mode", "variational", "--epochs", "3", "--lr", "0.05",
            "--gamma", "0.02", "--seed", "1", "--quiet",
        )
        assert code == 0, err
        assert model.exists()
        cp = load_checkpoint(model)
        assert cp.params.kind == "table"
        assert cp.provenance["mode"] == "variational"
        assert cp.reg_state is not None  # gamma > 0 tracked a running average

        preds = tmp_path / "p.jsonl"
        code, _, err = run(capsys, "infer", "--corpus", str(tiny_corpus),
                           "--model", str(model), "-o", str(preds))
        assert code == 0, err
        ids, labels, PL, P = read_predictions(preds)
        assert len(ids) == 12
        assert all(0 <= l < 3 for l in labels)

        code, stdout, err = run(capsys, "eval", "--corpus", str(tiny_corpus),
                                "--model", str(model),
                                "--truth", str(tiny_corpus) + ".truth")
        assert code == 0, err
        report = json.loads(stdout.strip().splitlines()[-1])
        assert 0.0 <= report["group_accuracy"] <= 1.0
        assert 0.0 <= report["matched_item_accuracy"] <= 1.0
        assert sum(report["topic_usage"]) == 96

    def test_discriminative_mode(self, tmp_path, tiny_corpus, capsys):
        model = tmp_path / "m.ckpt"
        code, _, err = run(
            capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
            "--mode", "discriminative", "--epochs", "3", "--lr", "0.05",
            "--n-iter", "3", "--quiet",
        )
        assert code == 0, err
        assert load_checkpoint(model).provenance["mode"] == "discriminative"

    def test_topics_output(self, tmp_path, tiny_corpus, capsys):
        model = tmp_path / "m.ckpt"
        run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
            "--epochs", "2", "--quiet")
        code, stdout, err = run(capsys, "topics", "--corpus", str(tiny_corpus),
                                "--model", str(model), "-n", "4")
        assert code == 0, err
        lines = stdout.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("topic 0:")

    @pytest.mark.parametrize("k,v", [(5, 9), (3, 12)], ids=["other-k", "other-vocabulary"])
    def test_eval_corpus_of_another_shape_is_data_error(self, tmp_path, tiny_corpus, capsys,
                                                        k, v):
        held = tmp_path / "held.jsonl"
        run(capsys, "gen", "--k", str(k), "--v", str(v), "--docs", "4", "--len", "5",
            "--labeled", "-o", str(held))
        model, metrics = tmp_path / "m.ckpt", tmp_path / "metrics.jsonl"
        code, _, err = run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
                           "--eval-corpus", str(held), "--metrics", str(metrics),
                           "--epochs", "1", "--quiet")
        assert code == 2
        assert "eval corpus has" in err
        assert not metrics.exists() and not model.exists()  # refused before the first epoch

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--corpus", str(tmp_path / "nope.jsonl"),
                           "-o", str(tmp_path / "m.ckpt"), "--quiet")
        assert code == 2
        assert "error" in err

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"corpus","version":1,"k":2,"payload":{"token":3}}\nnot json\n')
        code, _, err = run(capsys, "train", "--corpus", str(bad),
                           "-o", str(tmp_path / "m.ckpt"), "--quiet")
        assert code == 2
        assert "line 2" in err

    def test_bad_base64_in_version_2_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"corpus","version":2,"k":2,"payload":{"dense":2}}\n'
                       '{"id":"a","items":"AAAAAAAAAAAAAAAAAAAAAA=="}\n'
                       '{"id":"b","items":"AAAA*AAA"}\n')
        model = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--corpus", str(bad), "-o", str(model), "--quiet")
        assert code == 2
        assert "line 3: items are not base64" in err
        assert "Traceback" not in err
        assert not model.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_exit_code(self, tmp_path, capsys):
        # large dense inputs + tiny init + absurd lr overflow the weights
        dense = tmp_path / "d.jsonl"
        dense.write_text(
            '{"format":"corpus","version":1,"k":2,"payload":{"dense":3}}\n'
            '{"id":"a","items":[[61.0,88.5,70.2],[93.1,55.7,64.9],[77.3,82.0,58.4]]}\n'
        )
        code, _, err = run(
            capsys, "train", "--corpus", str(dense), "-o", str(tmp_path / "m.ckpt"),
            "--mode", "variational", "--epochs", "5", "--optimizer", "sgd",
            "--lr", "1e308", "--init-scale", "0.01", "--e-step-sweeps", "2",
            "--hidden", "", "--quiet",
        )
        assert code == 3
        assert "diverged" in err

    @pytest.mark.parametrize("command", ["eval", "gibbs"])
    def test_malformed_truth_is_data_error(self, tmp_path, tiny_corpus, capsys, command):
        model = tmp_path / "m.ckpt"
        run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
            "--epochs", "1", "--quiet")
        truth = tmp_path / "bad.truth"
        lines = (tmp_path / "c.jsonl.truth").read_text().splitlines()
        rec = json.loads(lines[1])
        rec["pi"] = ["x", 0.5, 0.5]
        truth.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
        argv = ["--corpus", str(tiny_corpus), "--truth", str(truth)]
        if command == "eval":
            argv += ["--model", str(model)]
        else:
            argv += ["--burn-in", "1", "--samples", "1"]
        code, _, err = run(capsys, command, *argv)
        assert code == 2
        assert "line 2: pi must be 3 numbers" in err
        assert "Traceback" not in err

    def test_checkpoint_without_hyper_is_data_error(self, tmp_path, tiny_corpus, capsys,
                                                    save_with_meta):
        model = tmp_path / "m.ckpt"
        run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
            "--epochs", "1", "--quiet")
        save_with_meta(model, load_checkpoint(model), lambda m: m.pop("hyper"))
        code, _, err = run(capsys, "infer", "--corpus", str(tiny_corpus),
                           "--model", str(model), "-o", str(tmp_path / "p.jsonl"))
        assert code == 2
        assert "malformed meta section" in err
        assert "Traceback" not in err

    def test_checkpoint_table_not_alpha_shaped_is_data_error(self, tmp_path, tiny_corpus,
                                                            capsys, save_with_meta):
        model = tmp_path / "m.ckpt"
        run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
            "--epochs", "1", "--quiet")
        # the (3, 9) table's manifest shape read as (9, 3)
        save_with_meta(model, load_checkpoint(model),
                       lambda m: m["arrays"][1][1].reverse())
        code, _, err = run(capsys, "eval", "--corpus", str(tiny_corpus), "--model", str(model))
        assert code == 2
        assert "table shape (9, 3) needs 3 rows" in err
        assert "Traceback" not in err

    def test_config_file_with_flag_override(self, tmp_path, tiny_corpus, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=2\nlr=0.01\nquiet=true\n# comment\nclamp=false\n")
        model = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--corpus", str(tiny_corpus),
                           "-o", str(model), "--config", str(cfg), "--epochs", "1")
        assert code == 0, err
        assert load_checkpoint(model).provenance["epochs"] == 1  # flag beat config

    def test_non_utf8_corpus_is_data_error(self, tmp_path, tiny_corpus, capsys):
        model = tmp_path / "m.ckpt"
        run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
            "--epochs", "1", "--quiet")
        lines = tiny_corpus.read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1][1:]
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines))
        code, _, err = run(capsys, "eval", "--corpus", str(bad), "--model", str(model))
        assert code == 2
        assert "line 2: not UTF-8" in err
        assert "Traceback" not in err

    def test_non_utf8_config_is_usage_error(self, tmp_path, tiny_corpus, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"epochs=2\n\xfflr=0.01\n")
        code, _, err = run(capsys, "train", "--corpus", str(tiny_corpus),
                           "-o", str(tmp_path / "m.ckpt"), "--config", str(cfg))
        assert code == 1
        assert "not UTF-8" in err

    def test_hidden_widths_not_integers_is_usage_error(self, tmp_path, capsys):
        dense = tmp_path / "d.jsonl"
        dense.write_text(
            '{"format":"corpus","version":1,"k":2,"payload":{"dense":2}}\n'
            '{"id":"a","items":[[0.1,0.2]]}\n'
        )
        code, _, err = run(capsys, "train", "--corpus", str(dense), "-o",
                           str(tmp_path / "m.ckpt"), "--encoder", "mlp", "--hidden", "abc")
        assert code == 1
        assert "--hidden" in err and "usage" in err

    def test_config_before_subcommand_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("epochs=1\n")
        code, _, _ = run(capsys, "--config", str(cfg), "train")
        assert code == 1


class TestTrainComputesWhatItWrites:
    """The per-epoch ELBO and held-out score run only where the epoch records
    are written: to stdout without --quiet, or to --metrics."""

    EPOCHS = 3

    def train_counting(self, tmp_path, tiny_corpus, capsys, monkeypatch, *flags):
        calls = {"elbo": 0, "eval": 0}
        for key, name in (("elbo", "_corpus_elbo"), ("eval", "_eval_accuracy")):
            def counted(*args, _key=key, _fn=getattr(training, name), **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(training, name, counted)
        model = tmp_path / "m.ckpt"
        code, stdout, err = run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
                                "--eval-corpus", str(tiny_corpus), "--epochs", str(self.EPOCHS),
                                "--gamma", "auto", "--seed", "3", *flags)
        assert code == 0, err
        monkeypatch.undo()
        return calls, model.read_bytes(), stdout.splitlines()

    def test_records_nobody_reads_cost_nothing(self, tmp_path, tiny_corpus, capsys,
                                               monkeypatch):
        metrics = tmp_path / "metrics.jsonl"
        runs = {flags: self.train_counting(tmp_path, tiny_corpus, capsys, monkeypatch, *flags)
                for flags in [("--quiet",), ("--quiet", "--metrics", str(metrics)), ()]}
        quiet, written, printed = runs.values()
        assert quiet[0] == {"elbo": 0, "eval": 0}
        assert written[0] == printed[0] == {"elbo": self.EPOCHS, "eval": self.EPOCHS}
        # the same checkpoint bytes and summary line in all three runs
        assert quiet[1] == written[1] == printed[1]
        assert quiet[2] == written[2] == printed[2][-1:]
        records = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert records == [json.loads(line) for line in printed[2][:-1]]
        assert all("elbo" in r and "eval_accuracy" in r for r in records)

    @pytest.mark.parametrize("quiet", [("--quiet",), ()], ids=["quiet", "verbose"])
    def test_mismatched_eval_corpus_refused_under_quiet(self, tmp_path, tiny_corpus, capsys,
                                                        quiet):
        held = tmp_path / "held.jsonl"
        run(capsys, "gen", "--k", "5", "--v", "9", "--docs", "4", "--len", "5",
            "--labeled", "-o", str(held))
        model = tmp_path / "m.ckpt"
        code, out, err = run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
                             "--eval-corpus", str(held), "--epochs", "1", *quiet)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: eval corpus has K=5 and PayloadSpec(kind='token', size=9), the training "
            "corpus K=3 and PayloadSpec(kind='token', size=9)"]
        assert not model.exists()


class TestConfigFile:
    @pytest.mark.parametrize("value, flag", [
        ("1", "--labeled"), ("true", "--labeled"), ("YES", "--labeled"), ("On", "--labeled"),
        ("0", "--no-labeled"), ("False", "--no-labeled"), ("no", "--no-labeled"),
        ("OFF", "--no-labeled")])
    def test_boolean_words(self, tmp_path, value, flag):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"labeled = {value}\n")
        assert _inject_config(["gen", "--config", str(cfg)]) == ["gen", flag]

    @pytest.mark.parametrize("value", ["ture", "", "2", "y", "true false"])
    def test_other_boolean_values_are_usage_errors(self, tmp_path, capsys, value):
        # labeled=ture and labeled= used to become --no-labeled
        cfg, out = tmp_path / "gen.cfg", tmp_path / "c.jsonl"
        cfg.write_text(f"# labels\nlabeled={value}\n")
        code, _, err = run(capsys, "gen", "--k", "2", "--v", "4", "--docs", "2", "--len", "2",
                           "-o", str(out), "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:2: labeled takes 1/0, true/false, yes/no or on/off" in err
        assert not out.exists()

    def test_boolean_keys_are_the_boolean_flags(self):
        # every --x/--no-x flag of every subcommand, and nothing else
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt[2:] for p in sub.choices.values() for a in p._actions
                 if isinstance(a, argparse.BooleanOptionalAction)
                 for opt in a.option_strings if not opt.startswith("--no-")}
        assert flags == _BOOL_KEYS


class TestNoItemObjects:
    def test_commands_build_no_item(self, tmp_path, tiny_corpus, capsys, monkeypatch):
        """Between the corpus file and the kernels every command works on
        the packed arrays: none of them builds an Item."""
        def refuse(self):
            raise AssertionError("an Item was built")

        monkeypatch.setattr(Item, "__post_init__", refuse)
        c, truth, model = str(tiny_corpus), str(tiny_corpus) + ".truth", str(tmp_path / "m.ckpt")
        for argv in (
            ["train", "--corpus", c, "-o", model, "--epochs", "1", "--eval-corpus", c, "--quiet"],
            ["eval", "--corpus", c, "--model", model, "--truth", truth],
            ["infer", "--corpus", c, "--model", model, "-o", str(tmp_path / "p.jsonl")],
            ["topics", "--corpus", c, "--model", model, "-n", "3"],
            ["gibbs", "--corpus", c, "--burn-in", "1", "--samples", "1", "--truth", truth],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv[0], err)


class TestGibbsCommand:
    def test_gibbs_on_token_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        run(capsys, "gen", "--k", "2", "--v", "8", "--docs", "10", "--len", "12",
            "--seed", "5", "-o", str(corpus))
        code, stdout, err = run(
            capsys, "gibbs", "--corpus", str(corpus), "--burn-in", "50",
            "--samples", "50", "--seed", "1", "--truth", str(corpus) + ".truth",
        )
        assert code == 0, err
        report = json.loads(stdout.strip().splitlines()[-1])
        assert 0.0 <= report["matched_item_accuracy"] <= 1.0

    def test_gibbs_rejects_dense_corpus(self, tmp_path, capsys):
        dense = tmp_path / "d.jsonl"
        dense.write_text(
            '{"format":"corpus","version":1,"k":2,"payload":{"dense":2}}\n'
            '{"id":"a","items":[[0.1,0.2]]}\n'
        )
        code, _, err = run(capsys, "gibbs", "--corpus", str(dense))
        assert code == 2
        assert "token corpus" in err


class TestFlagDomains:
    @pytest.mark.parametrize("argv", [
        ["train", "--gamma", "nan"],
        ["train", "--lam", "nan"],
        ["train", "--lam", "inf"],
        ["train", "--init-scale", "-1"],
        ["train", "--init-scale", "nan"],
        ["train", "--optimizer", "momentum", "--momentum", "nan"],
        ["gibbs", "--eta", "nan"],
        ["gibbs", "--eta", "inf"],
        ["gibbs", "--label-weight", "nan"],
        ["gen", "--beta", "random", "--beta-concentration", "-1"],
        ["gen", "--beta", "random", "--beta-concentration", "0"],
        ["gen", "--beta", "random", "--beta-concentration", "nan"],
        ["gen", "--beta", "random", "--k", "-1"],
        ["gen", "--beta", "random", "--v", "-1"],
        ["gen", "--alpha", "nan"],
        ["gen", "--alpha", "-1"],
        ["gen", "--beta", "random", "--alpha", "0"],
        ["train", "--alpha", "nan"],
        ["train", "--alpha", "-1"],
        ["gibbs", "--alpha", "nan"],
        ["gibbs", "--alpha", "-1"],
    ], ids=" ".join)
    def test_out_of_domain_flag_is_data_error(self, tmp_path, tiny_corpus, capsys, argv):
        out = tmp_path / "out"
        base = {
            "gen": ["--k", "3", "--v", "9", "--docs", "4", "--len", "5", "-o", str(out)],
            "train": ["--corpus", str(tiny_corpus), "-o", str(out), "--epochs", "1", "--quiet"],
            "gibbs": ["--corpus", str(tiny_corpus), "--burn-in", "1", "--samples", "1"],
        }[argv[0]]
        # the case's own flags come last, so they override the base ones
        code, stdout, err = run(capsys, argv[0], *base, *argv[1:])
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert stdout == "" and not out.exists()
        for flag in ("--alpha", "--beta-concentration"):
            if flag in argv:
                assert flag in err


@pytest.fixture(scope="module")
def failure_files(tmp_path_factory):
    """What the failure cases name: a labeled token corpus c.jsonl and a
    model m.ckpt trained on it, a held-out corpus h.jsonl of its shape, a
    smaller corpus s.jsonl (each with its truth sidecar), an earlier
    metrics file x.jsonl, a link to the model, a config file t.cfg, a
    directory sub, and broken inputs."""
    root = tmp_path_factory.mktemp("failures")
    for name, seed, docs in (("c.jsonl", "7", "12"), ("h.jsonl", "8", "12"), ("s.jsonl", "9", "5")):
        assert run_cli(["gen", "--k", "3", "--v", "9", "--docs", docs, "--len", "8",
                        "--seed", seed, "--labeled", "-o", str(root / name)]) == 0
    assert run_cli(["train", "--corpus", str(root / "c.jsonl"), "-o", str(root / "m.ckpt"),
                    "--epochs", "1", "--quiet"]) == 0
    model = (root / "m.ckpt").read_bytes()
    (root / "corrupt.ckpt").write_bytes(b"XXXX" + model[4:])
    (root / "v2.ckpt").write_bytes(model[:4] + struct.pack("<I", 2) + model[8:])
    (root / "link.ckpt").symlink_to("m.ckpt")
    (root / "x.jsonl").write_text('{"epoch": 0}\n')
    (root / "bad.jsonl").write_text(
        '{"format":"corpus","version":1,"k":2,"payload":{"token":3}}\nnot json\n')
    (root / "bad.cfg").write_text("epochs=1\noops\n")
    (root / "t.cfg").write_text("epochs=1\n")
    (root / "d.jsonl").write_text(  # diverges as in test_divergence_exit_code
        '{"format":"corpus","version":1,"k":2,"payload":{"dense":3}}\n'
        '{"id":"a","items":[[61.0,88.5,70.2],[93.1,55.7,64.9],[77.3,82.0,58.4]]}\n')
    (root / "sub").mkdir()
    return root


def _snapshot(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


TRAIN = ("train", "--corpus", "c.jsonl", "--quiet")
INFER = ("infer", "--corpus", "c.jsonl", "--model", "m.ckpt")
GEN = ("gen", "--k", "2", "--v", "4", "--docs", "3", "--len", "2")


class TestFailureExits:
    """Each kind of failure: its exit code and the first line on stderr.  A
    refused command writes nothing, and leaves every file as it was."""

    CASES = [
        ("argparse", ("gen", "--k", "2"), 1,
         "usage: logistic-lda gen [-h] --k K --v V --docs DOCS --len DOC_LEN"),
        ("config-file", (*TRAIN, "-o", "n.ckpt", "--config", "bad.cfg"), 1,
         "error: bad.cfg:2: expected key=value, got 'oops'"),
        ("gen-same-path", ("gen", "--k", "2", "--v", "4", "--docs", "3", "--len", "2",
                           "-o", "g.jsonl", "--truth", "g.jsonl"), 1,
         "error: --truth g.jsonl and -o g.jsonl name the same file"),
        ("malformed-corpus", ("train", "--corpus", "bad.jsonl", "-o", "n.ckpt"), 2,
         "error: line 2: invalid JSON (Expecting value)"),
        ("corrupt-checkpoint", ("eval", "--corpus", "c.jsonl", "--model", "corrupt.ckpt"), 2,
         "error: bad magic bytes; not a checkpoint file"),
        ("checkpoint-version", ("eval", "--corpus", "c.jsonl", "--model", "v2.ckpt"), 2,
         "error: checkpoint version 2; this build reads 1"),
        ("contract", ("gibbs", "--corpus", "d.jsonl"), 2,
         "error: the Gibbs baseline needs a token corpus"),
        ("domain", (*TRAIN, "-o", "n.ckpt", "--alpha", "-1"), 2,
         "error: --alpha must be finite and lie in (0, inf), got -1.0"),
        ("missing-input", ("infer", "--corpus", "nope.jsonl", "--model", "m.ckpt",
                           "-o", "p.jsonl"), 2,
         "error: [Errno 2] No such file or directory: 'nope.jsonl'"),
        ("divergence", ("train", "--corpus", "d.jsonl", "-o", "n.ckpt", "--epochs", "5",
                        "--optimizer", "sgd", "--lr", "1e308", "--init-scale", "0.01",
                        "--e-step-sweeps", "2", "--hidden", "", "--quiet"), 3,
         "training diverged: epoch 0, groups 0..1: parameters overflowed after update"),
        # an output path that names another file of its command
        ("train-out-corpus", (*TRAIN, "-o", "c.jsonl"), 1,
         "error: -o c.jsonl and --corpus c.jsonl name the same file"),
        ("train-out-metrics", (*TRAIN, "-o", "x.jsonl", "--metrics", "x.jsonl"), 1,
         "error: -o x.jsonl and --metrics x.jsonl name the same file"),
        ("train-out-eval-corpus", (*TRAIN, "--eval-corpus", "h.jsonl", "-o", "h.jsonl"), 1,
         "error: -o h.jsonl and --eval-corpus h.jsonl name the same file"),
        ("train-metrics-corpus", (*TRAIN, "-o", "n.ckpt", "--metrics", "c.jsonl"), 1,
         "error: --metrics c.jsonl and --corpus c.jsonl name the same file"),
        ("train-metrics-eval-corpus", (*TRAIN, "--eval-corpus", "h.jsonl", "-o", "n.ckpt",
                                       "--metrics", "./sub/../h.jsonl"), 1,
         "error: --metrics ./sub/../h.jsonl and --eval-corpus h.jsonl name the same file"),
        ("infer-out-corpus", (*INFER, "-o", "c.jsonl"), 1,
         "error: -o c.jsonl and --corpus c.jsonl name the same file"),
        ("infer-out-model", (*INFER, "-o", "m.ckpt"), 1,
         "error: -o m.ckpt and --model m.ckpt name the same file"),
        ("infer-out-model-link", (*INFER, "-o", "link.ckpt"), 1,
         "error: -o link.ckpt and --model m.ckpt name the same file"),
        ("train-out-config", (*TRAIN, "-o", "t.cfg", "--config", "t.cfg"), 1,
         "error: -o t.cfg and --config t.cfg name the same file"),
        ("train-metrics-config", (*TRAIN, "-o", "n.ckpt", "--metrics", "./sub/../t.cfg",
                                  "--config=t.cfg"), 1,
         "error: --metrics ./sub/../t.cfg and --config t.cfg name the same file"),
        # an output path with no directory to land in, or that is a directory
        ("gen-out-missing-dir", (*GEN, "-o", "nodir/g.jsonl"), 2,
         "error: -o nodir/g.jsonl: its directory does not exist"),
        ("gen-truth-missing-dir", (*GEN, "-o", "g.jsonl", "--truth", "nodir/t"), 2,
         "error: --truth nodir/t: its directory does not exist"),
        ("gen-out-directory", (*GEN, "-o", "sub"), 2,
         "error: -o sub: is a directory"),
        ("train-out-missing-dir", (*TRAIN, "-o", "nodir/m.ckpt"), 2,
         "error: -o nodir/m.ckpt: its directory does not exist"),
        ("train-metrics-missing-dir", (*TRAIN, "-o", "n.ckpt", "--metrics", "nodir/x.jsonl"), 2,
         "error: --metrics nodir/x.jsonl: its directory does not exist"),
        ("train-metrics-directory", (*TRAIN, "-o", "n.ckpt", "--metrics", "sub/"), 2,
         "error: --metrics sub/: is a directory"),
        ("infer-out-missing-dir", (*INFER, "-o", "nodir/p.jsonl"), 2,
         "error: -o nodir/p.jsonl: its directory does not exist"),
        ("infer-out-directory", (*INFER, "-o", "sub"), 2,
         "error: -o sub: is a directory"),
        # an empty output path, refused before any input is read
        ("gen-out-empty", (*GEN, "-o", ""), 2, "error: -o: the path is empty"),
        ("gen-truth-empty", (*GEN, "-o", "g.jsonl", "--truth", ""), 2,
         "error: --truth: the path is empty"),
        ("train-out-empty", ("train", "--corpus", "nope.jsonl", "-o", ""), 2,
         "error: -o: the path is empty"),
        ("train-metrics-empty", ("train", "--corpus", "nope.jsonl", "-o", "n.ckpt",
                                 "--metrics", ""), 2,
         "error: --metrics: the path is empty"),
        ("infer-out-empty", ("infer", "--corpus", "nope.jsonl", "--model", "m.ckpt", "-o", ""), 2,
         "error: -o: the path is empty"),
        # an empty optional input is not an input left out
        ("eval-truth-empty", ("eval", "--corpus", "nope.jsonl", "--model", "m.ckpt",
                              "--truth", ""), 2, "error: --truth: the path is empty"),
        ("train-eval-corpus-empty", ("train", "--corpus", "nope.jsonl", "-o", "n.ckpt",
                                     "--eval-corpus", ""), 2,
         "error: --eval-corpus: the path is empty"),
        ("gibbs-truth-empty", ("gibbs", "--corpus", "nope.jsonl", "--truth", ""), 2,
         "error: --truth: the path is empty"),
    ]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("argv, code, first_line", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_exit_code_and_first_stderr_line(self, failure_files, tmp_path, capsys,
                                             monkeypatch, argv, code, first_line):
        root = tmp_path / "w"
        shutil.copytree(failure_files, root, symlinks=True)
        monkeypatch.chdir(root)
        before = _snapshot(root)
        got, out, err = run(capsys, *argv)
        assert (got, err.splitlines()[0]) == (code, first_line)
        assert out == ""
        assert _snapshot(root) == before

    @pytest.mark.parametrize("truth, first_line", [
        ("nope.truth", "error: [Errno 2] No such file or directory: 'nope.truth'"),
        ("s.jsonl.truth", "error: truth sidecar does not match the corpus"),
    ], ids=["missing", "mismatched"])
    @pytest.mark.parametrize("argv", [("gibbs", "--corpus", "c.jsonl"),
                                      ("eval", "--corpus", "c.jsonl", "--model", "m.ckpt")],
                             ids=["gibbs", "eval"])
    def test_truth_is_read_before_the_work(self, failure_files, capsys, monkeypatch,
                                           argv, truth, first_line):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweeps or the inference ran before the truth was read")

        monkeypatch.setattr(cli, "gibbs_run", no_work)
        monkeypatch.setattr(cli, "predict_corpus", no_work)
        monkeypatch.chdir(failure_files)
        code, out, err = run(capsys, *argv, "--truth", truth)
        assert (code, out, err.splitlines()) == (2, "", [first_line])

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 215. GiB for an array"),
         "error: Unable to allocate 215. GiB for an array"),
        (MemoryError(), "error: MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_line(self, tiny_corpus, tmp_path, capsys, monkeypatch,
                                       exc, line):
        def no_memory(*args):
            raise exc

        monkeypatch.setattr(training, "_unroll_fwd", no_memory)
        model = tmp_path / "m.ckpt"
        code, out, err = run(capsys, "train", "--corpus", str(tiny_corpus), "-o", str(model),
                             "--mode", "discriminative", "--quiet")
        assert (code, out) == (2, "")
        assert err.splitlines() == [line]
        assert not model.exists()


class TestAllocatorPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_sets_the_thresholds_on_glibc(self):
        assert cli._keep_freed_memory() is True

    def test_no_c_library_changes_nothing(self, monkeypatch):
        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert cli._keep_freed_memory() is False

    def test_no_mallopt_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_memory() is False

    def test_only_train_sets_it(self, tmp_path, tiny_corpus, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
        c, model = str(tiny_corpus), str(tmp_path / "m.ckpt")
        for argv in (
            ["train", "--corpus", c, "-o", model, "--epochs", "1", "--quiet"],
            ["eval", "--corpus", c, "--model", model],
            ["infer", "--corpus", c, "--model", model, "-o", str(tmp_path / "p.jsonl")],
            ["topics", "--corpus", c, "--model", model, "-n", "3"],
            ["gibbs", "--corpus", c, "--burn-in", "1", "--samples", "1"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv[0], err)
            assert calls == [1], argv[0]  # train's one call, and none after it

    def test_checkpoint_does_not_depend_on_it(self, tmp_path, tiny_corpus):
        """A train process with the policy and one without write the same bytes."""
        script = """
import sys
from logistic_lda import cli
if sys.argv[1] == "off":
    cli._keep_freed_memory = lambda: False
sys.exit(cli.run_cli(sys.argv[2:]))
"""
        for policy in ("on", "off"):
            subprocess.run(
                [sys.executable, "-c", script, policy, "train", "--corpus", str(tiny_corpus),
                 "-o", str(tmp_path / f"{policy}.ckpt"), "--epochs", "3", "--lr", "0.05",
                 "--gamma", "auto", "--quiet"],
                capture_output=True, text=True, check=True,
            )
        assert (tmp_path / "on.ckpt").read_bytes() == (tmp_path / "off.ckpt").read_bytes()



class TestKernelKeepsTheBits:
    """Every command writes the same bytes, files and stdout, with the shipped
    mean-field kernel as with the row-major reference kernel it replaced
    (tests/oracles.py), patched in wherever the package calls the kernel."""

    TOKEN_RUN = [
        ("gen", "--k", "3", "--v", "30", "--docs", "40", "--len", "15", "--seed", "5",
         "--labeled", "-o", "c.jsonl"),
        ("train", "--corpus", "c.jsonl", "-o", "m.ckpt", "--epochs", "3", "--lr", "0.05",
         "--e-step-sweeps", "2", "--gamma", "0.02", "--metrics", "m.jsonl"),
        ("eval", "--corpus", "c.jsonl", "--model", "m.ckpt", "--truth", "c.jsonl.truth"),
        ("eval", "--corpus", "c.jsonl", "--model", "m.ckpt", "--no-converged"),
        ("infer", "--corpus", "c.jsonl", "--model", "m.ckpt", "-o", "p.jsonl"),
        ("topics", "--corpus", "c.jsonl", "--model", "m.ckpt", "-n", "4"),
    ]
    DENSE_RUN = [
        ("train", "--corpus", "d.jsonl", "-o", "d.ckpt", "--mode", "discriminative",
         "--encoder", "mlp", "--hidden", "8", "--epochs", "2", "--batch-size", "8",
         "--lr", "0.01", "--n-iter", "3", "--metrics", "d.metrics.jsonl"),
        ("eval", "--corpus", "d.jsonl", "--model", "d.ckpt", "--no-converged"),
        ("eval", "--corpus", "d.jsonl", "--model", "d.ckpt"),
        ("infer", "--corpus", "d.jsonl", "--model", "d.ckpt", "-o", "dp.jsonl",
         "--no-converged"),
    ]

    @staticmethod
    def write_dense_corpus(path):
        rng = SeededRng(11).gen
        offsets = np.zeros(31, dtype=np.int64)
        np.cumsum(rng.integers(1, 9, size=30), out=offsets[1:])
        flat = FlatGroups(payload=rng.normal(size=(int(offsets[-1]), 6)), offsets=offsets,
                          labels=rng.integers(0, 4, size=30), ids=[f"u{d}" for d in range(30)])
        save_corpus(path, Corpus(num_topics=4, payload=PayloadSpec("dense", 6), flat=flat))

    def outputs(self, root, capsys, monkeypatch, runs):
        root.mkdir()
        monkeypatch.chdir(root)
        self.write_dense_corpus(root / "d.jsonl")
        stdout = []
        for argv in runs:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            stdout.append(out)
        return stdout, {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    @pytest.mark.parametrize("runs", ["TOKEN_RUN", "DENSE_RUN"])
    def test_same_bytes_as_the_reference_kernel(self, tmp_path, capsys, monkeypatch, runs):
        runs = getattr(self, runs)
        shipped = self.outputs(tmp_path / "shipped", capsys, monkeypatch, runs)
        calls = []

        def reference(*args):
            calls.append(args[6])
            return reference_mean_field_batch(*args)

        monkeypatch.setattr(mean_field, "_mean_field_batch", reference)
        monkeypatch.setattr(training, "_mean_field_batch", reference)
        assert self.outputs(tmp_path / "reference", capsys, monkeypatch, runs) == shipped
        assert calls  # the patched kernel ran

