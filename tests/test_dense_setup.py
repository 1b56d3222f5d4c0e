"""The dense-mlp benchmark workload builds its inputs with `perfbench/dense.py`
through the public corpus API: generate_corpus, Group/Item and
corpus_from_groups.  Here it is loaded from its path, read as it is, and
run at tiny sizes, so a change to that API fails in tier-1 instead of
only in the benchmark's own self-test."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from logistic_lda import data_io
from logistic_lda.data_io import PayloadSpec, load_corpus, load_truth

DENSE = Path(__file__).resolve().parents[1] / "perfbench" / "dense.py"


def load_dense():
    spec = importlib.util.spec_from_file_location("perfbench_dense", DENSE)
    dense = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dense)
    return dense


def test_tiny_inputs_load_back(tmp_path):
    k, dim, groups, heldout, length = 3, 4, 6, 2, 5
    load_dense().make(str(tmp_path), seed=42, k=k, v=12, dim=dim, groups=groups,
                      heldout=heldout, length=length)
    train = load_corpus(tmp_path / "train.jsonl")
    held = load_corpus(tmp_path / "heldout.jsonl")
    for corpus, count in ((train, groups), (held, heldout)):
        assert (corpus.num_topics, corpus.payload) == (k, PayloadSpec("dense", dim))
        assert corpus.flat.num_groups == count
        assert corpus.flat.payload.shape == (count * length, dim)
        assert ((0 <= corpus.flat.labels) & (corpus.flat.labels < k)).all()
    ids, pi, z, labels = load_truth(tmp_path / "heldout.jsonl.truth")
    assert ids == held.flat.ids
    assert pi.shape == (heldout, k) and z.shape == (heldout * length,)
    np.testing.assert_array_equal(labels, held.flat.labels)


def test_tiny_inputs_are_version_2_and_load_bitwise(tmp_path, monkeypatch):
    saved = {}
    save = data_io.save_corpus

    def record(path, corpus):
        saved[Path(path).name] = corpus
        save(path, corpus)

    monkeypatch.setattr(data_io, "save_corpus", record)
    load_dense().make(str(tmp_path), seed=42, k=3, v=12, dim=4, groups=6, heldout=2, length=5)
    assert sorted(saved) == ["heldout.jsonl", "train.jsonl"]
    for name, corpus in saved.items():
        with open(tmp_path / name, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header == {"format": "corpus", "version": 2, "k": 3, "payload": {"dense": 4}}
        back = load_corpus(tmp_path / name)
        assert (back.num_topics, back.payload, back.vocab) == (3, corpus.payload, None)
        assert back.flat.ids == corpus.flat.ids
        for field in ("payload", "offsets", "labels"):
            got, want = getattr(back.flat, field), getattr(corpus.flat, field)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                            want.tobytes()), field
