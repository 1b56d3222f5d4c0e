"""The dense-mlp benchmark workload builds its inputs with `perfbench/dense.py`
through the public corpus API: generate_corpus, Group/Item and
corpus_from_groups.  Here it is loaded from its path, read as it is, and
run at tiny sizes, so a change to that API fails in tier-1 instead of
only in the benchmark's own self-test."""

import importlib.util
from pathlib import Path

import numpy as np

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
