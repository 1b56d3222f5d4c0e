"""Labeled dense corpus for the dense-mlp workload, built through the public API.

Tokens from `generate_corpus` (K topics over a V-word vocabulary with
disjoint topic rows) are replaced by a fixed Gaussian embedding of the
token plus per-item noise, so the MLP encoder has to learn the map from
embedding to topic.  The first `groups` groups form the training corpus,
the rest the held-out corpus with its ground-truth sidecar.

    python3 perfbench/dense.py --seed 42 --out DIR --k 10 --v 200 --dim 32 \
        --groups 2000 --heldout 500 --length 20
"""

import argparse
import os

import numpy as np

from logistic_lda import data_io, lda_baseline
from logistic_lda.encoders import Item
from logistic_lda.lda_baseline import CorpusTruth
from logistic_lda.math_kernels import SeededRng
from logistic_lda.mean_field import Group

SIZES = ("k", "v", "dim", "groups", "heldout", "length")
NOISE = 0.5


def make(out_dir, seed, k, v, dim, groups, heldout, length):
    """Write train.jsonl, heldout.jsonl and heldout.jsonl.truth into out_dir."""
    rng = SeededRng(seed)
    beta = lda_baseline.disjoint_topic_matrix(k, v)
    token_groups, truth = lda_baseline.generate_corpus(
        k, v, groups + heldout, length, np.full(k, 0.1), beta, rng, labeled=True
    )
    embedding = rng.gen.standard_normal((v, dim))
    dense_groups = []
    for g in token_groups:
        tokens = np.fromiter((it.token for it in g.items), dtype=np.int64)
        rows = embedding[tokens] + NOISE * rng.gen.standard_normal((tokens.size, dim))
        dense_groups.append(Group(id=g.id, items=[Item(dense=r) for r in rows], label=g.label))
    train = data_io.corpus_from_groups(dense_groups[:groups], k)
    held = data_io.corpus_from_groups(dense_groups[groups:], k)
    held_truth = CorpusTruth(pi=truth.pi[groups:], z=truth.z[groups * length:],
                             labels=truth.labels[groups:])
    data_io.save_corpus(os.path.join(out_dir, "train.jsonl"), train)
    data_io.save_corpus(os.path.join(out_dir, "heldout.jsonl"), held)
    data_io.save_truth(os.path.join(out_dir, "heldout.jsonl.truth"), held, held_truth)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    for key in SIZES:
        p.add_argument(f"--{key}", type=int, required=True)
    args = vars(p.parse_args(argv))
    make(args.pop("out"), args.pop("seed"), **args)


if __name__ == "__main__":
    main()
