import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from logistic_lda import evaluation
from logistic_lda.data_io import corpus_from_groups
from logistic_lda.encoders import Item, init_params
from logistic_lda.errors import ContractError
from logistic_lda.evaluation import (
    EvalReport,
    accuracy,
    confusion_matrix,
    evaluation_report,
    match_topics,
    top_items_per_topic,
)
from logistic_lda.math_kernels import SeededRng
from logistic_lda.mean_field import Group, HyperParams


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 0], [1, 2, 0]) == 1.0

    def test_none_correct(self):
        assert accuracy([1, 1], [0, 0]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 2, 3], [0, 1, 2, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            accuracy([0], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            accuracy([], [])


class TestMatchTopics:
    def test_identity(self):
        perm, acc = match_topics(np.eye(3) * 4)
        np.testing.assert_array_equal(perm, [0, 1, 2])
        assert acc == 1.0

    def test_row_permuted_identity(self):
        # true topic t was always predicted as p0[t]
        p0 = np.array([2, 0, 1])
        C = np.zeros((3, 3))
        C[np.arange(3), p0] = 5.0
        perm, acc = match_topics(C)
        assert acc == 1.0
        np.testing.assert_array_equal(perm[p0], np.arange(3))  # inverse of p0

    def test_uniform_matrix(self):
        _, acc = match_topics(np.full((4, 4), 3.0))
        assert acc == pytest.approx(0.25)

    def test_relabeling_invariance(self):
        rng = SeededRng(3)
        true = rng.gen.integers(0, 4, size=200)
        pred = rng.gen.integers(0, 4, size=200)
        _, acc0 = match_topics(confusion_matrix(true, pred, 4))
        relab = rng.gen.permutation(4)
        _, acc1 = match_topics(confusion_matrix(true, relab[pred], 4))
        assert acc0 == pytest.approx(acc1, abs=1e-15)

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractError):
            match_topics(np.ones((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(ContractError):
            match_topics(np.array([[1.0, -1.0], [0.0, 1.0]]))


class TestMatchTopicsIsOptimal:
    """match_topics against every permutation, and against scipy's solver."""

    @pytest.mark.parametrize("K", range(1, 7))
    def test_brute_force_on_tie_heavy_counts(self, K):
        rng = np.random.default_rng(K)
        perms = np.array(list(itertools.permutations(range(K))))
        for _ in range(150):
            C = rng.integers(0, 3, size=(K, K)).astype(np.float64)
            if C.sum() == 0:
                continue
            totals = C[perms, np.arange(K)].sum(axis=1)  # perms[p, j]: true topic of j
            perm, acc = match_topics(C)
            np.testing.assert_array_equal(np.sort(perm), np.arange(K))
            assert C[perm, np.arange(K)].sum() == totals.max()
            assert acc == totals.max() / C.sum()
            if np.count_nonzero(totals == totals.max()) == 1:
                np.testing.assert_array_equal(perm, perms[totals.argmax()])

    @pytest.mark.parametrize("K", [1, 2, 3, 5, 8, 13, 21, 34, 60])
    def test_optimal_value_equals_scipy(self, K):
        rng = np.random.default_rng(100 + K)
        for C in (rng.integers(0, 4, size=(K, K)) + np.eye(K),  # tied counts
                  rng.integers(0, 1000, size=(K, K)).astype(np.float64),
                  rng.random((K, K))):
            rows, cols = linear_sum_assignment(-C)
            _, acc = match_topics(C)
            assert acc == C[rows, cols].sum() / C.sum()

    @pytest.mark.parametrize("K", [2, 5, 10, 30, 60])
    def test_permutation_equals_scipy_when_optimum_unique(self, K):
        # continuous entries: two assignments tie with probability 0
        rng = np.random.default_rng(200 + K)
        for _ in range(10):
            C = rng.random((K, K))
            rows, cols = linear_sum_assignment(-C)
            perm, _ = match_topics(C)
            np.testing.assert_array_equal(perm[cols], rows)


class TestEvaluationReport:
    def test_full_report(self):
        rep = evaluation_report(
            pred_groups=[0, 1, 1, 0], true_groups=[0, 1, 0, 0],
            pred_items=[0, 0, 1, 1, 1], true_items=[0, 0, 1, 1, 0], K=2,
        )
        assert rep.group_accuracy == 0.75
        assert rep.item_accuracy == 0.8
        assert rep.confusion.sum() == 4
        np.testing.assert_array_equal(rep.confusion.sum(axis=1), [3, 1])  # class counts
        np.testing.assert_array_equal(rep.topic_usage, [2, 3])
        d = rep.to_dict()
        assert set(d) >= {"group_accuracy", "item_accuracy", "confusion", "topic_usage"}

    def test_unsupervised_only(self):
        rep = evaluation_report(pred_items=[0, 2, 2], K=3)
        assert rep.group_accuracy is None and rep.item_accuracy is None
        np.testing.assert_array_equal(rep.topic_usage, [1, 0, 2])

    # a float label used to be truncated, one beyond K to widen topic_usage,
    # and a negative one to raise numpy's untyped ValueError
    BAD_LABELS = [[0.5, 1], [5, 1], [-1, 1], [1.0, 1.0], [True, False], ["0", "1"]]

    @pytest.mark.parametrize("bad", BAD_LABELS)
    def test_every_label_vector_is_checked(self, bad):
        calls = [
            lambda: evaluation_report(pred_items=bad, K=2),
            lambda: evaluation_report(pred_items=bad, true_items=[0, 1], K=2),
            lambda: evaluation_report(pred_items=[0, 1], true_items=bad, K=2),
            lambda: evaluation_report(pred_groups=bad, true_groups=[0, 1], K=2),
            lambda: evaluation_report(pred_groups=[0, 1], true_groups=bad, K=2),
            lambda: confusion_matrix(bad, [0, 1], 2),
            lambda: confusion_matrix([0, 1], bad, 2),
        ]
        for call in calls:
            with pytest.raises(ContractError, match=r"^labels must lie in \[0, 2\)$"):
                call()

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
    def test_integer_dtypes_are_accepted(self, dtype):
        labels = np.array([0, 1, 1], dtype=dtype)
        rep = evaluation_report(pred_items=labels, true_items=labels, K=2)
        np.testing.assert_array_equal(rep.topic_usage, [1, 2])
        assert rep.matched_item_accuracy == 1.0
        np.testing.assert_array_equal(confusion_matrix(labels, labels, 2), [[1, 0], [0, 2]])

    def test_no_items_give_an_empty_usage(self):
        np.testing.assert_array_equal(evaluation_report(pred_items=[], K=3).topic_usage, [0, 0, 0])

    def test_matched_beats_raw_on_relabeled_predictions(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([1, 1, 2, 2, 0, 0])  # perfect up to relabeling
        rep = evaluation_report(pred_groups=pred, true_groups=true, K=3)
        assert rep.group_accuracy == 0.0
        assert rep.matched_group_accuracy == 1.0


class TestTopItems:
    def make_corpus(self):
        # token 0 belongs to topic 0, token 1 to topic 1
        groups = [
            Group(id="a", items=[Item(token=0), Item(token=1)]),
            Group(id="b", items=[Item(token=0), Item(token=0)]),
        ]
        theta = init_params("table", (2, 2), 0.0, SeededRng(0))
        theta.table[0, 0] = 4.0
        theta.table[1, 1] = 4.0
        corpus = corpus_from_groups(groups, 2, vocab=("zero", "one"), vocab_size=2)
        return corpus, theta, HyperParams(alpha=np.ones(2), n_iter=3)

    def test_zero_n(self):
        corpus, theta, hyper = self.make_corpus()
        assert top_items_per_topic(corpus, theta, hyper, 0) == [[], []]

    def test_supports_separate(self):
        corpus, theta, hyper = self.make_corpus()
        tops = top_items_per_topic(corpus, theta, hyper, 2)
        assert all(text == "zero" for _, _, text in tops[0])
        assert tops[1][0][2] == "one"

    def test_scores_descend_and_ties_keep_corpus_order(self):
        corpus, theta, hyper = self.make_corpus()
        for entries in top_items_per_topic(corpus, theta, hyper, 4):
            scores = [s for _, s, _ in entries]
            assert scores == sorted(scores, reverse=True)
            for (i1, s1, _), (i2, s2, _) in zip(entries, entries[1:]):
                if s1 == s2:
                    assert i1 < i2

    def test_duplicate_items_rank_adjacent(self):
        groups = [Group(id="a", items=[Item(token=1), Item(token=0), Item(token=1)])]
        theta = init_params("table", (2, 2), 0.0, SeededRng(0))
        theta.table[0, 0] = 3.0
        theta.table[1, 1] = 3.0
        corpus = corpus_from_groups(groups, 2, vocab_size=2)
        tops = top_items_per_topic(corpus, theta, HyperParams(alpha=np.ones(2), n_iter=2), 3)
        # the two copies of token 1 share one group, hence one score
        assert [i for i, _, _ in tops[1][:2]] == [0, 2]

    def test_dense_items_are_named_by_group_and_position(self):
        rng = SeededRng(5)
        groups = [Group(id=f"g{d}", items=[Item(dense=rng.gen.normal(size=3))
                                           for _ in range(n)])
                  for d, n in enumerate([1, 4, 2, 7, 1])]
        corpus = corpus_from_groups(groups, 2)
        theta = init_params("mlp", (3, 2), 1.0, rng)
        names = [f"{g.id}[{j}]" for g in groups for j in range(len(g.items))]
        for entries in top_items_per_topic(corpus, theta, HyperParams(alpha=np.ones(2)), 15):
            assert len(entries) == 15
            assert [text for _, _, text in entries] == [names[i] for i, _, _ in entries]


class TestTopItemsSelection:
    """The selection keeps exactly the lists of one full stable sort per
    topic: scores descending, ties in corpus order."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 49, 50, 51, 500])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_lists_as_a_full_stable_sort(self, monkeypatch, seed, n):
        rng = np.random.default_rng(seed)
        groups = [Group(id=f"g{d}", items=[Item(token=int(t)) for t in rng.integers(0, 7, 10)])
                  for d in range(5)]
        corpus = corpus_from_groups(groups, 5, vocab_size=7)
        # few distinct scores, so most scores tie, and the n-th largest
        # score is shared by items inside and outside the top n
        P = rng.choice([0.0, 0.125, 0.25, 0.5, 1.0, float(rng.random())], size=(50, 5))
        P[:, 3] = 0.25
        P[::3, 4] = 1.0
        monkeypatch.setattr(evaluation, "predict_corpus", lambda *args, **kw: (None, None, P))
        tops = top_items_per_topic(corpus, None, HyperParams(alpha=np.ones(5)), n)
        for k, entries in enumerate(tops):
            order = np.argsort(-P[:, k], kind="stable")[:n]
            assert [i for i, _, _ in entries] == order.tolist()
            assert [s for _, s, _ in entries] == P[order, k].tolist()
            assert [t for _, _, t in entries] == [str(corpus.flat.payload[i]) for i in order]

