"""Accuracy metrics, topic matching, and topic browsing."""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .math_kernels import check_bool, check_int
from .mean_field import (
    flatten_groups,  # noqa: F401  (a traced name; perfbench/spans.py wraps it here)
)
from .training import predict_corpus

__all__ = [
    "EvalReport",
    "accuracy",
    "match_topics",
    "confusion_matrix",
    "evaluation_report",
    "top_items_per_topic",
]


@dataclass
class EvalReport:
    """Metrics of one evaluation pass.  Fields that need labels the caller
    did not supply stay None."""

    group_accuracy: float = None
    item_accuracy: float = None
    confusion: np.ndarray = None          # rows true, columns predicted
    topic_usage: np.ndarray = None        # histogram of predicted item topics
    matched_permutation: np.ndarray = None  # predicted topic -> true topic
    matched_group_accuracy: float = None
    matched_item_accuracy: float = None

    def to_dict(self):
        out = {}
        for name, val in self.__dict__.items():
            if val is None:
                continue
            out[name] = val.tolist() if isinstance(val, np.ndarray) else val
        return out


def accuracy(pred, true):
    """Fraction of exact matches."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape or pred.ndim != 1 or pred.size < 1:
        raise ContractError("pred and true must be equal-length non-empty vectors")
    return float(np.mean(pred == true))


def _check_labels(labels, K):
    """labels as int64: every entry of an integer dtype and in [0, K)."""
    a = np.asarray(labels)
    if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= K):
        raise ContractError(f"labels must lie in [0, {K})")
    return a.astype(np.int64, copy=False)


def confusion_matrix(true, pred, K):
    """(K, K) counts, true topics as rows."""
    K = check_int(K, "K", 1)
    true, pred = _check_labels(true, K), _check_labels(pred, K)
    if true.shape != pred.shape:
        raise ContractError("label vectors must have equal length")
    C = np.zeros((K, K))
    np.add.at(C, (true, pred), 1.0)
    return C


def _max_assignment(C):
    """row_of[j], the row matched to column j in a perfect matching of the
    square matrix C whose matched entries sum to the most.

    Kuhn-Munkres (Kuhn 1955) in the shortest-augmenting-path form of
    Jonker & Volgenant (1987): rows join one at a time, each along a
    shortest path of reduced costs -C[i, j] - u[i] - v[j], with the row
    potentials u and column potentials v keeping every reduced cost >= 0.
    O(K^3), one vectorised scan over the columns per step.  Column K is the
    virtual start of each path.
    """
    K = C.shape[0]
    u = np.zeros(K)
    v = np.zeros(K + 1)
    row_of = np.full(K + 1, -1, dtype=np.int64)  # row matched to each column
    way = np.zeros(K + 1, dtype=np.int64)        # previous column on the path
    for i in range(K):
        row_of[K] = i
        j0 = K
        dist = np.full(K + 1, np.inf)  # shortest reduced path cost to each column
        done = np.zeros(K + 1, dtype=bool)
        while row_of[j0] >= 0:
            done[j0] = True
            i0 = row_of[j0]
            reduced = -C[i0] - u[i0] - v[:K]
            shorter = ~done[:K] & (reduced < dist[:K])
            dist[:K][shorter] = reduced[shorter]
            way[:K][shorter] = j0
            j1 = int(np.argmin(np.where(done[:K], np.inf, dist[:K])))
            delta = dist[j1]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
            j0 = j1
        while j0 != K:  # flip the matching along the path back to the start
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    return row_of[:K]


def match_topics(confusion):
    """Optimal assignment of predicted topics to true ones.

    Returns (perm, matched_accuracy) where perm[j] is the true topic
    assigned to predicted topic j and matched_accuracy the fraction of
    mass on the matched diagonal.  When several assignments reach the
    optimum, perm is one of them.
    """
    C = np.asarray(confusion, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] < 1:
        raise ContractError("confusion must be a square matrix")
    if np.any(C < 0) or not np.all(np.isfinite(C)):
        raise ContractError("confusion entries must be finite and non-negative")
    total = C.sum()
    if total <= 0:
        raise ContractError("confusion matrix is empty")
    perm = _max_assignment(C)
    # the matched entries, summed row by row
    return perm, float(C[np.arange(C.shape[0]), np.argsort(perm)].sum() / total)


def evaluation_report(pred_groups=None, true_groups=None, pred_items=None,
                      true_items=None, K=None) -> EvalReport:
    """Assemble every metric the supplied label vectors allow.

    Direct accuracies treat predicted topics as labels; matched accuracies
    first align topics to the truth with match_topics (the unsupervised
    reading of the same confusion matrix).
    """
    K = check_int(K, "K", 1)
    rep = EvalReport()
    if pred_items is not None:
        rep.topic_usage = np.bincount(_check_labels(pred_items, K), minlength=K)
    if pred_groups is not None and true_groups is not None:
        rep.confusion = confusion_matrix(true_groups, pred_groups, K)
        rep.group_accuracy = accuracy(pred_groups, true_groups)
        perm, matched = match_topics(rep.confusion)
        rep.matched_permutation = perm
        rep.matched_group_accuracy = matched
    if pred_items is not None and true_items is not None:
        rep.item_accuracy = accuracy(pred_items, true_items)
        item_conf = confusion_matrix(true_items, pred_items, K)
        perm, matched = match_topics(item_conf)
        rep.matched_item_accuracy = matched
        if rep.matched_permutation is None:
            rep.matched_permutation = perm
    return rep


def top_items_per_topic(corpus, theta, hyper, n, converged=True):
    """For each topic, the n items whose inferred belief in it is highest.

    Returns one list per topic of (item_index, score, text) triples sorted
    by descending score, ties resolved by corpus order.  text is the
    vocabulary word when the corpus carries one, the token id for bare
    token corpora, and group_id[position] for dense corpora.
    """
    n = check_int(n, "n", 0)
    converged = check_bool(converged, "converged")
    flat = corpus.flat
    _, _, P = predict_corpus(flat, theta, hyper, converged=converged)

    def text(i):
        if corpus.payload.kind == "token":
            token = int(flat.payload[i])
            return corpus.vocab[token] if corpus.vocab else str(token)
        d = int(np.searchsorted(flat.offsets, i, side="right")) - 1
        return f"{flat.ids[d]}[{i - int(flat.offsets[d])}]"

    N = P.shape[0]
    out = []
    for k, col in enumerate(np.ascontiguousarray(P.T)):
        # a full stable sort's first n items are the items that score at least
        # the n-th largest score, in the order that sorting only those gives
        cand = np.arange(N)
        if 0 < n < N:
            cand = np.flatnonzero(col >= np.partition(col, N - n)[N - n])
        order = cand[np.argsort(-col[cand], kind="stable")[:n]].tolist()
        out.append([(i, float(P[i, k]), text(i)) for i in order])
    return out
