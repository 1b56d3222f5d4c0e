"""Topic-usage regularizer and its stochastic running-average estimate.

For item log-probabilities g (one K-vector per item, stacked as rows),

    r(g) = gamma * sum_k ln sum_dn exp g_k(x_dn)

pushes every topic to claim probability mass somewhere in the corpus.
Its tight lower bound

    gamma * sum_k sum_dn r_dnk ln(exp g_k(x_dn) / r_dnk)

has the same gradient in g when the responsibilities r_dnk are chosen as
exp g_k / sum_dn exp g_k (each topic column normalized over items).  For
minibatch training the per-topic denominator is replaced by a running
average of mean exp g_k, scaled back up by the dataset size.

`update_running_estimate` returns the responsibilities already times
gamma, the soft target that training adds to the item beliefs; the
product is elementwise, so its bits do not depend on where it runs.  For
a table encoder it takes the (V, K) vocabulary rows and the batch's
tokens: the exps and the gamma scale run once per row and are gathered
per item, and the column max (with its refusal of NaN and +inf) runs over
the rows that some item of the batch uses, not over the gathered items.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .math_kernels import _item_sum, _max, check_int, check_real, log_sum_exp


def default_gamma(num_items: int) -> float:
    """Recommended regularizer strength for unsupervised training.

    The data term pulls on the encoder with one unit of gradient mass per
    item, while the regularizer's per-topic responsibilities sum to one
    over the whole corpus.  A gamma of order num_items is therefore the
    smallest scale at which the usage term can compete; 4x that is strong
    enough to revive topics that an unlucky init left with no items, while
    leaving topic recovery on separable corpora intact.
    """
    return 4.0 * check_int(num_items, "num_items", 1)


@dataclass
class RegularizerState:
    """Running average of mean exp g_k per topic across minibatches.

    The first batch initializes the average; afterwards
    ema <- rho * ema + (1 - rho) * batch_mean.  Tracking the mean (not the
    sum) keeps the state independent of batch size; the dataset size is
    multiplied back in when forming the estimate.  The average is stored
    as its logarithm so arbitrarily negative g cannot underflow it to
    zero; `ema_per_topic` is the linear view."""

    rho: float = 0.99
    log_ema_per_topic: np.ndarray = field(default_factory=lambda: np.empty(0))
    items_seen: int = 0

    def __post_init__(self):
        self.rho = check_real(self.rho, "rho", "[0, 1)")
        self.items_seen = check_int(self.items_seen, "items_seen", 0)
        self.log_ema_per_topic = np.asarray(self.log_ema_per_topic, dtype=np.float64)

    @property
    def ema_per_topic(self) -> np.ndarray:
        return np.exp(self.log_ema_per_topic)


def update_running_estimate(state: RegularizerState, g_batch, total_items: int, index=None,
                            gamma=1.0):
    """Fold one minibatch into the running average and return (state,
    r_hat) where r_hat[n, k] = gamma * exp g_k(x_n) / (total_items * ema_k):
    the soft target the regularizer of strength gamma adds to the item
    beliefs.  gamma multiplies each exp on its own, so the bits are those of
    gamma times the unscaled r_hat.

    With `index`, g_batch holds one row per vocabulary entry and item n's
    row is g_batch[index[n]] (a table encoder's log_softmax).  The two exps
    and the gamma scale then run once per row and are gathered.  The column
    max and the refusal of NaN and +inf read the rows the batch uses, each
    once (a max is exact in any order, and those rows hold every value the
    gathered ones do), and the sum over items runs on the gathered rows in
    item order: the bits of the per-item call on g_batch[index]."""
    rows = np.asarray(g_batch, dtype=np.float64)
    if index is not None:
        index = np.asarray(index)
        if (index.ndim != 1 or index.dtype.kind not in "iu" or rows.ndim < 1
                or (index.size and not 0 <= index.min() <= index.max() < rows.shape[0])):
            raise ContractError("index must be a 1-d integer array in [0, len(g_batch))")
    if (rows.ndim != 2 or rows.shape[1] == 0
            or (rows.shape[0] if index is None else index.size) == 0):
        raise ContractError("need a non-empty (num_items, K) array of log-probabilities")
    if index is None:
        batch_size, used = rows.shape[0], rows
    else:
        batch_size = index.size
        used = rows[np.bincount(index.astype(np.intp, copy=False), minlength=rows.shape[0]) > 0]

    def gather(a):
        return a if index is None else np.take(a, index, axis=0)

    gamma = check_real(gamma, "gamma", "[0, inf)")
    # log of the batch mean of exp g_k, never leaving log space: log_sum_exp
    # over items, whose column max also carries any NaN or +inf entry
    m = _max(used, axis=0)
    if not np.all(m < np.inf):
        raise DomainError("log-probabilities must be < inf and not NaN")
    total_items = check_int(total_items, "total_items", batch_size)
    m_safe = np.where(np.isfinite(m), m, 0.0)  # an all -inf column has no mass
    with np.errstate(divide="ignore"):
        log_sum = m_safe[0] + np.log(_item_sum(gather(np.exp(rows - m_safe))))
    log_mean = log_sum - np.log(batch_size)
    if state.items_seen and state.log_ema_per_topic.shape != log_mean.shape:
        raise ContractError("batch K does not match regularizer state")
    if state.items_seen == 0 or state.rho == 0.0:
        state.log_ema_per_topic = log_mean
    else:
        stacked = np.stack(
            [np.log(state.rho) + state.log_ema_per_topic, np.log1p(-state.rho) + log_mean]
        )
        state.log_ema_per_topic = log_sum_exp(stacked, axis=0)
    state.items_seen += batch_size
    log_denom = np.log(total_items) + state.log_ema_per_topic
    r_hat = np.exp(rows - log_denom)
    r_hat *= gamma
    return state, gather(r_hat)
