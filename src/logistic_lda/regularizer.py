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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .math_kernels import check_int, check_real, log_sum_exp


def _as_g_matrix(g_all):
    g = np.asarray(g_all, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] == 0:
        raise ContractError("need a non-empty (num_items, K) array of log-probabilities")
    if np.any(np.isnan(g)) or np.any(g == np.inf):
        raise DomainError("log-probabilities must be < inf and not NaN")
    return g


def default_gamma(num_items: int) -> float:
    """Recommended regularizer strength for unsupervised training.

    The data term pulls on the encoder with one unit of gradient mass per
    item, while the regularizer's per-topic responsibilities sum to one
    over the whole corpus.  A gamma of order num_items is therefore the
    smallest scale at which the usage term can compete; 4x that is strong
    enough to revive topics that an unlucky init left with no items, while
    leaving topic recovery on separable corpora intact.
    """
    if num_items <= 0:
        raise ContractError("num_items must be positive")
    return 4.0 * num_items


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
        self.rho = check_real(self.rho, "rho")
        if not 0.0 <= self.rho < 1.0:
            raise DomainError("rho must lie in [0, 1)")
        self.items_seen = check_int(self.items_seen, "items_seen")
        if self.items_seen < 0:
            raise ContractError(f"items_seen must be >= 0, got {self.items_seen}")
        self.log_ema_per_topic = np.asarray(self.log_ema_per_topic, dtype=np.float64)

    @property
    def ema_per_topic(self) -> np.ndarray:
        return np.exp(self.log_ema_per_topic)


def update_running_estimate(state: RegularizerState, g_batch, total_items: int):
    """Fold one minibatch into the running average and return (state,
    r_hat) where r_hat[n, k] = exp g_k(x_n) / (total_items * ema_k)."""
    g = _as_g_matrix(g_batch)
    batch_size = g.shape[0]
    if total_items < batch_size:
        raise ContractError("total_items must be at least the batch size")
    # log of the batch mean of exp g_k, never leaving log space
    log_mean = log_sum_exp(g, axis=0) - np.log(batch_size)
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
    log_denom = np.log(float(total_items)) + state.log_ema_per_topic
    r_hat = np.exp(g - log_denom)
    return state, r_hat
