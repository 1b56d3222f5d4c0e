"""Classical generative LDA: synthetic corpora, collapsed Gibbs sampling,
and posterior-mean parameter estimates.

Count convention: n_dk[d, k] tokens of group d assigned to topic k,
n_kv[k, v] occurrences of token v assigned to topic k, n_k[k] the row sums
of n_kv.  Counts live in float64 (they stay integer-valued, exactly) so the
sampling kernel runs in one dtype.

The sampler's update has one source, `_gibbs_group`, with two runners:
numba compiles it over array views, and without numba it runs in CPython
over Python lists.  Both walk the same sample path from the same uniforms.
"""

from dataclasses import dataclass, field

import numpy as np

from .backend import njit, pick
from .errors import ContractError, DomainError
from .math_kernels import check_positive_vector, check_simplex, sample_dirichlet
from .mean_field import FlatGroups, Group
from .encoders import Item, _token_array

__all__ = [
    "GibbsState",
    "CorpusTruth",
    "disjoint_topic_matrix",
    "generate_corpus",
    "gibbs_init",
    "gibbs_sweep",
    "gibbs_run",
    "estimate_beta_theta",
    "item_groups",
]


@dataclass
class GibbsState:
    """Topic assignments plus the count caches the collapsed sampler needs.

    label_bias is added to alpha in the assignment conditional; it carries
    the optional label offset for supervised corpora and is zero otherwise.
    """

    z: np.ndarray
    n_dk: np.ndarray
    n_kv: np.ndarray
    n_k: np.ndarray
    eta: float
    label_bias: np.ndarray = field(default=None)

    def __post_init__(self):
        self.z = np.ascontiguousarray(self.z, dtype=np.int64)
        self.n_dk = np.ascontiguousarray(self.n_dk, dtype=np.float64)
        self.n_kv = np.ascontiguousarray(self.n_kv, dtype=np.float64)
        self.n_k = np.ascontiguousarray(self.n_k, dtype=np.float64)
        self.eta = float(self.eta)
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise DomainError("eta must be finite and > 0")
        if self.label_bias is None:
            self.label_bias = np.zeros_like(self.n_dk)
        self.label_bias = np.ascontiguousarray(self.label_bias, dtype=np.float64)
        if self.label_bias.shape != self.n_dk.shape:
            raise ContractError("label_bias must have the same shape as n_dk")

    @property
    def num_topics(self):
        return self.n_dk.shape[1]

    @property
    def vocab_size(self):
        return self.n_kv.shape[1]


@dataclass(frozen=True)
class CorpusTruth:
    """Generating latents kept alongside a synthetic corpus."""

    pi: np.ndarray      # (D, K) topic proportions per group
    z: np.ndarray       # (n_items,) true topic per item, group-major order
    labels: np.ndarray  # (D,) argmax of pi


def item_groups(flat: FlatGroups) -> np.ndarray:
    """Group index of each item, from the offsets."""
    return np.repeat(np.arange(flat.num_groups, dtype=np.int64), flat.sizes())


def disjoint_topic_matrix(K, V):
    """Row-stochastic (K, V) matrix with disjoint uniform supports: topic k
    owns a contiguous token block, so the true topic of every token is
    identifiable from the token id alone."""
    if K < 1 or V < K:
        raise ContractError("need V >= K >= 1 for disjoint supports")
    edges = np.linspace(0, V, K + 1).astype(np.int64)
    beta = np.zeros((K, V))
    for k in range(K):
        beta[k, edges[k] : edges[k + 1]] = 1.0 / (edges[k + 1] - edges[k])
    return beta


def generate_corpus(K, V, D, N_per_doc, alpha, beta, rng, labeled=False):
    """Sample D groups of N_per_doc tokens each: pi_d ~ Dir(alpha), then
    per item k ~ Cat(pi_d) and token ~ Cat(beta_k).

    Returns (groups, CorpusTruth).  With labeled=True each group carries
    label argmax_k pi_dk.
    """
    alpha = check_positive_vector(alpha)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (K, V):
        raise ContractError(f"beta must be {K}x{V}, got {beta.shape}")
    if alpha.shape != (K,):
        raise ContractError(f"alpha must have length {K}")
    for row in beta:
        check_simplex(row)
    if D < 1 or N_per_doc < 1:
        raise ContractError("need at least one group and one item per group")

    pi = sample_dirichlet(np.broadcast_to(alpha, (D, K)), rng)
    labels = pi.argmax(axis=1)
    # per group, N topic uniforms and then N token uniforms, in one draw
    u = rng.gen.random((D, 2, N_per_doc))
    # searchsorted(cumsum(pi_d), u, side="right") clipped to K - 1 counts
    # the first K - 1 cumulative sums <= u, as they never decrease
    pi_cum = np.cumsum(pi, axis=1)
    z = np.zeros((D, N_per_doc), dtype=np.int64)
    for k in range(K - 1):
        z += pi_cum[:, k, None] <= u[:, 0]
    beta_cum = np.cumsum(beta, axis=1)
    tokens = np.empty((D, N_per_doc), dtype=np.int64)
    for k in range(K):
        mask = z == k
        tokens[mask] = np.searchsorted(beta_cum[k], u[:, 1][mask], side="right")
    np.clip(tokens, 0, V - 1, out=tokens)
    groups = [Group(id=f"d{d}", items=[Item(token=t) for t in row],
                    label=int(labels[d]) if labeled else None)
              for d, row in enumerate(tokens.tolist())]
    return groups, CorpusTruth(pi=pi, z=z.ravel(), labels=labels)


def gibbs_init(flat, K, eta, rng, label_weight=0.0, V=None):
    """Uniform-random initial assignments with consistent counts.

    label_weight > 0 adds label_weight to the conditional's pseudo-count
    for each labeled group's observed topic (unlabeled groups get none).
    V defaults to the largest token id seen plus one.
    """
    if K < 1:
        raise ContractError("K must be >= 1")
    if not (np.isfinite(label_weight) and label_weight >= 0.0):
        raise DomainError("label_weight must be finite and >= 0")
    flat.check()
    tokens = _token_array(flat.payload, np.inf if V is None else int(V))
    V = int(tokens.max()) + 1 if V is None else int(V)
    z = rng.gen.integers(0, K, size=tokens.shape[0], dtype=np.int64)
    n_dk = np.zeros((flat.num_groups, K))
    n_kv = np.zeros((K, V))
    np.add.at(n_dk, (item_groups(flat), z), 1.0)
    np.add.at(n_kv, (z, tokens), 1.0)
    bias = np.zeros((flat.num_groups, K))
    if label_weight != 0.0:
        seen = flat.labels >= 0
        bias[np.flatnonzero(seen), flat.labels[seen]] = label_weight
    return GibbsState(z=z, n_dk=n_dk, n_kv=n_kv, n_k=n_kv.sum(axis=1), eta=eta,
                      label_bias=bias)


def _gibbs_group(zd, toks, ud, dk, b, kv, nk, a, eta, v_eta, probs):
    """Resample one group's assignments (zd) in order, updating its counts
    dk and the corpus-wide kv and nk.  Indexed as kv[k][v], so numba compiles
    it over array views and CPython runs it over lists, in one order."""
    K = len(dk)
    for i in range(len(zd)):
        v = toks[i]
        k = zd[i]
        dk[k] -= 1.0
        kv[k][v] -= 1.0
        nk[k] -= 1.0
        total = 0.0
        for kk in range(K):
            p = (dk[kk] + a[kk] + b[kk]) * (kv[kk][v] + eta) / (nk[kk] + v_eta)
            probs[kk] = p
            total += p
        r = ud[i] * total
        acc = 0.0
        knew = K - 1
        for kk in range(K):
            acc += probs[kk]
            if r < acc:
                knew = kk
                break
        zd[i] = knew
        dk[knew] += 1.0
        kv[knew][v] += 1.0
        nk[knew] += 1.0


_gibbs_group_jit = njit(_gibbs_group)


def _gibbs_sweep_nb(z, n_dk, n_kv, n_k, tokens, offsets, alpha, bias, eta, u):
    v_eta = n_kv.shape[1] * eta
    probs = np.empty(n_dk.shape[1])
    for d in range(offsets.shape[0] - 1):
        lo, hi = offsets[d], offsets[d + 1]
        _gibbs_group_jit(z[lo:hi], tokens[lo:hi], u[lo:hi], n_dk[d], bias[d],
                         n_kv, n_k, alpha, eta, v_eta, probs)


def _gibbs_sweep_lists(z, n_dk, n_kv, n_k, tokens, offsets, alpha, bias, eta, u):
    """_gibbs_group over Python lists, which CPython indexes far faster than
    arrays: one group's lists at a time, kv and nk for the whole sweep, all
    written back into the arrays."""
    v_eta = n_kv.shape[1] * eta
    kv, nk, a = n_kv.tolist(), n_k.tolist(), alpha.tolist()
    probs = [0.0] * n_dk.shape[1]
    for d in range(offsets.shape[0] - 1):
        lo, hi = offsets[d], offsets[d + 1]
        zd = z[lo:hi].tolist()
        dk = n_dk[d].tolist()
        _gibbs_group(zd, tokens[lo:hi].tolist(), u[lo:hi].tolist(), dk, bias[d].tolist(),
                     kv, nk, a, eta, v_eta, probs)
        z[lo:hi] = zd
        n_dk[d] = dk
    n_kv[:] = kv
    n_k[:] = nk


_gibbs_sweep_nb_jit = njit(_gibbs_sweep_nb)
# one loop source: both backends walk identical sample paths from one set of uniforms
_gibbs_sweep_kernel = pick(_gibbs_sweep_nb_jit, _gibbs_sweep_lists)


def gibbs_sweep(state, flat, alpha, rng):
    """Resample every assignment once, in corpus order, updating counts
    incrementally.  Mutates state; one uniform is consumed per item."""
    tokens = _token_array(flat.payload, state.vocab_size)
    alpha = check_positive_vector(alpha)
    u = rng.gen.random(tokens.shape[0])
    _gibbs_sweep_kernel(
        state.z, state.n_dk, state.n_kv, state.n_k,
        tokens, flat.offsets, alpha, state.label_bias, state.eta, u,
    )
    return state


def estimate_beta_theta(state, alpha):
    """Posterior-mean estimates from the current counts:
    beta_kv = (n_kv + eta)/(n_k + V eta), pi_dk = (n_dk + a_dk)/(N_d + sum a_d)
    with a_d = alpha + label_bias_d."""
    alpha = check_positive_vector(alpha)
    beta = (state.n_kv + state.eta) / (state.n_k + state.vocab_size * state.eta)[:, None]
    a = alpha + state.label_bias
    pi = (state.n_dk + a) / (state.n_dk.sum(axis=1, keepdims=True) + a.sum(axis=1, keepdims=True))
    return beta, pi


def gibbs_run(flat, K, alpha, eta, rng, burn_in=500, n_samples=500, label_weight=0.0, V=None):
    """Initialize, burn in, then average over n_samples sampling sweeps.

    Returns (state, item_post, beta_hat, pi_hat) where item_post[i] is the
    fraction of sampling sweeps assigning item i to each topic and the
    parameter estimates are means of the per-sweep posterior means.
    """
    if burn_in < 0 or n_samples < 1:
        raise ContractError("burn_in must be >= 0 and n_samples >= 1")
    alpha = check_positive_vector(alpha)
    state = gibbs_init(flat, K, eta, rng, label_weight=label_weight, V=V)
    for _ in range(burn_in):
        gibbs_sweep(state, flat, alpha, rng)
    item_post = np.zeros((flat.num_items, K))
    beta_hat = np.zeros((K, state.vocab_size))
    pi_hat = np.zeros((flat.num_groups, K))
    rows = np.arange(flat.num_items)
    for _ in range(n_samples):
        gibbs_sweep(state, flat, alpha, rng)
        item_post[rows, state.z] += 1.0
        b, p = estimate_beta_theta(state, alpha)
        beta_hat += b
        pi_hat += p
    item_post /= n_samples
    beta_hat /= n_samples
    pi_hat /= n_samples
    return state, item_post, beta_hat, pi_hat
