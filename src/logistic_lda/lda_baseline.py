"""Classical generative LDA: synthetic corpora, collapsed Gibbs sampling,
and posterior-mean parameter estimates.

Count convention: n_dk[d, k] tokens of group d assigned to topic k,
n_kv[k, v] occurrences of token v assigned to topic k, n_k[k] the row sums
of n_kv.  Counts live in float64 (they stay integer-valued, exactly) so the
sampling kernel runs in one dtype.

The sampler's update has one source, `backend._gibbs_group`, which numba
compiles there; without numba CPython runs a copy of it unrolled over the
K topics (`_unrolled_gibbs_group`) over Python lists.  The copy adds the
same terms in the same order and picks topics by the same comparisons,
so both walk the same sample path from the same uniforms, bit for bit;
the parity tests hold it to `_gibbs_group`.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import backend
from .errors import ContractError, DomainError
from .math_kernels import (
    check_bool,
    check_int,
    check_positive_vector,
    check_real,
    check_simplex,
    sample_dirichlet,
)
from .data_io import Corpus, PayloadSpec
from .mean_field import FlatGroups
from .encoders import _token_array

__all__ = [
    "GibbsState",
    "CorpusTruth",
    "disjoint_topic_matrix",
    "sample_corpus",
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
    Its entries must be finite and non-negative.
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
        self.eta = check_real(self.eta, "eta", "(0, inf)")
        if self.label_bias is None:
            self.label_bias = np.zeros_like(self.n_dk)
        self.label_bias = np.ascontiguousarray(self.label_bias, dtype=np.float64)
        if self.label_bias.shape != self.n_dk.shape:
            raise ContractError("label_bias must have the same shape as n_dk")
        # a negative or non-finite bias would leave the conditional's weights
        # no distribution to draw from
        if not (np.isfinite(self.label_bias).all() and (self.label_bias >= 0.0).all()):
            raise DomainError("label_bias entries must be finite and >= 0")

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
    K = check_int(K, "K", 1)
    V = check_int(V, "V", K)
    edges = np.linspace(0, V, K + 1).astype(np.int64)
    beta = np.zeros((K, V))
    for k in range(K):
        beta[k, edges[k] : edges[k + 1]] = 1.0 / (edges[k + 1] - edges[k])
    return beta


def _check_alpha(alpha, K):
    """alpha as a positive vector of one entry per topic."""
    alpha = check_positive_vector(alpha)
    if alpha.shape != (K,):
        raise ContractError(f"alpha must have length {K}, got {alpha.size}")
    return alpha


def sample_corpus(K, V, D, N_per_doc, alpha, beta, rng, labeled=False):
    """Sample D groups of N_per_doc tokens each: pi_d ~ Dir(alpha), then
    per item k ~ Cat(pi_d) and token ~ Cat(beta_k).

    Returns (FlatGroups, CorpusTruth): the tokens in group order, groups
    with ids d0, d1, ...  With labeled=True each group carries label
    argmax_k pi_dk, and -1 otherwise.
    """
    D, N_per_doc = check_int(D, "D", 1), check_int(N_per_doc, "N_per_doc", 1)
    labeled = check_bool(labeled, "labeled")
    K, V = check_int(K, "K", 1), check_int(V, "V", 1)
    alpha = _check_alpha(alpha, K)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (K, V):
        raise ContractError(f"beta must be {K}x{V}, got {beta.shape}")
    for row in beta:
        check_simplex(row)

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
    flat = FlatGroups(payload=tokens.ravel(),
                      offsets=np.arange(D + 1, dtype=np.int64) * N_per_doc,
                      labels=labels.copy() if labeled else np.full(D, -1, dtype=np.int64),
                      ids=[f"d{d}" for d in range(D)])
    return flat, CorpusTruth(pi=pi, z=z.ravel(), labels=labels)


def generate_corpus(K, V, D, N_per_doc, alpha, beta, rng, labeled=False):
    """sample_corpus, with the groups as a list of Group/Item objects:
    (groups, CorpusTruth).  Kept for perfbench/dense.py, which reads
    g.items, g.id and g.label; ROADMAP item 1's benchmark revision moves
    it to sample_corpus and deletes this adapter."""
    flat, truth = sample_corpus(K, V, D, N_per_doc, alpha, beta, rng, labeled=labeled)
    K, V = check_int(K, "K", 1), check_int(V, "V", 1)  # numpy integers as int, for the header
    corpus = Corpus(num_topics=K, payload=PayloadSpec("token", V), flat=flat)
    return list(corpus.groups), truth


def gibbs_init(flat, K, eta, rng, label_weight=0.0, V=None):
    """Uniform-random initial assignments with consistent counts.

    label_weight > 0 adds label_weight to the conditional's pseudo-count
    for each labeled group's observed topic (unlabeled groups get none).
    V defaults to the largest token id seen plus one.
    """
    K, label_weight = check_int(K, "K", 1), check_real(label_weight, "label_weight", "[0, inf)")
    V = None if V is None else check_int(V, "V", 1)
    flat.check()
    if label_weight != 0.0 and np.any(flat.labels >= K):
        raise DomainError("label outside [0, K)")
    tokens = _token_array(flat.payload, np.inf if V is None else V)
    V = int(tokens.max()) + 1 if V is None else V
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


_UNROLLED_GROUP = """\
def gibbs_group(zd, toks, ud, dk, b, kv, nk, a, eta, v_eta):
    {kv_rows}, = kv
    {a_entries}, = a
    {b_entries}, = b
    for i in range(len(zd)):
        v = toks[i]
        k = zd[i]
        dk[k] -= 1.0
        kv[k][v] -= 1.0
        nk[k] -= 1.0
{sums}
        r = ud[i] * c{last}
{choice}
        zd[i] = knew
        dk[knew] += 1.0
        kv[knew][v] += 1.0
        nk[knew] += 1.0
"""
# CPython's compiler refuses a conditional expression nested some thousands
# deep (at K = 3000 on 3.11), so the topic choice nests at most 64 deep
_CHOICE_SPAN = 64


@lru_cache(maxsize=8)  # a process sweeps at one K, or a few
def _unrolled_gibbs_group(K):
    """_gibbs_group with its loops over the K topics written out, built once
    per K from source, as namedtuple builds its methods.  The running sums
    c0, c1, ... are its total and acc, added in the same order, and knew is
    the first k with r < c{k}, or K - 1, as its loop picks: the same topic
    from the same uniform, bit for bit.  Past 65 topics the choice is one
    conditional per span of 64, run from the last span to the first, so a
    lower span's pick overwrites a higher one's."""
    def names(prefix):
        return ", ".join(f"{prefix}{k}" for k in range(K))

    sums = "\n".join(
        f"        c{k} = {f'c{k - 1}' if k else '0.0'} + "
        f"(dk[{k}] + a{k} + b{k}) * (kv{k}[v] + eta) / (nk[{k}] + v_eta)"
        for k in range(K))
    spans = [range(K - 1)[lo:lo + _CHOICE_SPAN] for lo in range(0, max(K - 1, 1), _CHOICE_SPAN)]
    choice = "\n".join(
        "        knew = " + "".join(f"{k} if r < c{k} else " for k in span)
        + (str(K - 1) if span is spans[-1] else "knew")
        for span in reversed(spans))
    source = _UNROLLED_GROUP.format(kv_rows=names("kv"), a_entries=names("a"),
                                    b_entries=names("b"), sums=sums, last=K - 1, choice=choice)
    namespace = {}
    exec(compile(source, f"<gibbs_group K={K}>", "exec"), namespace)
    return namespace["gibbs_group"]


def _gibbs_sweep_lists(z, n_dk, n_kv, n_k, tokens, offsets, alpha, bias, eta, u):
    """_gibbs_group, unrolled over the topics, on Python lists, which CPython
    indexes far faster than arrays: one group's lists at a time, kv and nk
    for the whole sweep, all written back into the arrays."""
    v_eta = n_kv.shape[1] * eta
    kv, nk, a = n_kv.tolist(), n_k.tolist(), alpha.tolist()
    gibbs_group = _unrolled_gibbs_group(n_dk.shape[1])
    for d in range(offsets.shape[0] - 1):
        lo, hi = offsets[d], offsets[d + 1]
        zd = z[lo:hi].tolist()
        dk = n_dk[d].tolist()
        gibbs_group(zd, tokens[lo:hi].tolist(), u[lo:hi].tolist(), dk, bias[d].tolist(),
                    kv, nk, a, eta, v_eta)
        z[lo:hi] = zd
        n_dk[d] = dk
    n_kv[:] = kv
    n_k[:] = nk


# one loop source: both backends walk identical sample paths from one set of uniforms
_gibbs_sweep_kernel = backend.gibbs_sweep or _gibbs_sweep_lists


def gibbs_sweep(state, flat, alpha, rng):
    """Resample every assignment once, in corpus order, updating counts
    incrementally.  Mutates state; one uniform is consumed per item.
    flat must have the groups, group sizes and tokens the state was built on."""
    flat.check()
    sizes = flat.sizes()
    if (flat.num_items != state.z.size or state.n_dk.shape[0] != sizes.size
            or (state.n_dk.sum(axis=1) != sizes).any()):
        raise ContractError("the corpus's groups and group sizes differ from the state's")
    tokens = _token_array(flat.payload, state.vocab_size)
    alpha = _check_alpha(alpha, state.n_k.size)
    # the same sizes with other tokens would drive the counts negative
    K, V = state.n_kv.shape
    cells = state.z * V
    cells += tokens  # in place: one temporary per item, not two, keeps gibbs's peak memory
    # with every assignment in [0, K), bincount has exactly K * V entries
    if state.z.min() < 0 or state.z.max() >= K or (
            np.bincount(cells, minlength=K * V) != state.n_kv.ravel()).any():
        raise ContractError("the state's counts do not match its assignments on this corpus")
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
    alpha = _check_alpha(alpha, state.n_k.size)
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
    burn_in, n_samples = check_int(burn_in, "burn_in", 0), check_int(n_samples, "n_samples", 1)
    K = check_int(K, "K", 1)
    alpha = _check_alpha(alpha, K)
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
