"""Independent oracles shared by the test suite.

The special-function, gradient, ELBO and Gibbs oracles are written
straight from first principles (mpmath, math.lgamma, scipy, brute-force
loops) so they share no code path with the package being tested.

The exact topic-usage regularizer, its responsibilities and its lower
bound are the closed forms whose gradient the running estimate in
`logistic_lda.regularizer` approximates; `gibbs_conditional` and
`check_counts` state, one item at a time, what the shipped collapsed
Gibbs kernel computes in bulk.

The single-group reference path (init_state ... unrolled_backward) is
the readable one-group-at-a-time form of the coordinate updates and of
the unrolled adjoint.  It borrows only the package's encoder forward pass
and elementwise special functions; its loops and bookkeeping are its own,
so it checks the packed batch kernels that training and inference run.

The reference_* kernels at the end are the earlier, plainer numpy forms
of softmax, log_softmax, digamma, trigamma, the table encoder's backward
scatter and the corpus ELBO; the shipped kernels must match them bit for
bit.  reference_mean_field_batch is the earlier numpy mean-field batch
kernel, which keeps the item beliefs as (N, K) rows; the topic-major
kernel must give the same beliefs, alpha_hat, sweep counts and tapes.
reference_load_corpus is the earlier corpus loader, which reads the
whole file at once (reference_read_lines), then decodes and validates it
line by line and builds one Item per entry (a version-2 dense row is
unpacked on its own with struct); the streaming array loader must produce
the same packed corpus from a valid file and the same error from a
broken one.
reference_generate_corpus is the earlier synthetic-corpus generator, one
group at a time; the one-draw generator must give the same groups, latents
and RNG state bit for bit.
"""

import base64
import math
import struct
from dataclasses import dataclass

import numpy as np

from logistic_lda.encoders import forward_logits_batch
from logistic_lda.errors import ContractError, DomainError
from logistic_lda.math_kernels import (
    _max,
    check_positive_vector,
    digamma,
    log_sum_exp,
    softmax,
    trigamma,
)
from logistic_lda.mean_field import group_payload

DEFAULT_ORDER = ("items", "alpha", "label")
LOSS_FLOOR = 1e-30


def psi_oracle(xs, order=0, dps=30):
    """High-precision digamma (order 0) or trigamma (order 1) via mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        return np.array([float(mp.polygamma(order, mp.mpf(float(x)))) for x in np.atleast_1d(xs)])


def central_difference_grad(fn, x0, h=1e-5):
    """Central finite-difference gradient of scalar fn at flat vector x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def max_relative_error(analytic, numeric):
    """Max component deviation relative to the gradient's overall scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def reference_group_elbo(g_logprob, p_items, p_label, alpha_hat, alpha, lam):
    """Straight-line ELBO for one group, up to terms constant in q.

    Arguments are plain arrays: g_logprob (N, K), p_items (N, K),
    p_label (K,), alpha_hat/alpha (K,). Written directly from the factor
    form of the joint with scipy's digamma/gammaln, independent of the
    package's kernels.
    """
    from scipy.special import digamma as sp_digamma, gammaln as sp_gammaln

    alpha_hat = np.asarray(alpha_hat, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    eln_pi = sp_digamma(alpha_hat) - sp_digamma(alpha_hat.sum())

    def xlogy(x, y):
        out = np.zeros_like(x)
        m = x > 0
        out[m] = x[m] * np.log(y[m])
        return out

    def xmuly(x, y):
        # x * y with the 0 * (-inf) = 0 convention
        out = np.zeros_like(x)
        m = x > 0
        out[m] = x[m] * y[m]
        return out

    total = float((alpha - 1.0) @ eln_pi)
    for n in range(p_items.shape[0]):
        total += float(xmuly(p_items[n], g_logprob[n]).sum())
        total += float(p_items[n] @ eln_pi)
        total -= float(xlogy(p_items[n], p_items[n]).sum())  # H[q(k_n)]
    total += lam * float(p_label @ eln_pi)
    total -= float(xlogy(p_label, p_label).sum())  # H[q(c)]
    # Dirichlet entropy
    ln_b = float(sp_gammaln(alpha_hat).sum() - sp_gammaln(alpha_hat.sum()))
    total += ln_b - float((alpha_hat - 1.0) @ eln_pi)
    return total


def lda_collapsed_pair_posterior(tokens, alpha, eta, K, V):
    """Exact posterior over joint topic assignments of a tiny single document.

    Enumerates every assignment tuple z in K^N and scores the collapsed
    joint p(z, w) with log-gamma identities; returns a dict mapping the
    tuple to its normalized probability.
    """
    import itertools

    tokens = list(tokens)
    n_items = len(tokens)
    alpha = np.asarray(alpha, dtype=np.float64)

    def ln_multi_beta(vec):
        return sum(math.lgamma(v) for v in vec) - math.lgamma(sum(vec))

    scores = {}
    for z in itertools.product(range(K), repeat=n_items):
        n_dk = np.zeros(K)
        n_kv = np.zeros((K, V))
        for zi, tok in zip(z, tokens):
            n_dk[zi] += 1
            n_kv[zi, tok] += 1
        lp = ln_multi_beta(alpha + n_dk) - ln_multi_beta(alpha)
        for k in range(K):
            lp += ln_multi_beta(np.full(V, eta) + n_kv[k]) - ln_multi_beta(np.full(V, eta))
        scores[z] = lp
    mx = max(scores.values())
    weights = {z: math.exp(lp - mx) for z, lp in scores.items()}
    total = sum(weights.values())
    return {z: w / total for z, w in weights.items()}


# ---------------------------------------------------------------------------
# single-group reference path: mean-field coordinate updates


@dataclass
class MeanFieldState:
    alpha_hat: np.ndarray
    p_label: np.ndarray
    p_items: np.ndarray  # (N, K)
    clamped: bool = False


def init_state(group, hyper, clamp_label=False):
    """Uniform beliefs and alpha_hat = alpha; the label belief is the
    observed one-hot when clamping is requested and a label exists."""
    K = hyper.num_topics
    if group.label is not None and group.label >= K:
        raise DomainError(f"group {group.id!r}: label {group.label} outside [0, {K})")
    clamped = clamp_label and group.label is not None
    if clamped:
        p_label = np.zeros(K)
        p_label[group.label] = 1.0
    else:
        p_label = np.full(K, 1.0 / K)
    return MeanFieldState(
        alpha_hat=hyper.alpha.copy(),
        p_label=p_label,
        p_items=np.full((len(group.items), K), 1.0 / K),
        clamped=clamped,
    )


def update_item_beliefs(state, group, theta):
    f = forward_logits_batch(group_payload(group), theta)
    state.p_items = softmax(f + digamma(state.alpha_hat), axis=-1)
    return state.p_items


def update_alpha(state, hyper):
    state.alpha_hat = hyper.alpha + state.p_items.sum(axis=0) + hyper.lam * state.p_label
    return state.alpha_hat


def update_label_beliefs(state, hyper):
    if not state.clamped:
        state.p_label = softmax(hyper.lam * digamma(state.alpha_hat))
    return state.p_label


def sweep(group, state, theta, hyper, order=DEFAULT_ORDER):
    """Apply the three coordinate updates once, in the given order."""
    for step in order:
        if step == "items":
            update_item_beliefs(state, group, theta)
        elif step == "alpha":
            update_alpha(state, hyper)
        elif step == "label":
            update_label_beliefs(state, hyper)
        else:
            raise ContractError(f"unknown update {step!r}")
    return state


def run_sweeps(group, state, theta, hyper, order=DEFAULT_ORDER, tol=1e-6, max_sweeps=100):
    """Sweep until max |change in alpha_hat| < tol, or the cap is hit.
    Returns (state, sweeps_done)."""
    for s in range(max_sweeps):
        prev = state.alpha_hat
        sweep(group, state, theta, hyper, order)
        if np.max(np.abs(state.alpha_hat - prev)) < tol:
            return state, s + 1
    return state, max_sweeps


# ---------------------------------------------------------------------------
# single-group reference path: unrolled forward and its adjoint


@dataclass
class UnrollTape:
    """Everything the backward pass needs: cached logits and the beliefs
    after each of the n_iter iterations (index 0 holds the start state)."""

    f: np.ndarray  # (N, K)
    p_items: np.ndarray  # (T, N, K)
    alpha_hat: np.ndarray  # (T+1, K)
    p_label: np.ndarray  # (T+1, K)


def unrolled_forward(group, theta, hyper):
    """Run exactly n_iter iterations of the three updates from uniform
    beliefs, caching f once.  Returns (p_label, tape)."""
    f = forward_logits_batch(group_payload(group), theta)
    T, K, N = hyper.n_iter, hyper.num_topics, f.shape[0]
    P = np.empty((T, N, K))
    A = np.empty((T + 1, K))
    Q = np.empty((T + 1, K))
    A[0] = hyper.alpha
    Q[0] = 1.0 / K
    for t in range(1, T + 1):
        P[t - 1] = softmax(f + digamma(A[t - 1]), axis=-1)
        A[t] = hyper.alpha + P[t - 1].sum(axis=0) + hyper.lam * Q[t - 1]
        Q[t] = softmax(hyper.lam * digamma(A[t]))
    return Q[T], UnrollTape(f=f, p_items=P, alpha_hat=A, p_label=Q)


def unrolled_backward(tape, label, hyper):
    """Adjoint sweep over one group's tape.  Returns (dF, loss, floored)
    with dF the gradient of the cross-entropy wrt the cached logits."""
    T = hyper.n_iter
    lam = hyper.lam
    A, Q, P = tape.alpha_hat, tape.p_label, tape.p_items
    p_true = Q[T, label]
    floored = bool(p_true < LOSS_FLOOR)
    loss = -float(np.log(max(p_true, LOSS_FLOOR)))
    dF = np.zeros_like(tape.f)
    da_items = np.zeros(A.shape[1])
    prev_da = None
    for t in range(T, 0, -1):
        if t == T:
            dV = Q[T].copy()
            dV[label] -= 1.0
        else:
            dq = lam * prev_da
            dV = Q[t] * (dq - float(Q[t] @ dq))
        da = lam * trigamma(A[t]) * dV + da_items
        dots = P[t - 1] @ da
        dU = P[t - 1] * (da - dots[:, None])
        dF += dU
        if t > 1:
            da_items = trigamma(A[t - 1]) * dU.sum(axis=0)
        prev_da = da
    return dF, loss, floored


# ---------------------------------------------------------------------------
# exact topic-usage regularizer


def _as_g_matrix(g_all):
    # the refusals of regularizer.update_running_estimate
    g = np.asarray(g_all, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] == 0:
        raise ContractError("need a non-empty (num_items, K) array of log-probabilities")
    if np.any(np.isnan(g)) or np.any(g == np.inf):
        raise DomainError("log-probabilities must be < inf and not NaN")
    return g


def regularizer_value(g_all, gamma: float) -> float:
    """gamma * sum_k ln sum_dn exp g_k, via log_sum_exp per topic column."""
    g = _as_g_matrix(g_all)
    if gamma == 0.0:
        return 0.0
    return float(gamma * np.sum(log_sum_exp(g, axis=0)))


def responsibilities(g_all) -> np.ndarray:
    """r_dnk = exp g_k(x_dn) / sum_dn exp g_k; columns sum to one."""
    g = _as_g_matrix(g_all)
    return np.exp(g - log_sum_exp(g, axis=0))


def bound_value(g_all, r, gamma: float) -> float:
    """Lower bound gamma * sum r_dnk ln(exp g_k / r_dnk); tight (equal to
    regularizer_value) exactly when r = responsibilities(g_all)."""
    g = _as_g_matrix(g_all)
    r = np.asarray(r, dtype=np.float64)
    if r.shape != g.shape:
        raise ContractError("r must match the shape of g")
    if np.any(r < 0):
        raise DomainError("responsibilities must be non-negative")
    if np.any((r == 0.0) & (g > -np.inf)):
        raise DomainError("zero responsibility assigned to an item with nonzero mass")
    if gamma == 0.0:
        return 0.0
    live = r > 0.0
    with np.errstate(divide="ignore"):
        terms = r[live] * (g[live] - np.log(r[live]))
    return float(gamma * terms.sum())


# ---------------------------------------------------------------------------
# collapsed Gibbs, one item at a time


def gibbs_conditional(state, d, token, alpha):
    """p(k) for one held-out item: (n_dk + alpha_k + bias_dk) *
    (n_kv + eta) / (n_k + V*eta), normalized.  Counts must already exclude
    the item being resampled."""
    alpha = check_positive_vector(alpha)
    if alpha.shape[0] != state.num_topics:
        raise ContractError("alpha length does not match topic count")
    if np.any(state.n_dk < 0) or np.any(state.n_kv < 0) or np.any(state.n_k < 0):
        raise ContractError("negative count; state does not exclude the item")
    V = state.vocab_size
    p = (
        (state.n_dk[d] + alpha + state.label_bias[d])
        * (state.n_kv[:, token] + state.eta)
        / (state.n_k + V * state.eta)
    )
    total = p.sum()
    if not total > 0.0:
        raise DomainError("degenerate assignment conditional")
    return p / total


def check_counts(state, flat):
    """Raise unless the count caches agree with z exactly."""
    gid = np.repeat(np.arange(flat.num_groups), flat.sizes())
    n_dk = np.zeros_like(state.n_dk)
    n_kv = np.zeros_like(state.n_kv)
    np.add.at(n_dk, (gid, state.z), 1.0)
    np.add.at(n_kv, (state.z, flat.payload), 1.0)
    if (
        not np.array_equal(n_dk, state.n_dk)
        or not np.array_equal(n_kv, state.n_kv)
        or not np.array_equal(n_kv.sum(axis=1), state.n_k)
    ):
        raise ContractError("Gibbs counts are inconsistent with assignments")


# ---------------------------------------------------------------------------
# earlier numpy kernels, kept as bitwise references
#
# The shipped forms are faster (the row max of a transposed copy, masked
# in-place digamma/trigamma shifts, bincount scatters, an in-place ELBO item
# term) and must not change an output bit.  These keep their validation
# too, so tests can require equal bits and equal errors.


def _reference_check_logits(v, name):
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ContractError(f"{name} of an empty array")
    if np.any(np.isnan(v)) or np.any(v == np.inf):
        raise DomainError(f"{name} requires entries in [-inf, +inf)")
    return v


def reference_softmax(v, axis=-1):
    v = _reference_check_logits(v, "softmax")
    m = np.max(v, axis=axis, keepdims=True)
    if np.any(m == -np.inf):
        raise DomainError("softmax of all -inf logits is undefined")
    e = np.exp(v - m)
    return e / e.sum(axis=axis, keepdims=True)


def reference_log_softmax(v, axis=-1):
    v = _reference_check_logits(v, "log_softmax")
    m = np.max(v, axis=axis, keepdims=True)
    if np.any(m == -np.inf):
        raise DomainError("log_softmax of all -inf logits is undefined")
    shifted = v - m
    with np.errstate(divide="ignore"):
        return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def reference_log_sum_exp(v, axis):
    """log_sum_exp over one axis with np.max taking every max."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ContractError("log_sum_exp of an empty array")
    m = np.max(v, axis=axis, keepdims=True)
    if not np.all(m < np.inf):
        raise DomainError("log_sum_exp requires entries in [-inf, +inf)")
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m_safe, axis=axis) + np.log(np.exp(v - m_safe).sum(axis=axis))


def _reference_psi(x, name, shift, finish):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise DomainError(f"{name} of an empty argument")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError(f"{name} requires finite, strictly positive arguments")
    x = arr.ravel().copy()
    acc = np.zeros_like(x)
    for _ in range(6):
        m = x < 6.0
        if not m.any():
            break
        shift(acc, x, m)
        x[m] += 1.0
    out = finish(acc, x, 1.0 / (x * x)).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def reference_digamma(x):
    from logistic_lda.math_kernels import _digamma_tail

    def shift(acc, x, m):
        acc[m] -= 1.0 / x[m]

    def finish(acc, x, z):
        return acc + np.log(x) - 0.5 / x - _digamma_tail(z)

    return _reference_psi(x, "digamma", shift, finish)


def reference_trigamma(x):
    from logistic_lda.math_kernels import _trigamma_tail

    def shift(acc, x, m):
        acc[m] += 1.0 / (x[m] * x[m])

    def finish(acc, x, z):
        return acc + 1.0 / x + 0.5 * z + _trigamma_tail(z) / x

    return _reference_psi(x, "trigamma", shift, finish)


def reference_table_backward(tokens, table_shape, dF):
    """Gradient of sum_n <dF[n], table[:, tokens[n]]> wrt a (K, V) table,
    scattered with np.add.at."""
    grad = np.zeros(table_shape)
    np.add.at(grad.T, np.asarray(tokens), np.asarray(dF, dtype=np.float64))
    return grad


def reference_corpus_elbo(g, P, PL, AH, flat, hyper):
    """training._corpus_elbo with its item term as one np.where expression."""
    from logistic_lda.math_kernels import expected_log_pi, ln_multivariate_beta

    eln = expected_log_pi(AH)
    eln_rep = np.repeat(eln, flat.sizes(), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        item_terms = np.where(P > 0.0, P * (g + eln_rep - np.log(P)), 0.0).sum()
        label_ent = -np.where(PL > 0.0, PL * np.log(PL), 0.0).sum()
    total = float(((hyper.alpha - 1.0) * eln).sum())
    total += float(item_terms)
    total += hyper.lam * float((PL * eln).sum()) + float(label_ent)
    total += float(ln_multivariate_beta(AH).sum()) - float(((AH - 1.0) * eln).sum())
    return total


def _reference_sweep(F, sizes, starts, alpha, lam, AH, PL, clamped, psi):
    P = softmax(F + np.repeat(psi, sizes, axis=0), axis=-1)
    AH = alpha + np.add.reduceat(P, starts, axis=0) + lam * PL
    psi = digamma(AH)
    new_PL = softmax(lam * psi, axis=-1)
    if clamped.any():
        new_PL[clamped] = PL[clamped]
    return P, AH, new_PL, psi


def reference_mean_field_batch(F, offsets, alpha, lam, labels, clamp, max_sweeps, tol, AH0,
                               PL0, tape_P, tape_A, tape_Q):
    """The earlier numpy batch kernel, with the shipped kernels' signature:
    item beliefs as (N, K) rows, one softmax over them per sweep."""
    sizes = np.diff(offsets)
    AH = AH0.copy()
    PL = PL0.copy()
    clamped = labels >= 0 if clamp else np.zeros(labels.shape, dtype=bool)
    PL[clamped] = 0.0
    PL[clamped, labels[clamped]] = 1.0
    P = np.empty_like(F)
    psi = digamma(AH)
    if tol <= 0.0:
        taped = tape_P.shape[0] > 0
        if taped:
            tape_A[:, 0], tape_Q[:, 0] = AH, PL
        for t in range(1, max_sweeps + 1):
            P, AH, PL, psi = _reference_sweep(F, sizes, offsets[:-1], alpha, lam, AH, PL,
                                              clamped, psi)
            if taped:
                tape_P[t - 1], tape_A[:, t], tape_Q[:, t] = P, AH, PL
        return P, PL, AH, max_sweeps
    rows = np.arange(F.shape[0])
    moving = np.arange(sizes.size)
    Fm, sm, starts, AHm, PLm, psim, cm = F, sizes, offsets[:-1], AH, PL, psi, clamped
    sweeps = 0
    while moving.size and sweeps < max_sweeps:
        Pm, new_AH, PLm, psim = _reference_sweep(Fm, sm, starts, alpha, lam, AHm, PLm, cm, psim)
        sweeps += 1
        stop = (_max(np.abs(new_AH - AHm), 1)[:, 0] < tol) | (sweeps == max_sweeps)
        AHm = new_AH
        if stop.any():
            item_stop = np.repeat(stop, sm)
            P[rows[item_stop]] = Pm[item_stop]
            AH[moving[stop]] = AHm[stop]
            PL[moving[stop]] = PLm[stop]
            keep, item_keep = ~stop, ~item_stop
            Fm, rows = Fm[item_keep], rows[item_keep]
            moving, sm, cm = moving[keep], sm[keep], cm[keep]
            AHm, PLm, psim = AHm[keep], PLm[keep], psim[keep]
            starts = np.cumsum(sm) - sm
    return P, PL, AH, sweeps


# ---------------------------------------------------------------------------
# the earlier corpus loader, kept as a reference for the array loader


@dataclass
class ReferenceCorpus:
    groups: list
    num_topics: int
    payload: object  # data_io.PayloadSpec
    vocab: tuple = None


def reference_read_lines(path):
    """The file's lines as text: the whole file is read, split at \\n, and
    each line decoded when it is reached; bytes that are not UTF-8 are a
    format error on the line that holds them."""
    from logistic_lda.errors import CorpusFormatError

    with open(path, "rb") as fh:
        pieces = fh.read().split(b"\n")
    if pieces[-1] == b"":  # the file ends with \\n, or is empty
        pieces.pop()
    for lineno, piece in enumerate(pieces, start=1):
        try:
            line = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None
        yield line


def reference_load_corpus(path):
    """The corpus file as Group/Item objects, each entry checked on its own."""
    from logistic_lda.data_io import (
        PayloadSpec,
        _dense_rows,
        _is_int,
        _parse_json_line,
        _read_header,
        _require,
    )
    from logistic_lda.encoders import Item
    from logistic_lda.errors import CorpusFormatError
    from logistic_lda.mean_field import Group

    lines = reference_read_lines(path)
    header = _read_header(next(lines, ""), "corpus")
    k = header.get("k")
    _require(_is_int(k) and k >= 1, 1, "header k must be a positive integer")
    payload = header.get("payload")
    _require(
        isinstance(payload, dict) and len(payload) == 1
        and next(iter(payload)) in ("token", "dense"),
        1, "header payload must be {\"token\": V} or {\"dense\": E}",
    )
    kind, size = next(iter(payload.items()))
    _require(_is_int(size) and size >= 1, 1, "payload size must be a positive integer")
    vocab = header.get("vocab")
    if vocab is not None:
        _require(kind == "token", 1, "vocab only applies to token corpora")
        _require(isinstance(vocab, list) and len(vocab) == size, 1,
                 "vocab length must equal vocabulary size")
        _require(all(isinstance(w, str) for w in vocab), 1, "vocab entries must be strings")

    binary = kind == "dense" and header["version"] == 2
    groups = []
    for lineno, raw in enumerate(lines, start=2):
        if not raw.strip():
            raise CorpusFormatError(f"line {lineno}: blank line")
        rec = _parse_json_line(raw, lineno)
        _require(isinstance(rec, dict), lineno, "group record must be an object")
        gid = rec.get("id")
        _require(isinstance(gid, str) and gid, lineno, "group id must be a non-empty string")
        items_raw = rec.get("items")
        if binary:
            _require(isinstance(items_raw, str), lineno, "items must be a base64 string")
        else:
            _require(isinstance(items_raw, list) and items_raw, lineno,
                     "items must be a non-empty list")
        label = rec.get("label")
        if label is not None:
            _require(_is_int(label) and 0 <= label < k, lineno,
                     f"label {label!r} not in [0, {k})")
        if kind == "token":
            items = []
            for j, entry in enumerate(items_raw):
                _require(_is_int(entry), lineno, f"item {j}: token must be an integer")
                _require(0 <= entry < size, lineno,
                         f"item {j}: token {entry} not in [0, {size})")
                items.append(Item(token=entry))
        elif binary:
            try:
                data = base64.b64decode(items_raw, validate=True)
            except ValueError as exc:
                raise CorpusFormatError(f"line {lineno}: items are not base64 ({exc})") from None
            width = 8 * size
            _require(data and len(data) % width == 0, lineno,
                     f"items hold {len(data)} bytes, not one or more rows of {size} float64")
            items = []
            for j in range(len(data) // width):
                row = struct.unpack_from(f"<{size}d", data, j * width)
                _require(all(map(math.isfinite, row)), lineno,
                         f"item {j}: embedding has non-finite entries")
                items.append(Item(dense=np.array(row)))
        else:
            items = [Item(dense=row) for row in _dense_rows(items_raw, size, lineno)]
        groups.append(Group(id=gid, items=items, label=label))
    if not groups:
        raise CorpusFormatError("line 2: corpus has no groups")
    return ReferenceCorpus(groups=groups, num_topics=k,
                           payload=PayloadSpec(kind=kind, size=size),
                           vocab=None if vocab is None else tuple(vocab))


# ---------------------------------------------------------------------------
# the earlier synthetic-corpus generator, kept as a reference for the one-draw form


def reference_generate_corpus(K, V, D, N_per_doc, alpha, beta, rng, labeled=False):
    """generate_corpus one group at a time, for valid arguments: per group,
    N topic uniforms, then N token uniforms searched topic by topic."""
    from logistic_lda.encoders import Item
    from logistic_lda.lda_baseline import CorpusTruth
    from logistic_lda.math_kernels import sample_dirichlet
    from logistic_lda.mean_field import Group

    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    pi = sample_dirichlet(np.broadcast_to(alpha, (D, K)), rng)

    beta_cum = np.cumsum(beta, axis=1)
    groups = []
    z_all = np.empty(D * N_per_doc, dtype=np.int64)
    labels = pi.argmax(axis=1)
    for d in range(D):
        cum = np.cumsum(pi[d])
        z_d = np.searchsorted(cum, rng.gen.random(N_per_doc), side="right")
        np.clip(z_d, 0, K - 1, out=z_d)
        toks = np.empty(N_per_doc, dtype=np.int64)
        u = rng.gen.random(N_per_doc)
        for k in np.unique(z_d):
            mask = z_d == k
            toks[mask] = np.searchsorted(beta_cum[k], u[mask], side="right")
        np.clip(toks, 0, V - 1, out=toks)
        z_all[d * N_per_doc : (d + 1) * N_per_doc] = z_d
        groups.append(
            Group(
                id=f"d{d}",
                items=[Item(token=int(t)) for t in toks],
                label=int(labels[d]) if labeled else None,
            )
        )
    return groups, CorpusTruth(pi=pi, z=z_all, labels=labels)
