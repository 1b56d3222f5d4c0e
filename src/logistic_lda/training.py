"""Both training regimes for the encoder parameters theta.

Variational: alternate mean-field E-steps (beliefs p_items, clamped
labels where observed, persistent per-group alpha_hat) with gradient
steps on the cross-entropy against soft targets p_items + gamma * r_hat,
where r_hat is the running topic-usage estimate.  Beliefs and r_hat are
treated as constants inside the loss; only g(x, theta) carries gradient.

Discriminative: unroll n_iter coordinate updates from uniform beliefs
(one call of the mean-field E-step kernel, which tapes every sweep), then
backpropagate the label cross-entropy -c' ln p_label through every
update (softmax Jacobians, the digamma bias via trigamma, and the
alpha_hat accumulation) back into each use of the cached logits.

A table encoder's logit row depends only on the item's token, so the
variational step's softmax and log_softmax, the regularizer's two exps
and the per-epoch ELBO's log_softmax run once per vocabulary row of the
(V, K) table.T and are gathered per item, whenever V is no more than the
items they cover (`_rows_and_index`); the bits are those of the per-item
computation.  The step gathers the log_softmax rows once and hands them
to the loss and the regularizer alike.  Larger vocabularies, mlp encoders
and the discriminative regime stay per item.

One epoch loop, `train`, runs both; they differ only in the batch step.
It steps one copy of theta's flat parameter vector in place, so the given
parameters stay as they were.  The adjoint's numba twin is in
`backend.py`.  Epoch records go to stdout as JSON lines and optionally
to a metrics file.  A record's diagnostics (topic usage, ELBO, held-out
score) and the full-corpus beliefs they read are built only where the
records are printed, written or kept (`TrainConfig.keep_diagnostics`);
the loss, theta and the regularizer state are the same bits either way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .encoders import backward_batch, forward_logits_batch
from .errors import ContractError, DomainError, TrainingDivergedError
from .math_kernels import (
    SeededRng,
    _topic_sum,
    check_bool,
    check_int,
    check_real,
    digamma,  # noqa: F401  (a traced name; perfbench/spans.py wraps it here)
    expected_log_pi,
    ln_multivariate_beta,
    log_softmax,
    softmax,
    trigamma,
)
from .mean_field import (
    FlatGroups,
    _mean_field_batch,
    batch_mean_field,
    flatten_groups,  # noqa: F401  (a traced name; perfbench/spans.py wraps it here)
)
from .regularizer import RegularizerState, update_running_estimate

LOSS_FLOOR = 1e-30
# converged inference: each group sweeps until its own max |change in
# alpha_hat| < tol, at most this many sweeps
PREDICT_TOL = 1e-6
PREDICT_MAX_SWEEPS = 100

MODES = ("variational", "discriminative")
OPTIMIZERS = ("sgd", "momentum", "adam")
# adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    mode: str = "variational"
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay: float = 1.0  # lr at epoch e is lr * lr_decay**e
    optimizer: str = "adam"
    momentum: float = 0.9
    seed: int = 0
    clamp_labels: bool = True
    e_step_sweeps: int = 1
    track_elbo: bool = True
    metrics_path: str | os.PathLike | None = None
    verbose: bool = True
    # build each record's diagnostics even when the records are neither
    # printed nor written, for callers that read `TrainReport.records`
    keep_diagnostics: bool = True

    def __post_init__(self):
        for name in ("epochs", "batch_size", "e_step_sweeps"):
            setattr(self, name, check_int(getattr(self, name), name, 1))
        self.seed = check_int(self.seed, "seed")
        self.lr = check_real(self.lr, "lr", "[0, inf)")
        self.lr_decay = check_real(self.lr_decay, "lr_decay", "(0, 1]")
        self.momentum = check_real(self.momentum, "momentum")
        for name in ("clamp_labels", "track_elbo", "verbose", "keep_diagnostics"):
            setattr(self, name, check_bool(getattr(self, name), name))
        if self.metrics_path is not None and (
                not isinstance(self.metrics_path, (str, os.PathLike))
                or not os.fspath(self.metrics_path)):
            raise ContractError(
                f"metrics_path must be None or a non-empty path, got {self.metrics_path!r}")
        if self.mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}")
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(f"optimizer must be one of {OPTIMIZERS}")


@dataclass
class TrainReport:
    """One record per epoch.  Every record holds mode, epoch and loss (mean
    per item in variational mode, mean per group in discriminative mode),
    and floor_hits in discriminative mode.  Where the records have
    diagnostics (the config prints them, writes them to metrics_path or
    sets keep_diagnostics), each also holds topic_usage (items per argmax
    topic of the latest beliefs), elbo in variational mode with
    track_elbo, and eval_accuracy when an eval corpus was given."""

    mode: str
    records: list = field(default_factory=list)
    reg_state: object = None  # final topic-usage running average, if tracked

    @property
    def final_loss(self) -> float:
        return self.records[-1]["loss"]


@dataclass
class Optimizer:
    """In-place first-order updates of a flat float64 parameter vector:
    plain descent, heavy-ball momentum, or adaptive moments (the default
    elsewhere)."""

    kind: str = "adam"
    momentum: float = 0.9
    _m: np.ndarray | None = field(default=None, init=False)
    _v: np.ndarray | None = field(default=None, init=False)
    _t: int = field(default=0, init=False)

    def step(self, flat, grad, lr):
        """flat -= the step for `grad`, in place."""
        if self.kind == "sgd":
            flat -= lr * grad
            return
        if self._m is None:
            self._m, self._v = np.zeros_like(flat), np.zeros_like(flat)
        if self.kind == "momentum":
            self._m = self.momentum * self._m + grad
            flat -= lr * self._m
            return
        self._t += 1
        self._m = ADAM_BETA1 * self._m + (1.0 - ADAM_BETA1) * grad
        self._v = ADAM_BETA2 * self._v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self._m / (1.0 - ADAM_BETA1**self._t)
        v_hat = self._v / (1.0 - ADAM_BETA2**self._t)
        flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# variational regime

@dataclass
class _EStepCarry:
    """What the variational regime keeps across batches and epochs: each
    group's alpha_hat and label beliefs (the E-step's warm start) and the
    running topic-usage estimate."""

    alpha_hat: np.ndarray
    p_label: np.ndarray
    reg_state: RegularizerState
    total_items: int

    @classmethod
    def start(cls, flat, hyper):
        """alpha_hat = alpha and uniform label beliefs for every group."""
        D, K = flat.num_groups, hyper.num_topics
        return cls(alpha_hat=np.tile(hyper.alpha, (D, 1)), p_label=np.full((D, K), 1.0 / K),
                   reg_state=RegularizerState(rho=hyper.rho), total_items=flat.num_items)


def _by_vocab_row(theta, num_items):
    """Whether row-wise functions of the logits of num_items items run once
    per vocabulary row: a table encoder with no more columns than items."""
    return theta.kind == "table" and theta.table.shape[1] <= num_items


def _rows_and_index(fn, payload, theta, F=None):
    """(rows, index) such that item n's row of fn(F, axis=-1), for the
    logits F of the items in `payload`, is rows[index[n]].  A table
    encoder's logit row is its token's table column, and a row-wise function
    gives the same bits for a row whatever else is in the array, so where
    `_by_vocab_row` holds fn runs on the (V, K) table.T and index is the
    payload.  Otherwise F (computed when not given) takes fn, and index is
    None: the rows are the items'."""
    if _by_vocab_row(theta, len(payload)):
        return fn(np.ascontiguousarray(theta.table.T), axis=-1), payload
    if F is None:
        F = forward_logits_batch(payload, theta)
    return fn(F, axis=-1), None


def _gather(rows, index):
    return rows if index is None else np.take(rows, index, axis=0)


def _per_item(fn, payload, theta, F=None):
    """fn(F, axis=-1) for the logits F of the items in `payload` (`_rows_and_index`)."""
    return _gather(*_rows_and_index(fn, payload, theta, F))


def _soft_target_grad_wrt_logits(Q, S):
    # d/dF of -sum S * log_softmax(F):  softmax(F) * rowsum(S) - S, for Q = softmax(F);
    # the row sums are S.sum(axis=1) bit for bit, taken over S's K columns
    return Q * _topic_sum(S.T)[:, None] - S


def _variational_step(mini, batch_ids, theta, hyper, config, carry):
    """E-step from the batch's warm-started beliefs, then the gradient of
    -sum (p_items + gamma * r_hat)' g(x, theta) with beliefs and r_hat held
    constant.  Updates `carry`; returns (grad, p_items, loss, floor_hits)."""
    F, hidden = forward_logits_batch(mini.payload, theta, keep_hidden=True)
    if np.any(np.isnan(F) | (F == np.inf)):
        # -inf is a legal logit (impossible token); nan and +inf are not
        raise TrainingDivergedError("non-finite logits in variational step")
    P, PL, AH, _ = batch_mean_field(
        F, mini, hyper, config.clamp_labels, config.e_step_sweeps, tol=0.0,
        alpha_hat0=carry.alpha_hat[batch_ids], p_label0=carry.p_label[batch_ids],
    )
    rows, index = _rows_and_index(log_softmax, mini.payload, theta, F)
    g = _gather(rows, index)
    S = P
    if hyper.gamma > 0.0:
        carry.reg_state, r_hat = update_running_estimate(
            carry.reg_state, rows, carry.total_items, index=index,
            gathered=None if index is None else g)
        S = P + hyper.gamma * r_hat
    loss = -float(np.sum(S * g))
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite variational loss {loss!r}")
    Q = _per_item(softmax, mini.payload, theta, F)
    grad = backward_batch(mini.payload, theta, _soft_target_grad_wrt_logits(Q, S), hidden)
    carry.alpha_hat[batch_ids] = AH
    carry.p_label[batch_ids] = PL
    return grad, P, loss, 0


def _corpus_elbo(g, P, PL, AH, flat, hyper):
    """Sum of per-group bounds, vectorized over the whole corpus."""
    eln = expected_log_pi(AH)
    # P * (g + eln - ln P) where P > 0, else 0, evaluated in place in one
    # (N, K) buffer in the order the expression reads
    item = np.repeat(eln, flat.sizes(), axis=0)
    np.add(g, item, out=item)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(P)
        item -= log_p
        del log_p
        item *= P
        np.copyto(item, 0.0, where=~(P > 0.0))
        item_terms = item.sum()
        label_ent = -np.where(PL > 0.0, PL * np.log(PL), 0.0).sum()
    total = float(((hyper.alpha - 1.0) * eln).sum())
    total += float(item_terms)
    total += hyper.lam * float((PL * eln).sum()) + float(label_ent)
    total += float(ln_multivariate_beta(AH).sum()) - float(((AH - 1.0) * eln).sum())
    return total


# ---------------------------------------------------------------------------
# discriminative regime: unrolled forward and exact reverse-mode backward

def _unroll_fwd(F, offsets, alpha, lam, n_iter):
    """n_iter unclamped E-step sweeps from alpha_hat = alpha and uniform
    label beliefs, taped for the adjoint: P[t-1] holds the item beliefs of
    sweep t, A[:, t] and Q[:, t] the alpha_hat and label beliefs after it
    (index 0 is the start state).  One kernel call runs and tapes them."""
    total, K = F.shape
    D = offsets.shape[0] - 1
    P = np.empty((n_iter, total, K))
    A = np.empty((D, n_iter + 1, K))
    Q = np.empty((D, n_iter + 1, K))
    _mean_field_batch(
        F, offsets, alpha, lam, np.full(D, -1, dtype=np.int64), False, n_iter, 0.0,
        np.tile(alpha, (D, 1)), np.full((D, K), 1.0 / K), P, A, Q,
    )
    return P, A, Q


def _unroll_bwd_np(offsets, lam, P, A, Q, labels, n_iter, floor):
    D = offsets.shape[0] - 1
    total, K = P.shape[1], P.shape[2]
    sizes = np.diff(offsets)
    rows = np.arange(D)
    dF = np.zeros((total, K))
    p_true = Q[rows, n_iter, labels]
    floor_hits = int(np.sum(p_true < floor))
    losses = -np.log(np.maximum(p_true, floor))
    da_items = np.zeros((D, K))
    prev_da = None
    tri = trigamma(A[:, 1:])  # tri[:, t - 1] = trigamma(A[:, t])
    for t in range(n_iter, 0, -1):
        if t == n_iter:
            dV = Q[:, t].copy()
            dV[rows, labels] -= 1.0
        else:
            dq = lam * prev_da
            dV = Q[:, t] * (dq - np.sum(Q[:, t] * dq, axis=1, keepdims=True))
        da = lam * tri[:, t - 1] * dV + da_items
        da_rep = np.repeat(da, sizes, axis=0)
        dots = np.sum(P[t - 1] * da_rep, axis=1, keepdims=True)
        dU = P[t - 1] * (da_rep - dots)
        dF += dU
        if t > 1:
            da_items = tri[:, t - 2] * np.add.reduceat(dU, offsets[:-1], axis=0)
        prev_da = da
    return dF, losses, floor_hits


_unroll_bwd = backend.unroll_bwd or _unroll_bwd_np


def _discriminative_batch_grad(payload, offsets, labels, theta, hyper):
    """(mean cross-entropy over the batch, its flat gradient, floor hits,
    item beliefs after the last iteration)."""
    F, hidden = forward_logits_batch(payload, theta, keep_hidden=True)
    F = np.ascontiguousarray(F)
    P, A, Q = _unroll_fwd(F, offsets, hyper.alpha, float(hyper.lam), int(hyper.n_iter))
    dF, losses, floor_hits = _unroll_bwd(
        offsets, float(hyper.lam), P, A, Q, labels, int(hyper.n_iter), LOSS_FLOOR
    )
    D = offsets.shape[0] - 1
    grad = backward_batch(payload, theta, dF / D, hidden)
    return float(losses.mean()), grad, floor_hits, P[-1]


def _discriminative_step(mini, batch_ids, theta, hyper, config, carry):
    """Exact gradient of the batch's mean label cross-entropy through the
    unrolled updates.  Returns (grad, p_items, loss summed over groups,
    floor_hits)."""
    loss, grad, floor_hits, P_last = _discriminative_batch_grad(
        mini.payload, mini.offsets, mini.labels, theta, hyper
    )
    if not np.isfinite(loss):
        raise TrainingDivergedError("non-finite loss")
    return grad, P_last, loss * len(batch_ids), floor_hits


def predict_corpus(flat: FlatGroups, theta, hyper, converged=False):
    """Predictions for a packed corpus: exactly n_iter sweeps (the
    unrolled forward pass) or, with converged=True, sweeps to tolerance.
    Returns (labels, p_label, p_items)."""
    converged = check_bool(converged, "converged")
    F = forward_logits_batch(flat.payload, theta)
    sweeps, tol = (PREDICT_MAX_SWEEPS, PREDICT_TOL) if converged else (hyper.n_iter, 0.0)
    P, PL, _, _ = batch_mean_field(F, flat, hyper, False, sweeps, tol=tol)
    return np.argmax(PL, axis=1), PL, P


# ---------------------------------------------------------------------------
# epoch loop

def _emit(record, config: TrainConfig):
    line = json.dumps(record, sort_keys=True)
    if config.verbose:
        print(line, flush=True)
    if config.metrics_path:
        with open(config.metrics_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _eval_accuracy(eval_flat, theta, hyper, converged):
    labels = eval_flat.labels
    known = labels >= 0
    if not np.any(known):
        return None
    pred, _, _ = predict_corpus(eval_flat, theta, hyper, converged=converged)
    return float(np.mean(pred[known] == labels[known]))


def _batch_slices(flat, batch_ids):
    """The corpus rows of the groups batch_ids, in that order, and the
    batch's own offsets: one ragged arange, each group's run shifted from
    its batch position to its corpus position."""
    starts = flat.offsets[batch_ids]
    sizes = flat.offsets[batch_ids + 1] - starts
    offsets = np.zeros(len(batch_ids) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    idx = np.repeat(starts - offsets[:-1], sizes) + np.arange(offsets[-1])
    return idx, offsets


def train(flat: FlatGroups, theta, hyper, config: TrainConfig, eval_flat=None):
    """Epoch loop for both regimes; they differ only in the batch step.

    Variational: per-group alpha_hat and label beliefs persist across
    epochs (warm starts) and the regularizer running average across
    batches.  Discriminative: every group must be labeled.  eval_flat,
    when given, is scored after every epoch.  The diagnostics of a record
    (`TrainReport`) are built only where the records are printed, written or
    kept (`TrainConfig.keep_diagnostics`).  Returns (theta, report): new
    parameters, stepped in place on one copy of the given ones, which stay
    as they were."""
    flat.check()
    D, K = flat.num_groups, hyper.num_topics
    variational = config.mode == "variational"
    if variational:
        step, carry = _variational_step, _EStepCarry.start(flat, hyper)
        loss_per = flat.num_items  # the record's loss is the mean per item
    else:
        if np.any(flat.labels < 0):
            raise ContractError("discriminative training requires a label on every group")
        if np.any(flat.labels >= K):
            raise DomainError("label outside [0, K)")
        step, carry = _discriminative_step, None
        loss_per = D  # the record's loss is the mean per group
    rng = SeededRng(config.seed)
    opt = Optimizer(kind=config.optimizer, momentum=config.momentum)
    theta = theta.with_flat(theta.flat.copy())
    diagnostics = config.verbose or config.metrics_path is not None or config.keep_diagnostics
    # every item's latest beliefs, for the records' topic usage and ELBO
    P_full = np.full((flat.num_items, K), 1.0 / K) if diagnostics else None
    report = TrainReport(mode=config.mode)
    for epoch in range(config.epochs):
        lr = config.lr * config.lr_decay**epoch
        order = rng.gen.permutation(D)
        loss_sum = 0.0
        floor_total = 0
        for start in range(0, D, config.batch_size):
            batch_ids = order[start : start + config.batch_size]
            idx, offsets_b = _batch_slices(flat, batch_ids)
            mini = FlatGroups(payload=flat.payload[idx], offsets=offsets_b,
                              labels=flat.labels[batch_ids])
            try:
                grad, P_b, loss, floor_hits = step(mini, batch_ids, theta, hyper, config, carry)
                if not np.all(np.isfinite(grad)):
                    raise TrainingDivergedError("non-finite gradient")
                opt.step(theta.flat, grad, lr)
                if not np.all(np.isfinite(theta.flat)):
                    raise TrainingDivergedError("parameters overflowed after update")
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}, groups {start}..{start + len(batch_ids)}: {exc}"
                ) from exc
            if diagnostics:
                P_full[idx] = P_b
            loss_sum += loss
            floor_total += floor_hits
        record = {"mode": config.mode, "epoch": epoch, "loss": loss_sum / loss_per}
        if not variational:
            record["floor_hits"] = floor_total
        if diagnostics:
            record["topic_usage"] = np.bincount(np.argmax(P_full, axis=1), minlength=K).tolist()
            if variational and config.track_elbo:
                g = _per_item(log_softmax, flat.payload, theta)
                record["elbo"] = _corpus_elbo(g, P_full, carry.p_label, carry.alpha_hat, flat,
                                              hyper)
            if eval_flat is not None:
                record["eval_accuracy"] = _eval_accuracy(eval_flat, theta, hyper,
                                                         converged=variational)
        report.records.append(record)
        _emit(record, config)
    if variational and hyper.gamma > 0.0:
        report.reg_state = carry.reg_state
    return theta, report
