"""Mean-field variational inference per group, run over packed corpora.

A group d carries items x_d1..x_dN and optionally a label c_d.  The
factorized posterior q(pi_d) q(c_d) prod_n q(k_dn) is parameterized by

    alpha_hat  Dirichlet parameter of q(pi_d)
    p_label    categorical beliefs of q(c_d), one-hot and frozen when the
               label is observed and clamping is requested
    p_items    categorical beliefs of q(k_dn), one row per item

The three coordinate updates (any order is valid):

    p_items[n] = softmax(f(x_dn, theta) + psi(alpha_hat))
    alpha_hat  = alpha + sum_n p_items[n] + lam * p_label
    p_label    = softmax(lam * psi(alpha_hat))        unless clamped

Each update maximizes the evidence lower bound in its own coordinate, so
the bound is non-decreasing along any update sequence with theta held
fixed.

The flattened batch kernel below (its numba twin is in `backend.py`) runs
the updates for a whole packed corpus.  It is the only sweep in the
package: inference, the variational E-step and the discriminative
regime's unrolled forward pass (one call of n_iter sweeps that tapes each
sweep's state) all run it.  With theta fixed, no
group's updates read another group's state, so a convergence tolerance
is a per-group rule: each group stops once its own alpha_hat settles,
exactly as it would in a corpus of its own.  A readable single-group
copy lives with the tests as their oracle.

The numpy kernel is topic-major.  It sweeps the logits as one (K, N)
array and keeps each sweep's item beliefs as K contiguous rows of N
items, because numpy pays a fixed cost on every short row of an (N, K)
array and K is 5-10.  That array is a copy of the caller's logits, or,
when the caller hands them over (`overwrite_F`, as `predict_corpus` does
with its topic-major logits), the array they came from.  The converged
path works in that one buffer: as groups stop, the moving groups' logits
are compacted in place, row by row, into its first columns, the stopped
items' beliefs are parked in the columns this frees, and the (N, K)
beliefs are assembled once, after the last sweep.  It gives the bits of
the row-major form, which the tests keep as their oracle: the logit sum,
the shift and the exp are elementwise; a max is exact in any order;
`_topic_sum` adds the K entries of each item in numpy's own row order;
and np.add.reduceat over the (N, K) view of the beliefs adds each
group's rows in the order it adds them in a row-major array.  Only the
outputs are (N, K): the beliefs that callers get and the taped ones are
written through a transposed view.

Each sweep takes one digamma of alpha_hat, which the label update reads
and the next sweep's item update starts from, so a call of n sweeps
takes n + 1.  A caller that carries alpha_hat from call to call (the
variational E-step) carries psi = digamma(alpha_hat) beside it: every
kernel takes an optional (D, K) psi array holding digamma of the
warm-start alpha_hat, uses it in place of its first digamma, and
overwrites it with digamma of the alpha_hat it returns, so a call of n
sweeps takes n.  Both are the same elementwise digamma, so the bits are
those of the call without psi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import ContractError, DomainError
from .math_kernels import (
    _max,
    _softmax_topics,
    check_bool,
    check_int,
    check_positive_vector,
    check_real,
    digamma,
    softmax,
)


@dataclass
class Group:
    """One document/user/collection of items, optionally labeled."""

    id: str
    items: list
    label: int | None = None

    def __post_init__(self):
        if not (isinstance(self.id, str) and self.id):
            raise ContractError(f"ids must be one non-empty string per group, got {self.id!r}")
        if not self.items:
            raise ContractError(f"group {self.id!r} has no items")
        if self.label is not None:
            self.label = check_int(self.label, "label")
            if self.label < 0:
                raise DomainError(f"group {self.id!r}: label must be a non-negative index")


@dataclass
class HyperParams:
    """Model hyperparameters.  `lam` is the label-coupling strength
    (lambda is a reserved word), `gamma` the topic-usage regularizer
    weight, `n_iter` the number of unrolled update iterations, `rho` the
    decay of the running topic-usage estimate."""

    alpha: np.ndarray
    lam: float = 1.0
    gamma: float = 0.0
    n_iter: int = 5
    rho: float = 0.99

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        check_positive_vector(self.alpha)
        self.lam = check_real(self.lam, "lam", "[0, inf)")
        self.gamma = check_real(self.gamma, "gamma", "[0, inf)")
        self.n_iter = check_int(self.n_iter, "n_iter", 1)
        self.rho = check_real(self.rho, "rho", "[0, 1)")

    @property
    def num_topics(self) -> int:
        return self.alpha.size


def group_payload(group: Group):
    """Stack the group's item payloads into one array for the encoder."""
    first = group.items[0]
    if first.dense is not None:
        return np.stack([it.dense for it in group.items])
    return np.array([it.token for it in group.items], dtype=np.int64)


# ---------------------------------------------------------------------------
# flattened batch layer

@dataclass
class FlatGroups:
    """A corpus packed for the batch kernels: payload rows for all items in
    group order, offsets[d]:offsets[d+1] delimiting group d, labels with -1
    where absent."""

    payload: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray
    ids: list = field(default_factory=list)

    @property
    def num_groups(self) -> int:
        return self.offsets.size - 1

    @property
    def num_items(self) -> int:
        return int(self.offsets[-1])

    def sizes(self):
        return self.offsets[1:] - self.offsets[:-1]  # np.diff, without its per-call overhead

    def check(self):
        """Refuse a packing the kernels cannot read: offsets that do not split
        the payload rows into one or more non-empty groups (np.add.reduceat
        gives an empty group the next row), a payload that is neither 1-d
        integer tokens nor 2-d float rows, labels that are not one integer
        per group, and ids that are neither empty nor one non-empty string
        per group."""
        offsets, payload = np.asarray(self.offsets), np.asarray(self.payload)
        if (offsets.ndim != 1 or offsets.size < 2 or offsets.dtype.kind not in "iu"
                or payload.ndim < 1 or offsets[0] != 0 or offsets[-1] != payload.shape[0]
                or (offsets[1:] <= offsets[:-1]).any()):
            raise ContractError("offsets must split the payload rows into non-empty groups")
        kind = payload.dtype.kind
        if not ((payload.ndim == 1 and kind in "iu") or (payload.ndim == 2 and kind == "f")):
            raise ContractError("payload must be 1-d integer tokens or 2-d float rows")
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu" or labels.shape != (offsets.size - 1,):
            raise ContractError("labels must be one integer per group")
        if self.ids and (len(self.ids) != labels.size
                         or not all(isinstance(g, str) and g for g in self.ids)):
            raise ContractError("ids must be one non-empty string per group, or none")


def flatten_groups(groups) -> FlatGroups:
    if not groups:
        raise ContractError("need at least one group")
    try:
        payloads = [group_payload(g) for g in groups]
        payload = np.concatenate(payloads)
    except OverflowError:
        # an Item holds any non-negative Python int; int64 holds < 2**63
        g, big = next((g, it.token) for g in groups for it in g.items
                      if it.token is not None and it.token >= 2**63)
        raise ContractError(
            f"group {g.id!r}: token {big} outside the int64 range [0, 2**63)") from None
    except (TypeError, ValueError):
        # numpy's stack and concatenate refuse arrays of unequal shapes
        widths = sorted({it.dense.size for g in groups for it in g.items if it.dense is not None})
        held = f"different widths {widths}" if len(widths) > 1 else "tokens and dense vectors"
        raise ContractError(
            f"items must all be tokens, or dense vectors of one width; got {held}") from None
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum([p.shape[0] for p in payloads], out=offsets[1:])
    labels = np.array([-1 if g.label is None else g.label for g in groups], dtype=np.int64)
    return FlatGroups(
        payload=payload,
        offsets=offsets,
        labels=labels,
        ids=[g.id for g in groups],
    )


# The two batch kernels share one signature.  Given non-empty tapes and
# tol = 0 they record every sweep for the unrolled adjoint: tape_P[t - 1]
# holds the item beliefs of sweep t, tape_A[:, t] and tape_Q[:, t] the
# alpha_hat and label beliefs after it, and index 0 the start state.
# Callers that keep no tape pass NO_TAPE three times: a zero-length tape,
# so that numba compiles one signature for taped and untaped calls.  A
# given psi is read as digamma(AH0) and overwritten with digamma of the
# returned alpha_hat (see the module docstring).
NO_TAPE = np.empty((0, 0, 0))


def _sweep_np(FT, sizes, starts, alpha, lam, AH, PL, clamped, psi):
    """One sweep of the three updates over packed groups, topic-major: FT is
    the (K, N) transpose of the logits, AH the alpha_hat, PL the label
    beliefs (the clamped rows stay as they are) and psi = digamma(AH).
    Returns the new (PT, AH, PL, psi): PT the (K, N) item beliefs, psi
    digamma of the new AH, which the label update needs and the next sweep
    starts from."""
    PT = np.repeat(psi.T, sizes, axis=1)
    PT += FT
    _softmax_topics(PT)
    AH = alpha + np.add.reduceat(PT.T, starts, axis=0) + lam * PL
    psi = digamma(AH)
    new_PL = softmax(lam * psi, axis=-1)
    if clamped.any():
        new_PL[clamped] = PL[clamped]
    return PT, AH, new_PL, psi


def _mean_field_batch_np(F, offsets, alpha, lam, labels, clamp, max_sweeps, tol, AH0, PL0,
                         tape_P, tape_A, tape_Q, overwrite_F=False, psi=None):
    sizes = np.diff(offsets)
    AH = AH0.copy()
    PL = PL0.copy()
    clamped = labels >= 0 if clamp else np.zeros(labels.shape, dtype=bool)
    PL[clamped] = 0.0
    PL[clamped, labels[clamped]] = 1.0
    carried, psi = psi, digamma(AH) if psi is None else psi
    # A sweep reads the logits and the group state, never the item beliefs
    # of the sweep before: each (K, N) buffer is dropped once it is read, so
    # that the next one's allocation does not stack on it.
    if tol <= 0.0:
        FT = np.ascontiguousarray(F.T)
        taped = tape_P.shape[0] > 0
        if taped:
            tape_A[:, 0], tape_Q[:, 0] = AH, PL
        PT = np.empty_like(FT)  # what a call of no sweeps returns
        for t in range(1, max_sweeps + 1):
            del PT
            PT, AH, PL, psi = _sweep_np(FT, sizes, offsets[:-1], alpha, lam, AH, PL, clamped, psi)
            if taped:
                tape_P[t - 1], tape_A[:, t], tape_Q[:, t] = PT.T, AH, PL
        del FT
        if carried is not None:
            carried[...] = psi
        P = tape_P[max_sweeps - 1] if taped else np.ascontiguousarray(PT.T)
        return P, PL, AH, max_sweeps
    # Groups never read one another's state, so each stops on its own change:
    # a group that stops keeps the state of its last sweep, and only the
    # groups still moving are swept again.  It all runs in one (K, N)
    # buffer: columns [0, n) hold the moving items' logits, compacted in
    # place as groups stop, and the columns this frees hold the stopped
    # items' beliefs; rows[j] is column j's corpus row.  F.T is F's own
    # memory when F is F-ordered or K = 1, so only handed-over logits
    # skip the copy.
    FT = np.ascontiguousarray(F.T) if overwrite_F else np.array(F.T, order="C")
    n = F.shape[0]
    rows = np.arange(n)
    moving = np.arange(sizes.size)
    sm, starts, AHm, PLm, psim, cm = sizes, offsets[:-1], AH, PL, psi, clamped
    sweeps = 0
    while moving.size and sweeps < max_sweeps:
        PTm, new_AH, PLm, psim = _sweep_np(FT[:, :n], sm, starts, alpha, lam, AHm, PLm, cm,
                                           psim)
        sweeps += 1
        stop = (_max(np.abs(new_AH - AHm), 1)[:, 0] < tol) | (sweeps == max_sweeps)
        AHm = new_AH
        if stop.any():
            item_stop = np.repeat(stop, sm)
            item_keep = ~item_stop
            m = np.count_nonzero(item_keep)
            # Row by row, so no (K, N) temporary; both right-hand sides are
            # copies made before either slice is written.  On one row a
            # boolean index is faster than np.compress or an integer index.
            for k in range(FT.shape[0]):
                FT[k, :m], FT[k, m:n] = FT[k, :n][item_keep], PTm[k][item_stop]
            rows[:m], rows[m:n] = rows[:n][item_keep], rows[:n][item_stop]
            n = m
            AH[moving[stop]] = AHm[stop]
            PL[moving[stop]] = PLm[stop]
            if carried is not None:
                carried[moving[stop]] = psim[stop]
            keep = ~stop
            moving, sm, cm = moving[keep], sm[keep], cm[keep]
            AHm, PLm, psim = AHm[keep], PLm[keep], psim[keep]
            starts = np.cumsum(sm) - sm
        del PTm  # before the next sweep allocates its own
    # every group has stopped, so every column holds beliefs
    P = np.empty(F.shape)
    P[rows] = FT.T
    return P, PL, AH, sweeps


_mean_field_batch = backend.mean_field_batch or _mean_field_batch_np


def batch_mean_field(
    F,
    flat: FlatGroups,
    hyper: HyperParams,
    clamp_labels,
    max_sweeps,
    tol=0.0,
    alpha_hat0=None,
    p_label0=None,
    overwrite_F=False,
    psi=None,
):
    """Run coordinate sweeps for a whole corpus from cached logits F
    (num_items, K).  tol = 0 runs exactly max_sweeps sweeps on every group
    (the unrolled regime); with tol > 0 each group stops after the first
    sweep that moves its own alpha_hat by less than tol in every entry, or
    at max_sweeps, and keeps the state of that sweep.  alpha_hat0/p_label0
    warm-start the per-group state (fresh alpha and uniform beliefs
    otherwise); clamped labels override p_label0.  Returns (p_items,
    p_label, alpha_hat, sweeps_done), sweeps_done being the largest
    per-group sweep count.  overwrite_F=True lets the kernel write F's
    memory: a caller that no longer reads its logits passes the transpose
    `FT.T` of a C-ordered (K, N) array, and the numpy kernel sweeps in FT
    itself, with no copy.  Otherwise F stays as it was.  psi, when given,
    is a writable (num_groups, K) float64 array holding digamma of the
    warm-start alpha_hat, which the kernel takes in place of computing it,
    and overwrites with digamma of the alpha_hat it returns: a caller that
    carries alpha_hat from call to call carries psi beside it."""
    flat.check()
    clamp_labels = check_bool(clamp_labels, "clamp_labels")
    max_sweeps = check_int(max_sweeps, "max_sweeps", 1)
    tol = check_real(tol, "tol", "[0, inf)")
    overwrite_F = check_bool(overwrite_F, "overwrite_F")
    F = (np.asarray if overwrite_F else np.ascontiguousarray)(F, dtype=np.float64)
    D, K = flat.num_groups, hyper.num_topics
    if F.shape != (flat.num_items, K):
        raise ContractError("logit array shape does not match corpus layout")
    if clamp_labels and flat.labels.max(initial=-1) >= K:
        raise DomainError("label outside [0, K)")
    if alpha_hat0 is None:
        alpha_hat0 = np.tile(hyper.alpha, (D, 1))
    if p_label0 is None:
        p_label0 = np.full((D, K), 1.0 / K)
    alpha_hat0 = np.ascontiguousarray(alpha_hat0, dtype=np.float64)
    p_label0 = np.ascontiguousarray(p_label0, dtype=np.float64)
    if alpha_hat0.shape != (D, K) or p_label0.shape != (D, K):
        raise ContractError("warm-start arrays must be (num_groups, K)")
    if psi is not None and not (isinstance(psi, np.ndarray) and psi.dtype == np.float64
                                and psi.shape == (D, K) and psi.flags.writeable):
        raise ContractError(f"psi must be None or a writable (num_groups, K) float64 array, "
                            f"got {type(psi).__name__} {np.shape(psi)}")
    return _mean_field_batch(
        F,
        flat.offsets,
        hyper.alpha,
        float(hyper.lam),
        flat.labels,
        clamp_labels,
        max_sweeps,
        tol,
        alpha_hat0,
        p_label0,
        NO_TAPE, NO_TAPE, NO_TAPE,
        overwrite_F,
        psi,
    )
