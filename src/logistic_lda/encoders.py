"""Per-item logit functions f(x, theta).

Three interchangeable kinds:

  mlp          feedforward net over dense embedding vectors
  table        free K x V logit table indexed by token id (trainable)
  fixed_loglik frozen K x V row-stochastic matrix; logits are ln beta[:, v],
               which reproduces the word term of collapsed generative LDA

All kinds expose batched forward logits and exact reverse-mode gradients
of sum_n <u_n, f(x_n, theta)> wrt theta.  Trainable parameters live in one
flat vector, `EncoderParams.flat`, and gradients come back in its layout,
so a first-order optimizer works on plain vectors; the encoder itself
holds no optimizer state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError, UnsupportedOperationError
from .math_kernels import SIMPLEX_ATOL, SeededRng, check_int, check_real

KINDS = ("mlp", "table", "fixed_loglik")
ACTIVATIONS = ("tanh", "relu", "linear")


@dataclass(frozen=True)
class Item:
    """One observation: a dense embedding vector or a vocabulary token id."""

    dense: np.ndarray | None = None
    token: int | None = None

    def __post_init__(self):
        if (self.dense is None) == (self.token is None):
            raise ContractError("item must carry exactly one of: dense vector, token id")
        if self.dense is not None:
            arr = np.asarray(self.dense, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
                raise DomainError("dense payload must be a finite 1-d vector")
            object.__setattr__(self, "dense", arr)
        else:
            tok = check_int(self.token, "token")
            if tok < 0:
                raise DomainError("token id must be non-negative")
            object.__setattr__(self, "token", tok)


@dataclass
class EncoderParams:
    """Parameters of f.  mlp uses weights/biases/activations; the other two
    kinds keep a single (K, V) matrix in `table` (logits, or beta rows).
    The trainable arrays are views into one float64 vector `flat`, in layer
    order (W_0, b_0, W_1, b_1, ...) or the table; stepping `flat` in place
    updates them.  A frozen fixed_loglik table stays outside: flat is empty."""

    kind: str
    weights: tuple = ()
    biases: tuple = ()
    activations: tuple = ()
    table: np.ndarray | None = None
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind == "fixed_loglik":
            self.table = np.asarray(self.table, dtype=np.float64)
        self.check()
        arrays = [np.ravel(a) for a in self._trainable()] or [np.empty(0)]
        self._bind(np.concatenate(arrays, dtype=np.float64))

    def check(self):
        """The rules of a valid encoder, which load_checkpoint applies to the
        file save_checkpoint writes: a known kind; an mlp of one or more
        layers, each an (out, in) weight, an (out,) bias and a known
        activation, whose `in` is the previous layer's `out`; a 2-D table;
        finite parameters; and beta rows on the simplex."""
        if self.kind not in KINDS:
            raise ContractError(f"unknown encoder kind {self.kind!r}")
        if self.kind == "mlp":
            n = len(self.weights)
            if not n or len(self.biases) != n or len(self.activations) != n or any(
                    a not in ACTIVATIONS for a in self.activations):
                raise ContractError("an mlp needs one or more layers, each with one weight, "
                                    "one bias and one activation in %r" % (ACTIVATIONS,))
            fan_in = np.shape(self.weights[0])[1:]
            for i, (W, b) in enumerate(zip(self.weights, self.biases)):
                if np.ndim(W) != 2 or np.shape(b) != np.shape(W)[:1] or np.shape(W)[1:] != fan_in:
                    raise ContractError(f"layer {i} weights {np.shape(W)} and biases "
                                        f"{np.shape(b)} do not chain")
                fan_in = np.shape(b)
        elif np.ndim(self.table) != 2:
            raise ContractError(f"{self.kind} encoder needs a (K, V) table, "
                                f"got shape {np.shape(self.table)}")
        if self.kind == "fixed_loglik":
            if not (np.all(np.isfinite(self.table)) and np.all(self.table >= 0)):
                raise DomainError("beta entries must be finite and non-negative")
            if np.any(np.abs(self.table.sum(axis=1) - 1.0) > SIMPLEX_ATOL):
                raise DomainError("each beta row must sum to 1")
        elif not all(np.all(np.isfinite(a)) for a in self._trainable()):
            raise DomainError(f"{self.kind} parameters must be finite")

    def with_flat(self, flat) -> EncoderParams:
        """The same kind, shapes and activations over `flat`, not copied."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.flat.shape:
            raise ContractError("flat vector length does not match parameter count")
        out = copy.copy(self)
        out._bind(flat)
        return out

    def _trainable(self):
        if self.kind == "mlp":
            return [a for W, b in zip(self.weights, self.biases) for a in (W, b)]
        return [self.table] if self.kind == "table" else []

    def _bind(self, flat):
        # rebind the trainable arrays as views of `flat`, keeping their shapes
        self.flat, views, pos = flat, [], 0
        for a in self._trainable():
            views.append(flat[pos : pos + np.size(a)].reshape(np.shape(a)))
            pos += np.size(a)
        if self.kind == "mlp":
            self.weights, self.biases = tuple(views[0::2]), tuple(views[1::2])
        elif self.kind == "table":
            self.table = views[0]

    @property
    def num_topics(self) -> int:
        if self.kind == "mlp":
            return self.weights[-1].shape[0]
        return self.table.shape[0]


def _token_array(payload, vocab_size):
    """payload as a 1-d integer array of ids in [0, vocab_size)."""
    tokens = np.asarray(payload)
    if tokens.dtype.kind not in "iu" or tokens.ndim != 1:
        raise ContractError("token payload must be a 1-d integer array")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        bad = tokens.min() if tokens.min() < 0 else tokens.max()
        raise ContractError(f"token {bad} not in the vocabulary [0, {vocab_size})")
    return tokens


def _mlp_forward(theta, X, keep_hidden=False):
    # hs[l] is the input to layer l; hs[-1] the final logits
    h = X
    hs = [h]
    for W, b, act in zip(theta.weights, theta.biases, theta.activations):
        # each layer's output is made in its pre-activation's buffer
        h = h @ W.T
        h += b
        if act == "tanh":
            np.tanh(h, out=h)
        elif act == "relu":
            np.maximum(h, 0.0, out=h)
        hs.append(h)
    if keep_hidden:
        return h, hs
    return h


def _act_grad(name, h, dh):
    # dh times the activation's derivative, expressed through its output h,
    # in one new buffer; dh itself for a linear layer
    if name == "tanh":
        g = h * h
        np.subtract(1.0, g, out=g)
    elif name == "relu":
        g = (h > 0.0).astype(np.float64)
    else:
        return dh
    g *= dh
    return g


def forward_logits_batch(payload, theta: EncoderParams, keep_hidden=False, topic_major=False):
    """Logits for a whole batch: (N, E) dense rows or (N,) token ids -> (N, K).
    keep_hidden=True returns (logits, hidden): an mlp's layer inputs, which
    `backward_batch` takes instead of running the forward pass again, or
    None for the other kinds.  topic_major=True returns the logits' (K, N)
    transpose instead, as a new C-ordered array with the same bits: the
    token kinds gather it topic-major, and an mlp transposes its output
    once."""
    if theta.kind == "mlp":
        X = np.asarray(payload, dtype=np.float64)
        if X.ndim != 2:
            raise ContractError("mlp payload must be a (N, E) array")
        if X.shape[1] != theta.weights[0].shape[1]:
            raise ContractError(
                f"payload dim {X.shape[1]} != encoder input dim {theta.weights[0].shape[1]}"
            )
        if topic_major:
            return np.ascontiguousarray(_mlp_forward(theta, X).T)
        return _mlp_forward(theta, X, keep_hidden)
    tokens = _token_array(payload, theta.table.shape[1])
    if topic_major:
        FT = np.take(theta.table, tokens, axis=1)
        if theta.kind == "fixed_loglik":
            with np.errstate(divide="ignore"):
                np.log(FT, out=FT)
        return FT
    if theta.kind == "table":
        F = np.take(np.ascontiguousarray(theta.table.T), tokens, axis=0)
    else:  # fixed_loglik: beta entries may be exactly zero; ln 0 = -inf is intended
        with np.errstate(divide="ignore"):
            F = np.log(theta.table[:, tokens].T)
    return (F, None) if keep_hidden else F


def backward_batch(payload, theta: EncoderParams, grad_wrt_logits, hidden=None) -> np.ndarray:
    """Gradient of sum_n <grad_wrt_logits[n], f(x_n, theta)> wrt theta, as
    one vector in the layout of `theta.flat`.  `hidden` is what
    `forward_logits_batch(payload, theta, keep_hidden=True)` returned; an
    mlp without it runs the forward pass again."""
    if theta.kind == "fixed_loglik":
        raise UnsupportedOperationError("fixed log-likelihood table has no trainable parameters")
    dF = np.asarray(grad_wrt_logits, dtype=np.float64)
    if dF.ndim != 2 or dF.shape[1] != theta.num_topics:
        raise ContractError("grad_wrt_logits must be (N, K)")
    if dF.shape[:1] != np.shape(payload)[:1]:
        raise ContractError("grad_wrt_logits must have one row per payload item")
    grad = np.zeros_like(theta.flat)
    G = theta.with_flat(grad)  # the gradient, shaped like theta

    if theta.kind == "table":
        tokens = _token_array(payload, theta.table.shape[1])
        # one bincount per topic adds in item order from zero, as
        # np.add.at(G.table.T, tokens, dF) does, and runs far faster
        V = theta.table.shape[1]
        for k, column in enumerate(np.ascontiguousarray(dF.T)):
            G.table[k] = np.bincount(tokens, weights=column, minlength=V)
        return grad

    if hidden is None:
        _, hidden = _mlp_forward(theta, np.asarray(payload, dtype=np.float64), keep_hidden=True)
    dh = dF
    for l in reversed(range(len(theta.weights))):
        da = _act_grad(theta.activations[l], hidden[l + 1], dh)
        G.weights[l][...] = da.T @ hidden[l]
        G.biases[l][...] = da.sum(axis=0)
        if l:
            dh = da @ theta.weights[l]
    return grad


def init_params(kind, dims, scale, rng: SeededRng, activations=None) -> EncoderParams:
    """Fresh parameters.

    mlp:   dims = (E, hidden..., K); weights ~ N(0, scale^2 / fan_in),
           biases zero; default activations are tanh on hidden layers and
           linear on the output layer.
    table: dims = (K, V); entries ~ N(0, scale^2).  scale > 0 matters for
           unsupervised fitting: an all-zero table is an exact stationary
           point of the symmetric objective and gradient descent never
           leaves it.
    """
    dims = tuple(check_int(d, "dimension", 1) for d in dims)
    scale = check_real(scale, "init scale", "[0, inf)")
    if kind == "mlp":
        if activations is None:
            activations = ("tanh",) * (len(dims) - 2) + ("linear",)
        activations = tuple(activations)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            std = scale / np.sqrt(fan_in)
            weights.append(rng.gen.normal(0.0, std, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return EncoderParams(
            kind="mlp", weights=tuple(weights), biases=tuple(biases), activations=activations
        )
    if kind == "table":
        return EncoderParams(kind="table", table=rng.gen.normal(0.0, scale, size=dims))
    if kind == "fixed_loglik":
        raise ContractError("fixed_loglik params come from fixed_loglik_params(beta)")
    raise ContractError(f"unknown encoder kind {kind!r}")


def fixed_loglik_params(beta) -> EncoderParams:
    """Wrap a row-stochastic (K, V) matrix beta as a frozen encoder."""
    return EncoderParams(kind="fixed_loglik", table=beta)
