import json
import math
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import digamma as sp_digamma

from logistic_lda import encoders, mean_field, training
from logistic_lda.encoders import (
    EncoderParams,
    Item,
    forward_logits_batch,
    init_params,
)
from logistic_lda.errors import ContractError, DomainError, TrainingDivergedError
from logistic_lda.math_kernels import SeededRng, digamma, log_softmax, softmax, trigamma
from logistic_lda.mean_field import (
    FlatGroups,
    Group,
    HyperParams,
    batch_mean_field,
    flatten_groups,
)
from logistic_lda.training import (
    LOSS_FLOOR,
    MODES,
    OPTIMIZERS,
    Optimizer,
    TrainConfig,
    _discriminative_batch_grad,
    _batch_slices,
    _EStepCarry,
    _unroll_bwd,
    _unroll_fwd,
    _variational_step,
    predict_corpus,
    train,
)

from oracles import (
    UnrollTape,
    central_difference_grad,
    max_relative_error,
    reference_corpus_elbo,
    unrolled_backward,
    unrolled_forward,
)


def token_group(tokens, label=None, gid="g"):
    return Group(id=gid, items=[Item(token=int(t)) for t in tokens], label=label)


def unroll(group, theta, h):
    """The shipped unrolled forward pass on one group: (p_label, tape)."""
    flat = flatten_groups([group])
    F = np.ascontiguousarray(forward_logits_batch(flat.payload, theta))
    P, A, Q = _unroll_fwd(F, flat.offsets, h.alpha, float(h.lam), int(h.n_iter))
    return Q[0, -1], UnrollTape(f=F, p_items=P, alpha_hat=A[0], p_label=Q[0])


def batch_loss(group, theta, h):
    """The shipped discriminative loss (mean label cross-entropy) on one group."""
    flat = flatten_groups([group])
    return _discriminative_batch_grad(flat.payload, flat.offsets, flat.labels, theta, h)[0]


def label_loss(p_label, label):
    """(loss, floor_hits) the shipped adjoint kernel reports for final
    label beliefs p_label; the loss reads only the last iteration."""
    K = len(p_label)
    Q = np.full((1, 2, K), 1.0 / K)
    Q[0, 1] = p_label
    _, losses, hits = _unroll_bwd(np.array([0, 1]), 1.0, np.full((1, 1, K), 1.0 / K),
                                  np.ones((1, 2, K)), Q, np.array([label]), 1, LOSS_FLOOR)
    return float(losses[0]), hits


def predict_one(group, theta, h):
    """(label, p_label, p_items) from n_iter sweeps, as predict_corpus runs them."""
    labels, PL, P = predict_corpus(flatten_groups([group]), theta, h, converged=False)
    return int(labels[0]), PL[0], P


class TestOptimizer:
    def test_sgd(self):
        opt = Optimizer(kind="sgd")
        x = np.array([1.0, 2.0])
        opt.step(x, np.array([0.5, -1.0]), lr=0.1)
        np.testing.assert_allclose(x, [0.95, 2.1])

    def test_momentum_accumulates(self):
        opt = Optimizer(kind="momentum", momentum=0.5)
        x = np.zeros(1)
        g = np.ones(1)
        opt.step(x, g, lr=1.0)  # velocity 1
        np.testing.assert_allclose(x, [-1.0])
        opt.step(x, g, lr=1.0)  # velocity 1.5
        np.testing.assert_allclose(x, [-2.5])

    def test_adam_first_step_is_signed(self, monkeypatch):
        monkeypatch.setattr(training, "ADAM_EPS", 0.0)
        opt = Optimizer(kind="adam")
        x = np.zeros(2)
        opt.step(x, np.array([3.0, -0.01]), lr=0.1)
        np.testing.assert_allclose(x, [-0.1, 0.1], atol=1e-12)

    def test_lr_zero_identity(self):
        for kind in ("sgd", "momentum", "adam"):
            opt = Optimizer(kind=kind)
            x = np.array([1.0, -2.0])
            opt.step(x, np.ones(2), lr=0.0)
            np.testing.assert_array_equal(x, [1.0, -2.0])


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"mode": "map"},
            {"optimizer": "lbfgs"},
            {"epochs": 0},
            {"batch_size": 0},
            {"e_step_sweeps": 0},
        ],
    )
    def test_contract_errors(self, kw):
        with pytest.raises(ContractError):
            TrainConfig(**kw)

    @pytest.mark.parametrize("kw", [{"lr": -1.0}, {"lr": np.inf}, {"lr_decay": 0.0},
                                    {"momentum": np.nan}, {"momentum": np.inf}])
    def test_domain_errors(self, kw):
        with pytest.raises(DomainError):
            TrainConfig(**kw)

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "e_step_sweeps", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, "a", True, None])
    def test_integer_fields_must_be_integers(self, field, value):
        # epochs=1.5 and seed="a" used to construct and fail inside train
        with pytest.raises(ContractError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lr", "lr_decay", "momentum"])
    @pytest.mark.parametrize("value", ["x", None, True, 1j])
    def test_real_fields_must_be_numbers(self, field, value):
        # lr="x" used to raise an untyped TypeError
        with pytest.raises(ContractError, match=f"{field} must be a number"):
            TrainConfig(**{field: value})

    def test_fields_are_stored_as_int_and_float(self):
        c = TrainConfig(epochs=np.int64(3), seed=np.uint8(4), lr=1, lr_decay=np.float32(0.5))
        assert (type(c.epochs), type(c.seed), type(c.lr), type(c.lr_decay)) == (int, int, float,
                                                                               float)
        assert (c.epochs, c.seed, c.lr, c.lr_decay) == (3, 4, 1.0, 0.5)

    @pytest.mark.parametrize("field", ["clamp_labels", "track_elbo", "verbose",
                                       "keep_diagnostics"])
    @pytest.mark.parametrize("value", ["no", "", 0, 1, None, np.int64(1)])
    def test_flags_must_be_bools(self, field, value):
        # clamp_labels="no" used to clamp
        with pytest.raises(ContractError, match=f"{field} must be a bool"):
            TrainConfig(**{field: value})

    def test_numpy_bools_are_stored_as_bool(self):
        c = TrainConfig(clamp_labels=np.bool_(False), verbose=np.False_)
        assert (type(c.clamp_labels), c.clamp_labels, type(c.verbose)) == (bool, False, bool)

    @pytest.mark.parametrize("path", [1, 0, "", b"m.jsonl", 1.5, True])
    def test_metrics_path_must_be_a_non_empty_path(self, path):
        # 1 used to make train write its records to file descriptor 1 and close it
        with pytest.raises(ContractError, match="metrics_path must be None or a non-empty path"):
            TrainConfig(metrics_path=path)

    FIELDS = {
        "mode": st.sampled_from(MODES),
        "epochs": st.integers(1, 2**40),
        "batch_size": st.integers(1, 2**40),
        "e_step_sweeps": st.integers(1, 2**40),
        "seed": st.integers(0, 2**63),
        "lr": st.floats(0.0, 1e6),
        "lr_decay": st.floats(0.0, 1.0, exclude_min=True),
        "momentum": st.floats(-1e6, 1e6),
        "optimizer": st.sampled_from(OPTIMIZERS),
        "clamp_labels": st.booleans(),
        "track_elbo": st.booleans(),
        "verbose": st.booleans(),
        "keep_diagnostics": st.booleans(),
        "metrics_path": st.one_of(st.none(), st.text(min_size=1),
                                  st.text(min_size=1).map(Path)),
    }
    NOT_INT = st.one_of(st.floats(), st.booleans(), st.text(), st.none())
    NOT_REAL = st.one_of(st.booleans(), st.text(), st.none(), st.complex_numbers())
    SPOILERS = {
        "mode": st.text().filter(lambda t: t not in MODES),
        "epochs": NOT_INT, "batch_size": NOT_INT, "e_step_sweeps": NOT_INT, "seed": NOT_INT,
        "lr": NOT_REAL, "lr_decay": NOT_REAL, "momentum": NOT_REAL,
        "optimizer": st.text().filter(lambda t: t not in OPTIMIZERS),
        "clamp_labels": st.one_of(st.integers(), st.text(), st.none(), st.floats()),
        "track_elbo": st.one_of(st.integers(), st.text(), st.none(), st.floats()),
        "verbose": st.one_of(st.integers(), st.text(), st.none(), st.floats()),
        "keep_diagnostics": st.one_of(st.integers(), st.text(), st.none(), st.floats()),
        "metrics_path": st.one_of(st.just(""), st.integers(), st.binary(), st.floats(),
                                  st.booleans()),
    }

    @pytest.mark.parametrize("fault", [None, *FIELDS])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_config_that_constructs_keeps_its_fields(self, fault, data):
        # each draw sets every field, with at most one spoiled; a spoiled one
        # raises ContractError, and any other constructs with its values
        fields = {name: data.draw(strategy) for name, strategy in self.FIELDS.items()}
        if fault is not None:
            fields[fault] = data.draw(self.SPOILERS[fault])
            with pytest.raises(ContractError, match=fault):
                TrainConfig(**fields)
            return
        config = TrainConfig(**fields)
        assert {name: getattr(config, name) for name in fields} == fields


class TestVariationalLoss:
    def step_loss(self, alpha_hat0):
        # zero table over one token: g = [ln .5, ln .5] whatever the beliefs,
        # which the warm-start alpha_hat0 sets
        theta = init_params("table", (2, 1), 0.0, SeededRng(0))
        flat = flatten_groups([token_group([0])])
        h = HyperParams(alpha=np.ones(2))
        carry = _EStepCarry.start(flat, h)
        carry.alpha_hat[0] = alpha_hat0
        carry.psi[0] = digamma(carry.alpha_hat[0])  # the carry keeps psi beside alpha_hat
        _, P, loss, _ = _variational_step(flat, np.array([0]), theta, h, TrainConfig(), carry)
        return P[0], loss

    def test_one_hot_target(self):
        p, loss = self.step_loss([1e6, 1e-6])
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)
        assert loss == pytest.approx(0.6931472, abs=1e-6)

    def test_uniform_target(self):
        p, loss = self.step_loss([1.0, 1.0])
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-15)
        assert loss == pytest.approx(0.6931472, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = SeededRng(1)
        theta = init_params("mlp", (4, 3, 3), 1.0, rng)
        groups = [
            Group(id="a", items=[Item(dense=rng.gen.normal(size=4)) for _ in range(3)]),
            Group(id="b", items=[Item(dense=rng.gen.normal(size=4)) for _ in range(2)]),
        ]
        flat = flatten_groups(groups)
        P = np.concatenate([rng.gen.dirichlet(np.ones(3), size=n) for n in (3, 2)])
        r_hat = rng.gen.uniform(0.0, 0.2, size=(5, 3))
        S = P + 0.7 * r_hat  # gamma = 0.7

        def loss_fn(fv):
            g = log_softmax(forward_logits_batch(flat.payload, theta.with_flat(fv)), axis=-1)
            return -float(np.sum(S * g))

        numeric = central_difference_grad(loss_fn, theta.flat, h=1e-5)

        from logistic_lda.encoders import backward_batch
        from logistic_lda.training import _soft_target_grad_wrt_logits

        F = forward_logits_batch(flat.payload, theta)
        Q = softmax(F, axis=-1)
        analytic = backward_batch(flat.payload, theta, _soft_target_grad_wrt_logits(Q, S))
        assert max_relative_error(analytic, numeric) <= 1e-6

    def test_shape_mismatch(self):
        # warm-start state that does not match the topic count is refused
        theta = init_params("table", (2, 1), 0.0, SeededRng(0))
        flat = flatten_groups([token_group([0])])
        h = HyperParams(alpha=np.ones(2))
        carry = _EStepCarry.start(flat, HyperParams(alpha=np.ones(3)))
        with pytest.raises(ContractError):
            _variational_step(flat, np.array([0]), theta, h, TrainConfig(), carry)


class TestUnrolledForward:
    def test_symmetry_fixed_point(self):
        theta = init_params("table", (3, 4), 0.0, SeededRng(0))
        g = token_group([0, 1, 2])
        for n_iter in (1, 3, 7):
            for lam in (0.0, 1.0, 4.0):
                h = HyperParams(alpha=np.full(3, 0.7), lam=lam, n_iter=n_iter)
                p_label, tape = unroll(g, theta, h)
                np.testing.assert_allclose(p_label, 1 / 3, atol=1e-12)
                np.testing.assert_allclose(tape.p_items, 1 / 3, atol=1e-12)

    def test_hand_example(self):
        theta = init_params("table", (2, 1), 0.0, SeededRng(0))
        theta.table[:, 0] = [1.0, 0.0]
        g = token_group([0])
        h = HyperParams(alpha=np.ones(2), lam=1.0, n_iter=1)
        p_label, tape = unroll(g, theta, h)
        np.testing.assert_allclose(tape.p_items[0, 0], [0.7310586, 0.2689414], atol=1e-7)
        np.testing.assert_allclose(tape.alpha_hat[1], [2.2310586, 1.7689414], atol=1e-7)
        # straight-line recomputation with an independent digamma
        a_hat = tape.alpha_hat[1]
        z = sp_digamma(a_hat)
        want = np.exp(z - z.max())
        want /= want.sum()
        np.testing.assert_allclose(p_label, want, atol=1e-12)

    def test_lambda_sharpens_dominant_topic(self):
        theta = init_params("table", (2, 1), 0.0, SeededRng(0))
        theta.table[:, 0] = [1.0, 0.0]
        g = token_group([0])
        prev = 0.5
        for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
            h = HyperParams(alpha=np.ones(2), lam=lam, n_iter=1)
            p_label, _ = unroll(g, theta, h)
            assert p_label[0] > prev
            prev = p_label[0]

    def test_beliefs_on_simplex_every_iteration(self):
        rng = SeededRng(5)
        theta = init_params("table", (4, 9), 1.5, rng)
        g = token_group(rng.gen.integers(0, 9, size=6))
        h = HyperParams(alpha=rng.gen.uniform(0.2, 2.0, size=4), lam=2.0, n_iter=6)
        _, tape = unroll(g, theta, h)
        np.testing.assert_allclose(tape.p_items.sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(tape.p_label.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(tape.p_items >= 0) and np.all(tape.p_label >= 0)


class TestUnrolledBackwardTape:
    @pytest.mark.parametrize("n_iter", [1, 2, 5])
    def test_one_trigamma_call_per_tape(self, monkeypatch, n_iter):
        rng = np.random.default_rng(n_iter)
        D, K = 6, 4
        offsets = np.concatenate([[0], np.cumsum(rng.integers(1, 6, size=D))])
        F = rng.normal(size=(offsets[-1], K))
        P, A, Q = _unroll_fwd(F, offsets, np.full(K, 0.5), 1.5, n_iter)
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return trigamma(x)

        monkeypatch.setattr(training, "trigamma", counted)
        training._unroll_bwd_np(offsets, 1.5, P, A, Q, rng.integers(0, K, size=D), n_iter,
                                LOSS_FLOOR)
        # one call covers alpha_hat after every sweep of the tape
        assert calls == [(D, n_iter, K)]


class TestCallsPerBatch:
    """On the numpy kernels a batch computes each intermediate once: one
    digamma per sweep plus one for the start state, and one mlp forward
    pass per training step."""

    @staticmethod
    def counted(monkeypatch, module, name):
        calls, original = [], getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @staticmethod
    def dense_problem():
        rng = SeededRng(6)
        K, E = 3, 4
        groups = [Group(id=f"g{d}", label=d % K,
                        items=[Item(dense=rng.gen.normal(size=E)) for _ in range(2 + d % 3)])
                  for d in range(7)]
        theta = init_params("mlp", (E, 5, K), 1.0, rng)
        return flatten_groups(groups), theta, HyperParams(alpha=np.full(K, 0.7), lam=1.5, n_iter=4)

    def test_unroll_runs_n_iter_plus_one_digammas(self, monkeypatch):
        monkeypatch.setattr(training, "_mean_field_batch", mean_field._mean_field_batch_np)
        flat, theta, h = self.dense_problem()
        F = np.ascontiguousarray(forward_logits_batch(flat.payload, theta))
        calls = self.counted(monkeypatch, mean_field, "digamma")
        _unroll_fwd(F, flat.offsets, h.alpha, float(h.lam), int(h.n_iter))
        assert len(calls) == h.n_iter + 1

    def test_converged_estep_runs_sweeps_plus_one_digammas(self, monkeypatch):
        monkeypatch.setattr(mean_field, "_mean_field_batch", mean_field._mean_field_batch_np)
        flat, theta, h = self.dense_problem()
        F = forward_logits_batch(flat.payload, theta)
        calls = self.counted(monkeypatch, mean_field, "digamma")
        _, _, _, sweeps = batch_mean_field(F, flat, h, False, 200, tol=1e-6)
        assert 1 < sweeps < 200
        assert len(calls) == sweeps + 1

    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize("encoder", ["table", "mlp"])
    def test_variational_step_runs_one_digamma_per_sweep(self, monkeypatch, encoder, sweeps):
        # the carry holds digamma of the warm start, so the E-step takes no
        # digamma for its start state
        monkeypatch.setattr(mean_field, "_mean_field_batch", mean_field._mean_field_batch_np)
        flat, theta, h = self.dense_problem()
        if encoder == "table":
            flat = flatten_groups([token_group([d % 4, 1, 2, 3, d % 3], gid=f"g{d}")
                                   for d in range(7)])
            theta = init_params("table", (3, 4), 1.0, SeededRng(3))
        h.gamma = 2.0
        carry = _EStepCarry.start(flat, h)
        calls = self.counted(monkeypatch, mean_field, "digamma")
        calls += self.counted(monkeypatch, training, "digamma")
        config = TrainConfig(e_step_sweeps=sweeps, verbose=False)
        _variational_step(flat, np.arange(flat.num_groups), theta, h, config, carry)
        assert len(calls) == sweeps

    @pytest.mark.parametrize("mode", ["discriminative", "variational"])
    def test_training_step_runs_one_mlp_forward(self, monkeypatch, mode):
        flat, theta, h = self.dense_problem()
        config = TrainConfig(mode=mode, verbose=False)
        if mode == "variational":
            step, carry = _variational_step, _EStepCarry.start(flat, h)
        else:
            step, carry = training._discriminative_step, None
        calls = self.counted(monkeypatch, encoders, "_mlp_forward")
        grad, _, _, _ = step(flat, np.arange(flat.num_groups), theta, h, config, carry)
        assert len(calls) == 1 and np.all(np.isfinite(grad))


class TestCorpusElbo:
    @staticmethod
    def corpus(rng, D, max_size, K=5):
        offsets = np.concatenate([[0], np.cumsum(rng.integers(1, max_size + 1, size=D))])
        N = int(offsets[-1])
        flat = FlatGroups(payload=np.zeros(N, dtype=np.int64), offsets=offsets,
                          labels=np.full(D, -1))
        P = softmax(3.0 * rng.normal(size=(N, K)))
        zero = rng.random((N, K)) < 0.2
        P[zero] = 0.0  # zero beliefs contribute 0, even where g is -inf
        g = log_softmax(3.0 * rng.normal(size=(N, K)))
        g[zero & (rng.random((N, K)) < 0.5)] = -np.inf
        PL = softmax(rng.normal(size=(D, K)))
        PL[:, 0] = 0.0
        AH = rng.uniform(0.5, 20.0, size=(D, K))
        return g, P, PL, AH, flat, HyperParams(alpha=np.full(K, 0.3), lam=2.0)

    def test_bits_match_the_where_expression(self):
        # small corpora, so that an ulp in one item term reaches the total
        rng = np.random.default_rng(3)
        for D, max_size in [(1, 1), (1, 3), (2, 4)] * 100 + [(300, 60)]:
            args = self.corpus(rng, D, max_size)
            got = training._corpus_elbo(*args)
            assert got.hex() == reference_corpus_elbo(*args).hex()


class TestDiscriminativeLoss:
    def test_perfect_prediction(self):
        assert label_loss(np.array([0.0, 1.0]), 1) == (0.0, 0)

    def test_uniform(self):
        assert label_loss(np.full(4, 0.25), 1)[0] == pytest.approx(1.3862944, abs=1e-6)

    def test_wrong_confident(self):
        assert label_loss(np.array([0.9, 0.1]), 1)[0] == pytest.approx(2.3025851, abs=1e-6)

    def test_floor_counted(self):
        loss, hits = label_loss(np.array([1.0, 0.0]), 1)
        assert hits == 1
        assert loss == pytest.approx(-math.log(1e-30))


class TestDiscriminativeGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = SeededRng(seed)
        theta = init_params("mlp", (5, 4, 3), 1.0, rng)
        grp = Group(
            id="g",
            items=[Item(dense=rng.gen.normal(size=5)) for _ in range(4)],
            label=int(rng.gen.integers(0, 3)),
        )
        h = HyperParams(
            alpha=rng.gen.uniform(0.3, 2.0, size=3),
            lam=float(rng.gen.uniform(0.2, 2.5)),
            n_iter=3,
        )
        flat = flatten_groups([grp])
        _, grad, _, _ = _discriminative_batch_grad(
            flat.payload, flat.offsets, flat.labels, theta, h
        )

        def loss_fn(fv):
            return batch_loss(grp, theta.with_flat(fv), h)

        numeric = central_difference_grad(loss_fn, theta.flat, h=1e-5)
        assert max_relative_error(grad, numeric) <= 1e-5

    def test_constant_zero_encoder_grad_only_in_biases(self):
        # single linear layer, zero weights, zero inputs: f is exactly 0
        # and the only open gradient path is the bias vector
        theta = init_params("mlp", (3, 2), 0.0, SeededRng(0))
        grp = Group(id="z", items=[Item(dense=np.zeros(3)) for _ in range(2)], label=1)
        h = HyperParams(alpha=np.ones(2), lam=1.0, n_iter=2)
        flat = flatten_groups([grp])
        _, grad, _, _ = _discriminative_batch_grad(
            flat.payload, flat.offsets, flat.labels, theta, h
        )

        def loss_fn(fv):
            return batch_loss(grp, theta.with_flat(fv), h)

        numeric = central_difference_grad(loss_fn, theta.flat, h=1e-5)
        assert max_relative_error(grad, numeric) <= 1e-5
        rebuilt = theta.with_flat(grad)
        assert np.all(rebuilt.weights[0] == 0)
        assert np.any(rebuilt.biases[0] != 0)

    def test_batch_kernels_match_single_group_path(self):
        rng = SeededRng(77)
        K, V = 3, 8
        theta = init_params("table", (K, V), 1.0, rng)
        groups = [
            token_group(rng.gen.integers(0, V, size=int(rng.gen.integers(1, 6))),
                        label=int(rng.gen.integers(0, K)), gid=f"d{i}")
            for i in range(5)
        ]
        h = HyperParams(alpha=rng.gen.uniform(0.3, 1.5, size=K), lam=1.2, n_iter=4)
        flat = flatten_groups(groups)
        F = np.ascontiguousarray(forward_logits_batch(flat.payload, theta))
        P, A, Q = _unroll_fwd(F, flat.offsets, h.alpha, h.lam, h.n_iter)
        dF, losses, hits = _unroll_bwd(
            flat.offsets, h.lam, P, A, Q, flat.labels, h.n_iter, 1e-30
        )
        assert hits == 0
        for d, g in enumerate(groups):
            p_label, tape = unrolled_forward(g, theta, h)
            lo, hi = flat.offsets[d], flat.offsets[d + 1]
            np.testing.assert_allclose(Q[d, h.n_iter], p_label, atol=1e-12)
            np.testing.assert_allclose(P[:, lo:hi], tape.p_items, atol=1e-12)
            dF_d, loss_d, _ = unrolled_backward(tape, g.label, h)
            np.testing.assert_allclose(dF[lo:hi], dF_d, atol=1e-12)
            assert losses[d] == pytest.approx(loss_d, abs=1e-12)


class TestDiscriminativeStep:
    def test_lr_zero_theta_unchanged(self):
        theta = init_params("table", (2, 3), 1.0, SeededRng(0))
        before = theta.flat.copy()
        g = token_group([0, 1], label=1)
        h = HyperParams(alpha=np.ones(2), n_iter=2)
        cfg = TrainConfig(mode="discriminative", epochs=1, lr=0.0, verbose=False)
        theta2, report = train(flatten_groups([g]), theta, h, cfg)
        np.testing.assert_array_equal(theta2.flat, before)
        assert np.isfinite(report.final_loss)

    def test_unlabeled_rejected(self):
        groups = [token_group([0], label=1, gid="a"), token_group([1], gid="b")]
        h = HyperParams(alpha=np.ones(2))
        with pytest.raises(ContractError):
            train(flatten_groups(groups), init_params("table", (2, 2), 0.0, SeededRng(0)), h,
                  TrainConfig(mode="discriminative", verbose=False))

    def test_label_out_of_range_rejected(self):
        h = HyperParams(alpha=np.ones(2))
        with pytest.raises(DomainError):
            train(flatten_groups([token_group([0], label=2)]),
                  init_params("table", (2, 2), 0.0, SeededRng(0)),
                  h, TrainConfig(mode="discriminative", verbose=False))

    def test_loss_decreases(self):
        rng = SeededRng(3)
        theta = init_params("table", (2, 4), 0.1, rng)
        g = token_group([0, 0, 1], label=0)
        h = HyperParams(alpha=np.ones(2), n_iter=3)
        cfg = TrainConfig(mode="discriminative", epochs=30, batch_size=1, lr=0.2,
                          optimizer="sgd", verbose=False)
        theta, _ = train(flatten_groups([g]), theta, h, cfg)
        assert batch_loss(g, theta, h) < 0.3


class TestPredict:
    def test_strong_margin(self):
        theta = init_params("table", (3, 3), 0.0, SeededRng(0))
        theta.table[:, 0] = [0.0, 12.0, 0.0]
        g = token_group([0])
        h = HyperParams(alpha=np.ones(3), lam=1.0, n_iter=5)
        label, p_label, p_items = predict_one(g, theta, h)
        assert label == 1
        assert p_items[0, 1] > 0.99

    def test_tie_breaks_low(self):
        theta = init_params("table", (4, 2), 0.0, SeededRng(0))
        g = token_group([0, 1])
        h = HyperParams(alpha=np.ones(4), n_iter=3)
        label, p_label, _ = predict_one(g, theta, h)
        assert label == 0
        np.testing.assert_allclose(p_label, 0.25, atol=1e-12)

    def test_context_shifts_ambiguous_item(self):
        # four items clearly topic 1, one ambiguous; the group bias must
        # push the ambiguous item toward topic 1 relative to softmax(f)
        theta = init_params("table", (2, 2), 0.0, SeededRng(0))
        theta.table[:, 0] = [0.0, 3.0]   # token 0 favors topic 1
        theta.table[:, 1] = [0.0, 0.0]   # token 1 ambiguous
        g = token_group([0, 0, 0, 0, 1])
        h = HyperParams(alpha=np.full(2, 0.5), lam=1.0, n_iter=10)
        _, _, p_items = predict_one(g, theta, h)
        unbiased = softmax(theta.table[:, 1])
        assert p_items[4, 1] > unbiased[1]

    def test_labels_never_used(self):
        theta = init_params("table", (2, 2), 1.0, SeededRng(9))
        h = HyperParams(alpha=np.ones(2), n_iter=4)
        a = predict_one(token_group([0, 1], label=1), theta, h)
        b = predict_one(token_group([0, 1]), theta, h)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])


class TestVariationalStep:
    def test_lr_zero_updates_states_not_theta(self):
        rng = SeededRng(4)
        theta = init_params("table", (2, 4), 1.0, rng)
        before = theta.flat.copy()
        groups = [token_group([0, 1], label=0), token_group([2, 3])]
        h = HyperParams(alpha=np.ones(2), lam=1.0)
        cfg = TrainConfig(mode="variational", epochs=1, lr=0.0, verbose=False)
        flat = flatten_groups(groups)
        carry = _EStepCarry.start(flat, h)
        _, _, loss, _ = _variational_step(flat, np.arange(2), theta, h, cfg, carry)
        # the E-step ran: alpha_hat moved away from alpha
        assert not np.allclose(carry.alpha_hat[0], h.alpha)
        assert np.isfinite(loss)
        theta2, _ = train(flatten_groups(groups), theta, h, cfg)
        np.testing.assert_array_equal(theta2.flat, before)

    def test_clamped_estep_matches_reference_loop(self):
        # all labels observed, gamma = 0: the E-step is the unrolled loop
        # body with p_label pinned to the observed one-hot
        rng = SeededRng(6)
        K, V = 3, 7
        theta = init_params("table", (K, V), 1.0, rng)
        groups = [
            token_group(rng.gen.integers(0, V, size=4), label=int(rng.gen.integers(0, K)), gid=f"d{i}")
            for i in range(4)
        ]
        h = HyperParams(alpha=rng.gen.uniform(0.4, 1.5, size=K), lam=1.7)
        flat = flatten_groups(groups)
        F = forward_logits_batch(flat.payload, theta)
        sweeps = 3
        P, PL, AH, _ = batch_mean_field(F, flat, h, True, sweeps, tol=0.0)
        for d, g in enumerate(groups):
            lo, hi = flat.offsets[d], flat.offsets[d + 1]
            c = np.zeros(K)
            c[g.label] = 1.0
            a_hat = h.alpha.copy()
            p = None
            for _ in range(sweeps):
                z = F[lo:hi] + sp_digamma(a_hat)
                p = np.exp(z - z.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                a_hat = h.alpha + p.sum(axis=0) + h.lam * c
            np.testing.assert_allclose(P[lo:hi], p, atol=1e-12)
            np.testing.assert_allclose(AH[d], a_hat, atol=1e-12)
            np.testing.assert_array_equal(PL[d], c)

    def test_single_labeled_group_encoder_learns_soft_labels(self):
        # gamma = 0, one clamped group: at the optimum each table column's
        # softmax equals the mean belief of items with that token (the
        # direct logistic-regression fit on the soft labels)
        rng = SeededRng(8)
        K, V = 3, 4
        theta = init_params("table", (K, V), 0.3, rng)
        group = token_group([0, 0, 1, 2], label=1)
        h = HyperParams(alpha=np.ones(K), lam=2.0)
        cfg = TrainConfig(
            mode="variational", epochs=400, batch_size=1, lr=0.05,
            e_step_sweeps=2, verbose=False, track_elbo=False, seed=0,
        )
        theta, _ = train(flatten_groups([group]), theta, h, cfg)
        flat = flatten_groups([group])
        F = forward_logits_batch(flat.payload, theta)
        P, _, _, _ = batch_mean_field(F, flat, h, True, cfg.e_step_sweeps, tol=0.0)
        tokens = flat.payload
        for v in np.unique(tokens):
            mean_soft = P[tokens == v].mean(axis=0)
            fitted = softmax(theta.table[:, v])
            assert np.argmax(fitted) == np.argmax(mean_soft)
            np.testing.assert_allclose(fitted, mean_soft, atol=0.05)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_raises(self):
        # lr large enough to overflow the weights in one sgd step; the next
        # epoch's forward pass then yields a non-finite loss
        rng = SeededRng(10)
        theta = init_params("mlp", (3, 2), 0.01, rng)
        groups = [
            Group(id="a", items=[Item(dense=rng.gen.uniform(50, 100, size=3)) for _ in range(3)])
        ]
        h = HyperParams(alpha=np.ones(2))
        cfg = TrainConfig(mode="variational", epochs=5, lr=1e308, optimizer="sgd",
                          e_step_sweeps=2, verbose=False, track_elbo=False)
        with pytest.raises(TrainingDivergedError):
            train(flatten_groups(groups), theta, h, cfg)


class TestVocabularyRows:
    """Row-wise functions of a table encoder's logits run once per vocabulary
    row where V <= N, with the bits of the per-item computation."""

    LOGITS = st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e308, -1e308, 709.0, -745.0]) | \
        st.floats(-1e6, 1e6)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), K=st.sampled_from([1, 5, 10, 33]),
           relation=st.sampled_from(["V<N", "V=N", "V>N"]))
    def test_table_rows_keep_the_per_item_bits(self, data, K, relation):
        V = data.draw(st.integers(2, 40))
        N = {"V<N": data.draw(st.integers(V + 1, 90)), "V=N": V,
             "V>N": data.draw(st.integers(1, V - 1))}[relation]
        table = data.draw(hnp.arrays(np.float64, (K, V), elements=self.LOGITS))
        tokens = data.draw(hnp.arrays(np.int64, N, elements=st.integers(0, V - 1)))
        theta = EncoderParams(kind="table", table=table)
        F = forward_logits_batch(tokens, theta)
        assert training._by_vocab_row(theta, N) == (V <= N)
        for fn in (log_softmax, softmax):
            with np.errstate(over="ignore"):  # -1e308 minus a 1e308 max is -inf
                want = fn(F, axis=-1).tobytes()
                assert training._per_item(fn, tokens, theta, F).tobytes() == want
                assert training._per_item(fn, tokens, theta).tobytes() == want
                # the table path at every V, V > N included
                with mock.patch.object(training, "_by_vocab_row", lambda theta, n: True):
                    assert training._per_item(fn, tokens, theta, F).tobytes() == want

    def test_other_encoders_stay_per_item(self):
        theta = init_params("mlp", (4, 3), 1.0, SeededRng(1))
        X = SeededRng(2).gen.normal(size=(50, 4))
        F = forward_logits_batch(X, theta)
        assert not training._by_vocab_row(theta, 50)
        assert training._per_item(softmax, X, theta).tobytes() == softmax(F).tobytes()
        beta = SeededRng(3).gen.dirichlet(np.ones(4), size=3)
        assert not training._by_vocab_row(encoders.fixed_loglik_params(beta), 50)

    def test_train_matches_the_per_item_run(self, monkeypatch):
        rng = SeededRng(21)
        K, V = 3, 10
        groups = [token_group(rng.gen.integers(V, size=20), gid=f"d{d}",
                              label=d % K if d % 4 == 0 else None) for d in range(16)]
        flat = flatten_groups(groups)
        h = HyperParams(alpha=np.full(K, 0.8), lam=1.0, gamma=5.0)
        cfg = TrainConfig(mode="variational", epochs=4, batch_size=4, lr=0.05, verbose=False,
                          seed=5, track_elbo=True)
        rule, taken = training._by_vocab_row, []
        monkeypatch.setattr(training, "_by_vocab_row",
                            lambda theta, n: taken.append(rule(theta, n)) or taken[-1])
        theta_rows, rows = train(flat, init_params("table", (K, V), 0.5, SeededRng(4)), h, cfg)
        # three per batch (the logits' layout, log_softmax and softmax) and one
        # per epoch's ELBO
        assert len(taken) == cfg.epochs * (3 * 4 + 1) and all(taken)
        monkeypatch.setattr(training, "_by_vocab_row", lambda theta, n: False)
        theta_items, items = train(flat, init_params("table", (K, V), 0.5, SeededRng(4)), h, cfg)
        assert "elbo" in rows.records[-1] and rows.records == items.records
        assert theta_rows.flat.tobytes() == theta_items.flat.tobytes()
        assert (rows.reg_state.log_ema_per_topic.tobytes()
                == items.reg_state.log_ema_per_topic.tobytes())


class TestCarriedPsi:
    """After every variational step the carry's psi is digamma of its
    alpha_hat, bit for bit, so the next E-step starts from the bits it
    would compute."""

    @pytest.mark.parametrize("sweeps", [1, 2])
    @pytest.mark.parametrize("encoder", ["table", "mlp"])
    def test_psi_is_digamma_of_alpha_hat_after_every_step(self, monkeypatch, encoder, sweeps):
        rng = SeededRng(8)
        K = 3
        if encoder == "table":
            groups = [token_group(rng.gen.integers(6, size=int(rng.gen.integers(1, 9))),
                                  gid=f"d{d}", label=d % K if d % 3 == 0 else None)
                      for d in range(11)]
            theta = init_params("table", (K, 6), 0.5, SeededRng(4))
        else:
            groups = [Group(id=f"d{d}", label=d % K if d % 3 == 0 else None,
                            items=[Item(dense=rng.gen.normal(size=4)) for _ in range(1 + d % 4)])
                      for d in range(11)]
            theta = init_params("mlp", (4, 5, K), 1.0, SeededRng(4))
        carries = []
        step = training._variational_step

        def checked(mini, batch_ids, theta, hyper, config, carry):
            out = step(mini, batch_ids, theta, hyper, config, carry)
            assert carry.psi.tobytes() == digamma(carry.alpha_hat).tobytes()
            carries.append(carry)
            return out

        monkeypatch.setattr(training, "_variational_step", checked)
        # the numba loop's scalar digamma can round apart from the array form
        monkeypatch.setattr(mean_field, "_mean_field_batch", mean_field._mean_field_batch_np)
        h = HyperParams(alpha=np.full(K, 0.8), lam=1.0, gamma=3.0)
        cfg = TrainConfig(epochs=3, batch_size=4, lr=0.05, e_step_sweeps=sweeps, verbose=False,
                          keep_diagnostics=False)
        train(flatten_groups(groups), theta, h, cfg)
        assert len(carries) == 3 * 3
        assert not np.array_equal(carries[-1].alpha_hat, np.tile(h.alpha, (11, 1)))


class TestBatchSlices:
    @pytest.mark.parametrize("seed", range(5))
    def test_index_equals_the_list_form(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.choice([1, 1, 2, 7, 60], size=int(rng.integers(1, 40)))
        flat = flatten_groups([token_group(np.zeros(n, dtype=np.int64), gid=f"g{d}")
                               for d, n in enumerate(sizes)])
        batch_ids = rng.permutation(flat.num_groups)[: int(rng.integers(1, flat.num_groups + 1))]
        idx, offsets = _batch_slices(flat, batch_ids)
        want = np.concatenate(
            [np.arange(flat.offsets[d], flat.offsets[d + 1]) for d in batch_ids])
        assert idx.dtype == want.dtype and idx.tobytes() == want.tobytes()
        np.testing.assert_array_equal(offsets, np.concatenate([[0], np.cumsum(sizes[batch_ids])]))
        assert offsets.dtype == np.int64


class TestEpochLoops:
    def make_supervised(self, rng, D=12, K=2, V=6, N=5):
        groups = []
        for d in range(D):
            label = d % K
            # class k draws tokens from its own half of the vocabulary
            lo = label * (V // K)
            toks = rng.gen.integers(lo, lo + V // K, size=N)
            groups.append(token_group(toks, label=label, gid=f"d{d}"))
        return groups

    def test_discriminative_learns_separable_classes(self):
        rng = SeededRng(12)
        groups = self.make_supervised(rng)
        theta = init_params("table", (2, 6), 0.1, rng)
        h = HyperParams(alpha=np.ones(2), lam=1.0, n_iter=4)
        cfg = TrainConfig(mode="discriminative", epochs=40, batch_size=4, lr=0.05,
                          verbose=False, seed=1)
        flat = flatten_groups(groups)
        theta, report = train(flat, theta, h, cfg, eval_flat=flat)
        assert report.records[-1]["eval_accuracy"] == 1.0
        assert report.records[-1]["loss"] < report.records[0]["loss"]

    def test_deterministic_reports(self):
        rng = SeededRng(13)
        groups = self.make_supervised(rng)
        h = HyperParams(alpha=np.ones(2), lam=1.0, n_iter=3)
        cfg = TrainConfig(mode="discriminative", epochs=5, batch_size=4, lr=0.01,
                          verbose=False, seed=7)
        runs = []
        for _ in range(2):
            theta = init_params("table", (2, 6), 0.1, SeededRng(99))
            _, report = train(flatten_groups(groups), theta, h, cfg)
            runs.append(report.records)
        assert runs[0] == runs[1]

    def test_variational_deterministic_and_finite(self):
        rng = SeededRng(14)
        groups = self.make_supervised(rng)
        h = HyperParams(alpha=np.ones(2), lam=1.0, gamma=0.5)
        cfg = TrainConfig(mode="variational", epochs=4, batch_size=5, lr=0.05,
                          verbose=False, seed=3)
        runs = []
        for _ in range(2):
            theta = init_params("table", (2, 6), 0.1, SeededRng(42))
            flat = flatten_groups(groups)
            _, report = train(flat, theta, h, cfg, eval_flat=flat)
            runs.append(report.records)
        assert runs[0] == runs[1]
        for rec in runs[0]:
            assert np.isfinite(rec["loss"]) and np.isfinite(rec["elbo"])
            assert sum(rec["topic_usage"]) == flatten_groups(groups).num_items

    def test_metrics_file_written(self, tmp_path):
        rng = SeededRng(15)
        groups = self.make_supervised(rng, D=4)
        path = tmp_path / "metrics.jsonl"
        cfg = TrainConfig(mode="variational", epochs=3, lr=0.01, verbose=False,
                          metrics_path=str(path), track_elbo=False, seed=0)
        theta = init_params("table", (2, 6), 0.1, rng)
        train(flatten_groups(groups), theta, HyperParams(alpha=np.ones(2)), cfg)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        recs = [json.loads(ln) for ln in lines]
        assert [r["epoch"] for r in recs] == [0, 1, 2]

    @pytest.mark.parametrize("mode", ["variational", "discriminative"])
    @pytest.mark.parametrize("kind", ["table", "mlp"])
    def test_callers_params_untouched(self, kind, mode):
        rng = SeededRng(17)
        groups = self.make_supervised(rng)
        if kind == "mlp":  # one-hot rows in place of the token ids
            groups = [Group(id=g.id, items=[Item(dense=np.eye(6)[it.token]) for it in g.items],
                            label=g.label) for g in groups]
        theta = init_params(kind, (2, 6) if kind == "table" else (6, 4, 2), 0.5, rng)
        before = theta.flat.tobytes()
        cfg = TrainConfig(mode=mode, epochs=2, batch_size=4, lr=0.1, verbose=False)
        trained, _ = train(flatten_groups(groups), theta,
                           HyperParams(alpha=np.ones(2), gamma=0.5), cfg)
        assert theta.flat.tobytes() == before
        assert trained.flat.tobytes() != before

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_reg_state_only_when_regularized(self, gamma):
        groups = self.make_supervised(SeededRng(18), D=4)
        cfg = TrainConfig(mode="variational", epochs=1, lr=0.01, verbose=False)
        theta = init_params("table", (2, 6), 0.1, SeededRng(0))
        _, report = train(flatten_groups(groups), theta,
                          HyperParams(alpha=np.ones(2), gamma=gamma), cfg)
        assert (report.reg_state is None) == (gamma == 0.0)

    def test_unlabeled_group_rejected_in_discriminative(self):
        groups = [token_group([0, 1])]
        theta = init_params("table", (2, 2), 0.1, SeededRng(0))
        cfg = TrainConfig(mode="discriminative", verbose=False)
        with pytest.raises(ContractError):
            train(flatten_groups(groups), theta, HyperParams(alpha=np.ones(2)), cfg)

    @pytest.mark.parametrize("mode", ["variational", "discriminative"])
    def test_float_labels_rejected(self, mode):
        # they used to end in an IndexError
        groups = [token_group([0, 1], label=0, gid="a"), token_group([2], label=1, gid="b")]
        flat = flatten_groups(groups)
        flat.labels = flat.labels.astype(np.float64)
        theta = init_params("table", (2, 3), 1.0, SeededRng(0))
        with pytest.raises(ContractError, match="labels must be one integer per group"):
            train(flat, theta, HyperParams(alpha=np.ones(2)),
                  TrainConfig(mode=mode, epochs=1, verbose=False))

    def test_predict_corpus_modes_agree_on_easy_data(self):
        rng = SeededRng(16)
        groups = self.make_supervised(rng)
        theta = init_params("table", (2, 6), 0.0, SeededRng(0))
        theta.table[0, :3] = 3.0
        theta.table[1, 3:] = 3.0
        h = HyperParams(alpha=np.ones(2), n_iter=5)
        flat = flatten_groups(groups)
        pred_u, _, _ = predict_corpus(flat, theta, h, converged=False)
        pred_c, _, _ = predict_corpus(flat, theta, h, converged=True)
        np.testing.assert_array_equal(pred_u, flat.labels)
        np.testing.assert_array_equal(pred_c, flat.labels)


class TestDiagnosticsOnlyWhereRead:
    """A record's topic_usage, elbo and eval_accuracy, and the full-corpus
    beliefs they read, are built only where the records are printed,
    written or kept; theta, the loss and the regularizer state are the
    same bits either way."""

    BASE = {"variational": {"mode", "epoch", "loss"},
            "discriminative": {"mode", "epoch", "loss", "floor_hits"}}

    def run(self, monkeypatch, mode, **config):
        calls = {"_corpus_elbo": 0, "_eval_accuracy": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(training, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(training, name, counted)
        groups = TestEpochLoops().make_supervised(SeededRng(19), D=10)
        flat = flatten_groups(groups)
        h = HyperParams(alpha=np.ones(2), lam=1.0, gamma=0.5, n_iter=3)
        cfg = TrainConfig(mode=mode, epochs=3, batch_size=4, lr=0.05, seed=2, **config)
        theta, report = train(flat, init_params("table", (2, 6), 0.1, SeededRng(5)), h, cfg,
                              eval_flat=flat)
        monkeypatch.undo()
        return theta, report, calls

    @pytest.mark.parametrize("mode", MODES)
    def test_unread_records_hold_no_diagnostics(self, monkeypatch, mode):
        theta, report, calls = self.run(monkeypatch, mode, verbose=False,
                                        keep_diagnostics=False)
        want_theta, want, want_calls = self.run(monkeypatch, mode, verbose=False)
        assert calls == {"_corpus_elbo": 0, "_eval_accuracy": 0}
        assert all(set(r) == self.BASE[mode] for r in report.records)
        assert theta.flat.tobytes() == want_theta.flat.tobytes()
        assert report.final_loss.hex() == want.final_loss.hex()
        assert [{k: r[k] for k in self.BASE[mode]} for r in want.records] == report.records
        if mode == "variational":
            assert (report.reg_state.log_ema_per_topic.tobytes()
                    == want.reg_state.log_ema_per_topic.tobytes())
        else:
            assert report.reg_state is None is want.reg_state
        # the default config keeps them
        assert want_calls == {"_corpus_elbo": 3 if mode == "variational" else 0,
                              "_eval_accuracy": 3}
        for r in want.records:
            assert sum(r["topic_usage"]) == 50 and "eval_accuracy" in r
            assert ("elbo" in r) == (mode == "variational")

    @pytest.mark.parametrize("mode", MODES)
    def test_printed_or_written_records_hold_them(self, monkeypatch, capsys, tmp_path, mode):
        metrics = tmp_path / "m.jsonl"
        for config in ({"verbose": True}, {"verbose": False, "metrics_path": metrics}):
            _, report, _ = self.run(monkeypatch, mode, keep_diagnostics=False, **config)
            assert all({"topic_usage", "eval_accuracy"} <= set(r) for r in report.records)
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert printed == [json.loads(line) for line in metrics.read_text().splitlines()]
        assert printed == report.records
