import math

import numpy as np
import pytest

from logistic_lda.encoders import (
    EncoderParams,
    Item,
    backward_batch,
    fixed_loglik_params,
    forward_logits_batch,
    init_params,
)
from logistic_lda.errors import ContractError, DomainError, UnsupportedOperationError
from logistic_lda.math_kernels import SeededRng, log_softmax, log_sum_exp, softmax
from logistic_lda.training import Optimizer

from oracles import central_difference_grad, max_relative_error, reference_table_backward


def small_mlp(seed=0, dims=(5, 4, 3), scale=1.0):
    return init_params("mlp", dims, scale, SeededRng(seed))


def one_row(x):
    """A one-item batch payload: a (1, E) dense row or a (1,) token id."""
    if np.ndim(x):
        return np.asarray(x, dtype=np.float64)[None, :]
    return np.array([x], dtype=np.int64)


def forward_one(x, theta):
    return forward_logits_batch(one_row(x), theta)[0]


def backward_one(x, theta, u):
    return backward_batch(one_row(x), theta, np.asarray(u, dtype=np.float64)[None, :])


class TestItem:
    def test_needs_exactly_one_payload(self):
        with pytest.raises(ContractError):
            Item()
        with pytest.raises(ContractError):
            Item(dense=np.ones(3), token=1)

    def test_dense_validation(self):
        with pytest.raises(DomainError):
            Item(dense=np.array([1.0, np.nan]))
        with pytest.raises(DomainError):
            Item(token=-1)

    @pytest.mark.parametrize("token", [1.7, 2.0, "3", True, np.bool_(False)])
    def test_token_must_be_an_integer(self, token):
        # 1.7 used to become token 1, "3" token 3 and True token 1
        with pytest.raises(ContractError, match="token must be an integer"):
            Item(token=token)

    @pytest.mark.parametrize("token", [3, np.int64(3), np.uint8(3)])
    def test_token_is_stored_as_int(self, token):
        assert type(Item(token=token).token) is int


class TestForward:
    def test_zero_mlp_gives_zero_logits(self):
        theta = small_mlp(scale=0.0)
        out = forward_one(np.ones(5), theta)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_table_lookup_is_column(self):
        theta = init_params("table", (3, 3), 0.0, SeededRng(0))
        theta.table[:] = np.eye(3)
        np.testing.assert_array_equal(
            forward_one(1, theta), np.array([0.0, 1.0, 0.0])
        )

    def test_fixed_loglik_is_log_column(self):
        beta = np.array([[0.2, 0.8], [0.4, 0.6]])
        theta = fixed_loglik_params(beta)
        np.testing.assert_allclose(
            forward_one(0, theta), [math.log(0.2), math.log(0.4)], atol=1e-15
        )

    def test_fixed_loglik_zero_entry_is_neg_inf(self):
        theta = fixed_loglik_params(np.array([[0.0, 1.0], [0.5, 0.5]]))
        f = forward_one(0, theta)
        assert f[0] == -np.inf and f[1] == math.log(0.5)

    def test_fixed_loglik_rows_normalize_in_log_space(self):
        rng = SeededRng(3)
        beta = rng.gen.dirichlet(np.ones(50), size=4)
        theta = fixed_loglik_params(beta)
        f = forward_logits_batch(np.arange(50), theta)  # (V, K)
        assert np.all(np.abs(log_sum_exp(f.T, axis=1)) < 1e-10)

    @pytest.mark.parametrize("K,V,N", [(1, 4, 9), (5, 100, 6000), (10, 50, 3), (33, 7, 7),
                                       (5, 100, 0)])
    def test_table_gather_keeps_the_column_gather_bits(self, K, V, N):
        rng = np.random.default_rng(K * V + N)
        table = rng.normal(scale=1e3, size=(K, V))
        table[:, ::3] = rng.choice([0.0, -0.0, 1e300, -1e300], size=table[:, ::3].shape)
        theta = EncoderParams(kind="table", table=table)
        for tokens in (rng.integers(V, size=N), rng.integers(V, size=N).astype(np.int32)):
            F = forward_logits_batch(tokens, theta)
            want = table[:, tokens].T.copy()
            assert F.flags.c_contiguous and F.dtype == want.dtype and F.shape == want.shape
            assert F.tobytes() == want.tobytes()

    def test_batch_matches_per_item(self):
        theta = small_mlp(seed=1)
        X = SeededRng(2).gen.normal(size=(7, 5))
        batch = forward_logits_batch(X, theta)
        for n in range(7):
            np.testing.assert_allclose(forward_one(X[n], theta), batch[n])

    def test_kind_mismatch(self):
        theta = small_mlp()
        with pytest.raises(ContractError):
            forward_one(0, theta)
        tab = init_params("table", (3, 10), 1.0, SeededRng(0))
        with pytest.raises(ContractError):
            forward_one(np.ones(5), tab)

    def test_token_out_of_range(self):
        tab = init_params("table", (3, 10), 1.0, SeededRng(0))
        with pytest.raises(ContractError):
            forward_one(10, tab)


class TestLogSoftmaxG:
    def test_uniform(self):
        theta = small_mlp(scale=0.0, dims=(5, 2))
        g = log_softmax(forward_one(np.zeros(5), theta))
        np.testing.assert_allclose(g, [-math.log(2)] * 2, atol=1e-15)

    def test_two_to_one(self):
        tab = init_params("table", (2, 1), 0.0, SeededRng(0))
        tab.table[:, 0] = [math.log(2), 0.0]
        g = log_softmax(forward_one(0, tab))
        np.testing.assert_allclose(g, [math.log(2 / 3), math.log(1 / 3)], atol=1e-14)

    def test_exp_sums_to_one(self):
        theta = small_mlp(seed=5)
        x = SeededRng(6).gen.normal(size=5) * 20
        g = log_softmax(forward_one(x, theta))
        assert abs(np.exp(g).sum() - 1.0) < 1e-12

    def test_shift_invariance_of_conditional(self):
        # adding a constant to all logits cannot change softmax(f + ln pi)
        tab = init_params("table", (4, 3), 1.0, SeededRng(7))
        lnpi = np.log(np.array([0.1, 0.2, 0.3, 0.4]))
        f = forward_one(2, tab)
        np.testing.assert_allclose(
            softmax(f + 11.0 + lnpi), softmax(f + lnpi), atol=1e-14
        )


class TestBackward:
    def test_zero_upstream_zero_grad(self):
        theta = small_mlp(seed=8)
        g = theta.with_flat(backward_one(np.ones(5), theta, np.zeros(3)))
        assert all(np.all(W == 0) for W in g.weights)
        assert all(np.all(b == 0) for b in g.biases)

    def test_table_grad_touches_only_token_column(self):
        tab = init_params("table", (3, 7), 1.0, SeededRng(9))
        u = np.array([1.0, -2.0, 0.5])
        g = tab.with_flat(backward_one(4, tab, u))
        np.testing.assert_array_equal(g.table[:, 4], u)
        mask = np.ones(7, dtype=bool)
        mask[4] = False
        assert np.all(g.table[:, mask] == 0)

    @pytest.mark.parametrize("payload", [np.array([1.0, 2.0]), np.array([[1, 2]]),
                                         np.array([True, False])],
                             ids=["float", "2-d", "boolean"])
    def test_table_grad_refuses_what_forward_refuses(self, payload):
        tab = init_params("table", (2, 4), 1.0, SeededRng(0))
        dF = np.ones((payload.shape[0], 2))
        for call in (lambda: forward_logits_batch(payload, tab),
                     lambda: backward_batch(payload, tab, dF)):
            with pytest.raises(ContractError, match="token payload must be a 1-d integer array"):
                call()

    @pytest.mark.parametrize("kind", ["table", "mlp"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_grad_needs_one_row_per_item(self, kind, rows):
        if kind == "table":
            theta, payload = init_params("table", (3, 4), 1.0, SeededRng(0)), np.array([0, 1])
        else:
            theta, payload = init_params("mlp", (2, 3), 1.0, SeededRng(0)), np.zeros((2, 2))
        with pytest.raises(ContractError, match="one row per payload item"):
            backward_batch(payload, theta, np.ones((rows, 3)))

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 50, 300])
    @pytest.mark.parametrize("n", [1, 7, 640, 6000])
    def test_table_grad_bits_match_add_at(self, n, k):
        # repeated tokens accumulate in item order, signed zeros included
        rng = np.random.default_rng(n + k)
        tab = init_params("table", (k, 40), 1.0, SeededRng(k))
        tokens = rng.integers(0, 40 if n > 7 else 3, size=n)
        dF = rng.normal(scale=10.0, size=(n, k))
        dF[rng.random((n, k)) < 0.2] = -0.0
        dF[rng.random((n, k)) < 0.2] = 0.0
        for upstream in (dF, np.asfortranarray(dF)):
            grad = tab.with_flat(backward_batch(tokens, tab, upstream)).table
            want = reference_table_backward(tokens, tab.table.shape, upstream)
            assert grad.tobytes() == want.tobytes()

    def test_mlp_matches_finite_differences(self):
        theta = small_mlp(seed=10)
        x = SeededRng(11).gen.normal(size=5)
        u = SeededRng(12).gen.normal(size=3)

        def loss(flat):
            p = theta.with_flat(flat)
            return float(u @ forward_one(x, p))

        flat0 = theta.flat
        numeric = central_difference_grad(loss, flat0, h=1e-5)
        analytic = backward_one(x, theta, u)
        assert max_relative_error(analytic, numeric) <= 1e-6

    def test_deep_mlp_matches_finite_differences(self):
        theta = init_params("mlp", (4, 6, 5, 3), 0.8, SeededRng(13))
        X = SeededRng(14).gen.normal(size=(6, 4))
        U = SeededRng(15).gen.normal(size=(6, 3))

        def loss(flat):
            p = theta.with_flat(flat)
            return float(np.sum(U * forward_logits_batch(X, p)))

        numeric = central_difference_grad(loss, theta.flat, h=1e-5)
        analytic = backward_batch(X, theta, U)
        assert max_relative_error(analytic, numeric) <= 1e-6

    def test_relu_matches_finite_differences(self):
        theta = init_params("mlp", (3, 8, 2), 1.0, SeededRng(16), activations=("relu", "linear"))
        x = SeededRng(17).gen.normal(size=3)
        u = np.array([0.3, -1.1])

        def loss(flat):
            return float(u @ forward_one(x, theta.with_flat(flat)))

        numeric = central_difference_grad(loss, theta.flat, h=1e-5)
        analytic = backward_one(x, theta, u)
        assert max_relative_error(analytic, numeric) <= 1e-6

    def test_linear_in_upstream(self):
        theta = small_mlp(seed=18)
        x = SeededRng(19).gen.normal(size=5)
        u1 = SeededRng(20).gen.normal(size=3)
        u2 = SeededRng(21).gen.normal(size=3)
        g1 = backward_one(x, theta, u1)
        g2 = backward_one(x, theta, u2)
        g12 = backward_one(x, theta, 2.0 * u1 - 3.0 * u2)
        np.testing.assert_allclose(g12, 2.0 * g1 - 3.0 * g2, atol=1e-12)

    @pytest.mark.parametrize("activations", [("tanh", "linear"), ("relu", "tanh")])
    def test_forward_hidden_gives_the_same_gradient_bits(self, activations):
        # the training steps hand backward_batch the layer inputs their
        # forward pass kept; the gradient is bitwise the one it computes alone
        theta = init_params("mlp", (5, 4, 3), 1.0, SeededRng(25), activations=activations)
        X = SeededRng(26).gen.normal(size=(7, 5))
        U = SeededRng(27).gen.normal(size=(7, 3))
        F, hidden = forward_logits_batch(X, theta, keep_hidden=True)
        np.testing.assert_array_equal(F, forward_logits_batch(X, theta))
        np.testing.assert_array_equal(backward_batch(X, theta, U, hidden),
                                      backward_batch(X, theta, U))

    def test_batch_is_sum_of_items(self):
        theta = small_mlp(seed=22)
        X = SeededRng(23).gen.normal(size=(4, 5))
        U = SeededRng(24).gen.normal(size=(4, 3))
        total = backward_batch(X, theta, U)
        acc = np.zeros_like(total)
        for n in range(4):
            acc += backward_one(X[n], theta, U[n])
        np.testing.assert_allclose(total, acc, atol=1e-12)

    def test_fixed_loglik_unsupported(self):
        theta = fixed_loglik_params(np.array([[0.5, 0.5]]))
        with pytest.raises(UnsupportedOperationError):
            backward_one(0, theta, np.zeros(1))


class TestInit:
    def test_scale_zero_all_zero(self):
        theta = small_mlp(scale=0.0)
        assert all(np.all(W == 0) for W in theta.weights)
        tab = init_params("table", (4, 9), 0.0, SeededRng(0))
        assert np.all(tab.table == 0)

    def test_deterministic_under_seed(self):
        a = small_mlp(seed=42).flat
        b = small_mlp(seed=42).flat
        np.testing.assert_array_equal(a, b)

    def test_fan_in_variance(self):
        theta = init_params("mlp", (100, 100, 3), 1.5, SeededRng(33))
        W = theta.weights[0]  # 10^4 entries, fan_in 100
        target = 1.5**2 / 100
        assert abs(W.var() / target - 1.0) < 0.20

    def test_biases_zero(self):
        theta = small_mlp(seed=1, scale=2.0)
        assert all(np.all(b == 0) for b in theta.biases)

    def test_bad_shapes(self):
        with pytest.raises(ContractError):
            init_params("mlp", (5,), 1.0, SeededRng(0))
        with pytest.raises(ContractError):
            init_params("table", (3, 0), 1.0, SeededRng(0))
        with pytest.raises(ContractError):
            init_params("fixed_loglik", (2, 2), 1.0, SeededRng(0))

    @pytest.mark.parametrize("kind, dims", [("mlp", (5, 3)), ("table", (3, 4))])
    @pytest.mark.parametrize("scale", [-1.0, np.nan, np.inf])
    def test_bad_scale_rejected(self, kind, dims, scale):
        with pytest.raises(DomainError):
            init_params(kind, dims, scale, SeededRng(0))

    @pytest.mark.parametrize("kind, dims", [
        ("table", (2.7, 6)), ("table", (2, "6")), ("table", (True, 6)),
        ("mlp", (3.9, 4.5, 2)), ("mlp", (3, 4, None))])
    def test_dims_must_be_integers(self, kind, dims):
        # (2.7, 6) used to build a (2, 6) table, and (3.9, 4.5, 2) a 4x3 first layer
        with pytest.raises(ContractError, match="dimension must be an integer"):
            init_params(kind, dims, 0.1, SeededRng(0))

    @pytest.mark.parametrize("scale", ["x", None, True, 1j])
    def test_scale_must_be_a_number(self, scale):
        # "x" used to raise an untyped ValueError, and True to act as 1.0
        with pytest.raises(ContractError, match="init scale must be a number"):
            init_params("table", (2, 6), scale, SeededRng(0))

    def test_numpy_dims_and_scale_give_the_same_parameters(self):
        a = init_params("mlp", (np.int64(3), np.uint8(4), 2), np.float32(0.5), SeededRng(0))
        b = init_params("mlp", (3, 4, 2), 0.5, SeededRng(0))
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_fixed_loglik_row_sum_checked(self):
        with pytest.raises(DomainError):
            fixed_loglik_params(np.array([[0.5, 0.6]]))


def zeros_mlp(weights, biases, activations):
    """An mlp of zero arrays with the given weight and bias shapes."""
    return EncoderParams(kind="mlp", weights=tuple(np.zeros(w) for w in weights),
                         biases=tuple(np.zeros(b) for b in biases), activations=activations)


class TestEncoderContract:
    """An EncoderParams refuses what load_checkpoint would refuse in the
    file save_checkpoint writes from it."""

    @pytest.mark.parametrize("make,message", [
        (lambda: EncoderParams(kind="lstm", table=np.zeros((2, 3))),
         "unknown encoder kind 'lstm'"),
        (lambda: zeros_mlp([(2, 3)], [2], ("gelu",)), "one activation in"),
        (lambda: zeros_mlp([(4, 3), (2, 4)], [4, 2], ("tanh",)),
         "one activation in"),
        (lambda: zeros_mlp([(4, 3), (2, 4)], [4], ("tanh", "linear")),
         "one bias"),
        (lambda: zeros_mlp([(4, 3), (2, 5)], [4, 2], ("tanh", "linear")),
         r"layer 1 weights \(2, 5\) and biases \(2,\) do not chain"),
        (lambda: zeros_mlp([(4, 3)], [(4, 1)], ("linear",)),
         r"layer 0 weights \(4, 3\) and biases \(4, 1\) do not chain"),
        (lambda: zeros_mlp([(3,)], [3], ("linear",)), "do not chain"),
        (lambda: EncoderParams(kind="mlp"), "an mlp needs one or more layers"),
        (lambda: EncoderParams(kind="table"), r"needs a \(K, V\) table, got shape \(\)"),
        (lambda: EncoderParams(kind="table", table=np.zeros(3)), r"got shape \(3,\)"),
        (lambda: EncoderParams(kind="fixed_loglik", table=np.full(4, 0.25)),
         r"got shape \(4,\)"),
    ], ids=["unknown-kind", "unknown-activation", "fewer-activations", "fewer-biases",
            "layers-do-not-chain", "bias-not-vector", "weight-not-matrix", "mlp-no-layers",
            "table-missing", "table-1d", "beta-1d"])
    def test_refuses_structure(self, make, message):
        with pytest.raises(ContractError, match=message):
            make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["mlp", "table"])
    def test_refuses_non_finite_parameters(self, kind, bad):
        theta = small_mlp() if kind == "mlp" else init_params("table", (3, 4), 1.0, SeededRng(0))
        arrays = [a.copy() for a in theta.weights + theta.biases] or [theta.table.copy()]
        arrays[-1].flat[0] = bad
        with pytest.raises(DomainError, match=f"{kind} parameters must be finite"):
            if kind == "mlp":
                EncoderParams(kind="mlp", weights=tuple(arrays[:2]), biases=tuple(arrays[2:]),
                              activations=theta.activations)
            else:
                EncoderParams(kind="table", table=arrays[0])

    @pytest.mark.parametrize("beta,message", [
        ([[0.5, 0.6]], "each beta row must sum to 1"),
        ([[1.5, -0.5]], "beta entries must be finite and non-negative"),
        ([[np.nan, 1.0]], "beta entries must be finite and non-negative"),
    ], ids=["row-sum", "negative", "nan"])
    def test_fixed_loglik_rules_in_the_constructor(self, beta, message):
        with pytest.raises(DomainError, match=message):
            EncoderParams(kind="fixed_loglik", table=np.array(beta))
        with pytest.raises(DomainError, match=message):
            fixed_loglik_params(beta)

    def test_fixed_loglik_params_is_the_constructor(self):
        beta = [[0.25, 0.75], [1.0, 0.0]]
        theta = fixed_loglik_params(beta)
        assert theta.kind == "fixed_loglik" and theta.flat.size == 0
        assert theta.table.dtype == np.float64 and theta.table.tolist() == beta
        assert theta.num_topics == 2

    def test_init_params_refuses_activations_through_the_constructor(self):
        with pytest.raises(ContractError, match="one activation in"):
            init_params("mlp", (3, 4, 2), 1.0, SeededRng(0), activations=("tanh",))
        with pytest.raises(ContractError, match="one activation in"):
            init_params("mlp", (3, 2), 1.0, SeededRng(0), activations=("softplus",))

    def test_encoder_has_no_vocab_size(self):
        assert not hasattr(init_params("table", (3, 4), 1.0, SeededRng(0)), "vocab_size")

    def test_check_sees_later_edits(self):
        # check() runs the same rules on an encoder edited after it was built
        theta = small_mlp()
        theta.check()
        theta.activations = ("tanh", "sigmoid")
        with pytest.raises(ContractError, match="one activation in"):
            theta.check()


class TestFlatViews:
    def test_roundtrip_mlp(self):
        theta = small_mlp(seed=44)
        assert theta.flat.size == 5 * 4 + 4 + 4 * 3 + 3
        back = theta.with_flat(theta.flat.copy())
        for x, y in zip(back.weights + back.biases, theta.weights + theta.biases):
            np.testing.assert_array_equal(x, y)
        assert back.activations == theta.activations

    def test_roundtrip_table(self):
        tab = init_params("table", (3, 11), 1.0, SeededRng(45))
        back = tab.with_flat(tab.flat.copy())
        np.testing.assert_array_equal(back.table, tab.table)

    def test_fixed_loglik_has_no_params(self):
        theta = fixed_loglik_params(np.array([[0.5, 0.5]]))
        assert theta.flat.size == 0

    def test_length_mismatch(self):
        theta = small_mlp()
        with pytest.raises(ContractError):
            theta.with_flat(np.zeros(3))

    def test_arrays_are_views_of_flat(self):
        theta = small_mlp(seed=46)
        assert all(np.shares_memory(a, theta.flat) for a in theta.weights + theta.biases)
        tab = init_params("table", (3, 4), 1.0, SeededRng(47))
        assert np.shares_memory(tab.table, tab.flat)
        back = theta.with_flat(theta.flat)  # no copy either way
        assert np.shares_memory(back.weights[0], theta.flat)

    def test_layout_is_layer_order(self):
        theta = small_mlp(seed=48)
        np.testing.assert_array_equal(theta.flat, np.concatenate(
            [a.ravel() for W, b in zip(theta.weights, theta.biases) for a in (W, b)]))

    def test_constructor_copies_given_arrays(self):
        table = np.zeros((2, 3))
        theta = EncoderParams(kind="table", table=table)
        theta.flat[:] = 1.0
        assert np.all(table == 0.0) and np.all(theta.table == 1.0)

    def test_optimizer_step_moves_forward_logits(self):
        theta = small_mlp(seed=49)
        X = SeededRng(50).gen.normal(size=(3, 5))
        before = forward_logits_batch(X, theta)
        Optimizer(kind="sgd").step(theta.flat, backward_batch(X, theta, np.ones((3, 3))), lr=0.1)
        after = forward_logits_batch(X, theta)
        assert np.sum(after) < np.sum(before)
