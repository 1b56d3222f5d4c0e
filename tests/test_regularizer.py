import math

import numpy as np
import pytest

from logistic_lda.errors import ContractError, DomainError
from logistic_lda.math_kernels import SeededRng, log_softmax, log_sum_exp
from logistic_lda.regularizer import RegularizerState, update_running_estimate

from oracles import (
    bound_value,
    central_difference_grad,
    max_relative_error,
    regularizer_value,
    responsibilities,
)


def random_g(rng, n, k, scale=2.0):
    # rows are log-probabilities over topics, like log_softmax_g output
    return log_softmax(rng.gen.normal(size=(n, k)) * scale, axis=-1)


class TestValue:
    def test_uniform_items(self):
        K, N, gamma = 3, 7, 0.5
        g = np.full((N, K), math.log(1 / K))
        assert regularizer_value(g, gamma) == pytest.approx(
            gamma * K * math.log(N / K), abs=1e-12
        )

    def test_gamma_zero(self):
        assert regularizer_value(np.zeros((4, 2)), 0.0) == 0.0

    def test_single_topic(self):
        # K=1 forces g = 0 by normalization
        assert regularizer_value(np.zeros((5, 1)), 2.0) == pytest.approx(
            2.0 * math.log(5), abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            regularizer_value(np.zeros((0, 3)), 1.0)

    def test_underflow_resistant(self):
        g = np.full((3, 2), -1000.0)
        want = 2 * (math.log(3) - 1000.0)
        assert regularizer_value(g, 1.0) == pytest.approx(want, abs=1e-9)


class TestResponsibilities:
    def test_equal_items(self):
        g = np.tile(np.log([0.2, 0.8]), (4, 1))
        np.testing.assert_allclose(responsibilities(g), 0.25, atol=1e-14)

    def test_one_three_ratio(self):
        g = np.log(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(responsibilities(g)[:, 0], [0.25, 0.75], atol=1e-14)

    def test_columns_sum_to_one(self):
        rng = SeededRng(0)
        for _ in range(20):
            r = responsibilities(random_g(rng, 13, 4))
            np.testing.assert_allclose(r.sum(axis=0), 1.0, atol=1e-12)

    def test_per_topic_shift_invariance(self):
        rng = SeededRng(1)
        g = rng.gen.normal(size=(9, 3))
        shifted = g.copy()
        shifted[:, 1] += 7.5  # constant added to one topic across all items
        np.testing.assert_allclose(responsibilities(shifted), responsibilities(g), atol=1e-12)


class TestBound:
    def test_tight_at_responsibilities(self):
        rng = SeededRng(2)
        for _ in range(100):
            g = random_g(rng, int(rng.gen.integers(2, 12)), int(rng.gen.integers(1, 5)))
            gamma = float(rng.gen.uniform(0.1, 2.0))
            r = responsibilities(g)
            assert bound_value(g, r, gamma) == pytest.approx(
                regularizer_value(g, gamma), abs=1e-10
            )

    def test_perturbed_r_strictly_below(self):
        rng = SeededRng(3)
        g = random_g(rng, 8, 3)
        r = responsibilities(g)
        noisy = r * np.exp(rng.gen.normal(size=r.shape) * 0.5)
        noisy /= noisy.sum(axis=0)
        assert bound_value(g, noisy, 1.0) < regularizer_value(g, 1.0)

    def test_gamma_zero(self):
        g = np.zeros((2, 2))
        assert bound_value(g, responsibilities(g), 0.0) == 0.0

    def test_zero_r_with_mass_rejected(self):
        g = np.zeros((2, 1))
        with pytest.raises(DomainError):
            bound_value(g, np.array([[1.0], [0.0]]), 1.0)

    def test_zero_r_on_impossible_item_ok(self):
        g = np.array([[0.0], [-np.inf]])
        r = np.array([[1.0], [0.0]])
        assert bound_value(g, r, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_same_gradient_as_exact_value(self):
        # d/dg of the bound at fixed r = responsibilities(g) equals
        # gamma * r, which is also the gradient of the exact value
        rng = SeededRng(4)
        g0 = random_g(rng, 6, 3)
        gamma = 0.7

        numeric = central_difference_grad(
            lambda flat: regularizer_value(flat.reshape(g0.shape), gamma),
            g0.ravel(),
            h=1e-6,
        )
        analytic = gamma * responsibilities(g0)
        assert max_relative_error(analytic.ravel(), numeric) <= 1e-6


class TestStateFields:
    @pytest.mark.parametrize("seen", [-3, np.int64(-1)])
    def test_negative_items_seen_refused(self, seen):
        with pytest.raises(ContractError, match="items_seen must be an integer >= 0"):
            RegularizerState(rho=0.9, log_ema_per_topic=np.zeros(2), items_seen=seen)

    @pytest.mark.parametrize("seen", [1.5, 4.0, True, np.bool_(True), "4", None])
    def test_items_seen_must_be_an_integer(self, seen):
        with pytest.raises(ContractError, match="items_seen must be an integer"):
            RegularizerState(rho=0.9, log_ema_per_topic=np.zeros(2), items_seen=seen)

    @pytest.mark.parametrize("seen", [np.int64(4), np.uint16(4), np.int8(4)])
    def test_items_seen_is_stored_as_int(self, seen):
        state = RegularizerState(rho=0.9, log_ema_per_topic=np.zeros(2), items_seen=seen)
        assert type(state.items_seen) is int and state.items_seen == 4

    def test_rho_is_stored_as_float(self):
        state = RegularizerState(rho=np.float32(0.5))
        assert type(state.rho) is float and state.rho == 0.5
        with pytest.raises(ContractError, match="rho must be a number"):
            RegularizerState(rho="0.5")


class TestRunningEstimate:
    def test_degenerate_full_batch_rho_zero(self):
        rng = SeededRng(5)
        g = random_g(rng, 10, 3)
        state = RegularizerState(rho=0.0)
        state, r_hat = update_running_estimate(state, g, total_items=10)
        np.testing.assert_allclose(r_hat, responsibilities(g), atol=1e-12)
        # a second pass over the same full batch changes nothing
        state, r_hat2 = update_running_estimate(state, g, total_items=10)
        np.testing.assert_allclose(r_hat2, r_hat, atol=1e-14)

    def test_constant_g_converges(self):
        g_row = np.log(np.array([0.3, 0.7]))
        state = RegularizerState(rho=0.5)
        total = 40
        for _ in range(60):
            batch = np.tile(g_row, (8, 1))
            state, r_hat = update_running_estimate(state, batch, total)
        np.testing.assert_allclose(state.ema_per_topic, np.exp(g_row), atol=1e-12)
        np.testing.assert_allclose(r_hat, 1.0 / total, atol=1e-12)

    def test_first_batch_initializes(self):
        g = np.log(np.array([[0.5, 0.5], [0.1, 0.9]]))
        state = RegularizerState(rho=0.99)
        state, _ = update_running_estimate(state, g, total_items=2)
        np.testing.assert_allclose(state.ema_per_topic, [0.3, 0.7], atol=1e-14)
        assert state.items_seen == 2

    def test_stream_tracks_dataset_mean(self):
        rng = SeededRng(6)
        data = random_g(rng, 200 * 32, 4, scale=1.0)
        true_mean = np.exp(data).mean(axis=0)
        state = RegularizerState(rho=0.9)
        for b in range(200):
            batch = data[b * 32 : (b + 1) * 32]
            state, _ = update_running_estimate(state, batch, total_items=data.shape[0])
        assert np.all(np.abs(state.ema_per_topic / true_mean - 1.0) < 0.05)

    def test_deterministic(self):
        rng1, rng2 = SeededRng(7), SeededRng(7)
        s1, s2 = RegularizerState(rho=0.8), RegularizerState(rho=0.8)
        for _ in range(5):
            g1 = random_g(rng1, 6, 2)
            g2 = random_g(rng2, 6, 2)
            s1, r1 = update_running_estimate(s1, g1, 100)
            s2, r2 = update_running_estimate(s2, g2, 100)
            np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(s1.ema_per_topic, s2.ema_per_topic)

    def test_total_items_validated(self):
        with pytest.raises(ContractError):
            update_running_estimate(RegularizerState(), np.zeros((4, 2)), total_items=3)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_batch_k_must_match_state(self, rho):
        state = RegularizerState(rho=rho)
        state, _ = update_running_estimate(state, np.zeros((4, 2)), total_items=8)
        with pytest.raises(ContractError, match="batch K does not match regularizer state"):
            update_running_estimate(state, np.zeros((4, 3)), total_items=8)
        # a fresh state takes its K from the first batch, whatever it is
        update_running_estimate(RegularizerState(rho=rho), np.zeros((4, 3)), total_items=8)

    def test_rho_validated(self):
        with pytest.raises(DomainError):
            RegularizerState(rho=1.0)

    def test_very_negative_g_keeps_ema_positive(self):
        g = np.full((5, 2), -800.0)  # exp underflows entrywise in naive code
        state = RegularizerState(rho=0.0)
        state, r_hat = update_running_estimate(state, g, 5)
        # the estimate still reproduces exact responsibilities: 1/5 each
        np.testing.assert_allclose(r_hat, 0.2, atol=1e-12)


class TestVocabularyRowPath:
    """With `index`, g holds one row per vocabulary entry and the exps run on
    those rows: the bits of the per-item call on the gathered rows."""

    V, K = 24, 5

    def rows(self):
        table = SeededRng(11).gen.normal(size=(self.V, self.K)) * 3.0
        table[::4, 0] = -np.inf  # topic 0 is impossible for every 4th token
        table[1, 1:] = -np.inf  # token 1 can only be topic 0
        return log_softmax(table, axis=-1)

    def batches(self):
        rng = SeededRng(12)
        # sizes above and below V, one item, and a batch whose topic-0
        # column is all -inf
        sizes = (40, 7, 1, 60)
        batches = [rng.gen.integers(self.V, size=n) for n in sizes]
        batches.insert(2, rng.gen.choice(np.arange(0, self.V, 4), size=9))
        return batches

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.99])
    def test_same_bits_as_per_item(self, rho):
        rows = self.rows()
        items, by_row = RegularizerState(rho=rho), RegularizerState(rho=rho)
        with np.errstate(invalid="ignore"):  # -inf minus an all -inf column's -inf
            for b, index in enumerate(self.batches()):
                items, r_items = update_running_estimate(items, rows[index], 500)
                by_row, r_rows = update_running_estimate(by_row, rows, 500, index=index)
                assert r_rows.tobytes() == r_items.tobytes()
                assert by_row.log_ema_per_topic.tobytes() == items.log_ema_per_topic.tobytes()
                assert by_row.items_seen == items.items_seen
                if b == 0 or rho == 0.0:
                    # the batch's own log mean, as log_sum_exp over its items
                    want = log_sum_exp(rows[index], axis=0) - np.log(len(index))
                    assert items.log_ema_per_topic.tobytes() == want.tobytes()
        assert items.items_seen == sum(len(i) for i in self.batches())
        assert np.isneginf(rows[self.batches()[2]][:, 0]).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("by_row", [False, True], ids=["items", "rows"])
    def test_nan_and_inf_refused_on_either_path(self, bad, by_row):
        rows = self.rows()
        rows[5, 3] = bad
        index = np.array([0, 5, 2, 5])
        state = RegularizerState()
        with pytest.raises(DomainError, match=r"^log-probabilities must be < inf and not NaN$"):
            if by_row:
                update_running_estimate(state, rows, 10, index=index)
            else:
                update_running_estimate(state, rows[index], 10)
        assert state.items_seen == 0 and state.log_ema_per_topic.size == 0
        # a row no item gathers is not read
        kept = np.array([0, 2, 2, 7])
        update_running_estimate(RegularizerState(), rows, 10, index=kept)

    @pytest.mark.parametrize("g", [np.zeros((4, 0)), np.zeros((0, 3)), np.zeros(4)],
                             ids=["no-topics", "no-items", "one-dimensional"])
    def test_empty_or_flat_batch_refused(self, g):
        with pytest.raises(ContractError, match=r"^need a non-empty \(num_items, K\) array"):
            update_running_estimate(RegularizerState(), g, 10)

