import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from logistic_lda.encoders import Item
from logistic_lda.errors import ContractError, DomainError
from logistic_lda.lda_baseline import (
    GibbsState,
    disjoint_topic_matrix,
    estimate_beta_theta,
    generate_corpus,
    gibbs_init,
    gibbs_run,
    gibbs_sweep,
    item_groups,
)
from logistic_lda.math_kernels import SeededRng
from logistic_lda.mean_field import FlatGroups, flatten_groups

from oracles import (
    check_counts,
    gibbs_conditional,
    lda_collapsed_pair_posterior,
    reference_generate_corpus,
)


def disjoint_beta(K, V):
    # block-diagonal supports: topic k owns tokens [k*V//K, (k+1)*V//K)
    assert V % K == 0
    width = V // K
    beta = np.zeros((K, V))
    for k in range(K):
        beta[k, k * width : (k + 1) * width] = 1.0 / width
    return beta


class TestGenerateCorpus:
    def test_bad_beta_rejected(self):
        beta = np.ones((2, 3))  # rows sum to 3
        with pytest.raises(DomainError):
            generate_corpus(2, 3, 1, 1, np.ones(2), beta, SeededRng(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            generate_corpus(2, 4, 1, 1, np.ones(2), disjoint_beta(2, 6), SeededRng(0))

    def test_disjoint_supports_identify_topics(self):
        K, V = 3, 12
        groups, truth = generate_corpus(K, V, 20, 15, np.full(K, 0.5), disjoint_beta(K, V), SeededRng(3))
        flat = flatten_groups(groups)
        np.testing.assert_array_equal(flat.payload // (V // K), truth.z)

    def test_seed_reproducibility(self):
        K, V = 2, 6
        a, ta = generate_corpus(K, V, 5, 7, np.ones(K), disjoint_beta(K, V), SeededRng(11))
        b, tb = generate_corpus(K, V, 5, 7, np.ones(K), disjoint_beta(K, V), SeededRng(11))
        np.testing.assert_array_equal(flatten_groups(a).payload, flatten_groups(b).payload)
        np.testing.assert_array_equal(ta.z, tb.z)
        np.testing.assert_array_equal(ta.pi, tb.pi)

    def test_token_marginal_matches_mixture(self):
        # marginal token law is (alpha / sum alpha)' beta
        K, V = 3, 9
        rng = SeededRng(17)
        beta = rng.gen.dirichlet(np.ones(V), size=K)
        alpha = np.array([0.5, 1.5, 1.0])
        groups, _ = generate_corpus(K, V, 2000, 50, alpha, beta, rng)
        tokens = flatten_groups(groups).payload
        emp = np.bincount(tokens, minlength=V) / tokens.size
        want = (alpha / alpha.sum()) @ beta
        assert 0.5 * np.abs(emp - want).sum() <= 0.01

    def test_labeled_flag(self):
        K, V = 2, 4
        groups, truth = generate_corpus(K, V, 8, 5, np.ones(K), disjoint_beta(K, V), SeededRng(5), labeled=True)
        assert [g.label for g in groups] == truth.labels.tolist()
        groups2, _ = generate_corpus(K, V, 8, 5, np.ones(K), disjoint_beta(K, V), SeededRng(5))
        assert all(g.label is None for g in groups2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_draw_equals_the_per_group_loop(self, data):
        # every group, latent and the RNG state after the call, bit for bit;
        # small alphas put exact zeros in pi, and random betas put
        # zero-probability tokens anywhere in a row, the last entry included
        K = data.draw(st.integers(1, 6))
        V = data.draw(st.integers(K, 12))
        D, N = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        labeled = data.draw(st.booleans())
        alpha = np.array(data.draw(st.lists(st.sampled_from([1e-3, 0.05, 0.5, 1.0, 3.0]),
                                            min_size=K, max_size=K)))
        alpha[data.draw(st.integers(0, K - 1))] = 1.0  # so no row of pi underflows to zero
        if data.draw(st.booleans()):
            beta = disjoint_topic_matrix(K, V)
        else:
            w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 1.0, 2.5]),
                                            min_size=K * V, max_size=K * V))).reshape(K, V)
            w[w.sum(axis=1) == 0.0, data.draw(st.integers(0, V - 1))] = 1.0
            beta = w / w.sum(axis=1, keepdims=True)
        seed = data.draw(st.integers(0, 2**64 - 1))
        rng, ref_rng = SeededRng(seed), SeededRng(seed)
        groups, truth = generate_corpus(K, V, D, N, alpha, beta, rng, labeled=labeled)
        want_groups, want = reference_generate_corpus(K, V, D, N, alpha, beta, ref_rng,
                                                      labeled=labeled)
        for name in ("pi", "z", "labels"):
            got, ref = getattr(truth, name), getattr(want, name)
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.tobytes() == ref.tobytes()
        assert groups == want_groups
        np.testing.assert_equal(rng.gen.bit_generator.state, ref_rng.gen.bit_generator.state)

    @pytest.mark.parametrize("gammas,beta,u", [
        ([0.0, 0.0, 1.0, 0.0, 0.7], disjoint_topic_matrix(5, 10), 0.0),
        (np.ones(10), np.full((10, 10), 0.1), np.nextafter(1.0, 0.0)),
    ], ids=["zero-uniforms-on-ties", "uniforms-above-the-last-cumsum"])
    def test_ties_and_clips_match_the_per_group_loop(self, gammas, beta, u):
        # a uniform of 0.0 meets cumulative sums tied at 0.0, and the largest
        # uniform exceeds the 0.9999999999999999 that ten sums of 0.1 reach,
        # where only the clips keep topics and tokens in range
        K, V = beta.shape
        groups, truth = generate_corpus(K, V, 3, 4, np.ones(K), beta, _FixedDraws(gammas, u))
        want_groups, want = reference_generate_corpus(K, V, 3, 4, np.ones(K), beta,
                                                      _FixedDraws(gammas, u))
        assert groups == want_groups
        np.testing.assert_array_equal(truth.z, want.z)


class _FixedDraws:
    """Stands in for a SeededRng: fixed gamma variates and constant uniforms,
    which reach the ties and clips that random uniforms almost never do."""

    def __init__(self, gammas, u):
        self.gen, self.gammas, self.u = self, np.asarray(gammas, dtype=np.float64), u

    def standard_gamma(self, alpha):
        return np.broadcast_to(self.gammas, np.shape(alpha)).copy()

    def random(self, size):
        return np.full(size, self.u)


class TestGibbsConditional:
    def empty_state(self, K, V, D=1, eta=0.1):
        return GibbsState(
            z=np.zeros(0, dtype=np.int64),
            n_dk=np.zeros((D, K)),
            n_kv=np.zeros((K, V)),
            n_k=np.zeros(K),
            eta=eta,
        )

    def test_zero_counts_uniform(self):
        st = self.empty_state(4, 7)
        np.testing.assert_allclose(gibbs_conditional(st, 0, 3, np.full(4, 0.8)), 0.25, atol=1e-15)

    def test_matches_direct_formula(self):
        rng = SeededRng(2)
        K, V = 3, 5
        n_kv = rng.gen.integers(0, 9, size=(K, V)).astype(float)
        st = GibbsState(
            z=np.zeros(0, dtype=np.int64),
            n_dk=rng.gen.integers(0, 6, size=(1, K)).astype(float),
            n_kv=n_kv,
            n_k=n_kv.sum(axis=1),
            eta=0.3,
        )
        alpha = rng.gen.uniform(0.2, 1.5, size=K)
        got = gibbs_conditional(st, 0, 2, alpha)
        want = (st.n_dk[0] + alpha) * (n_kv[:, 2] + 0.3) / (st.n_k + V * 0.3)
        want /= want.sum()
        np.testing.assert_allclose(got, want, atol=1e-15)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_huge_eta_washes_out_tokens(self):
        rng = SeededRng(4)
        K, V = 3, 4
        n_kv = rng.gen.integers(0, 20, size=(K, V)).astype(float)
        st = GibbsState(
            z=np.zeros(0, dtype=np.int64),
            n_dk=np.array([[4.0, 0.0, 2.0]]),
            n_kv=n_kv,
            n_k=n_kv.sum(axis=1),
            eta=1e9,
        )
        alpha = np.array([0.5, 0.5, 0.5])
        got = gibbs_conditional(st, 0, 1, alpha)
        want = st.n_dk[0] + alpha
        want /= want.sum()
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_negative_count_rejected(self):
        st = self.empty_state(2, 2)
        st.n_k[0] = -1.0
        with pytest.raises(ContractError):
            gibbs_conditional(st, 0, 0, np.ones(2))

    def test_label_bias_shifts_conditional(self):
        st = self.empty_state(2, 3)
        st.label_bias[0, 1] = 5.0
        got = gibbs_conditional(st, 0, 0, np.ones(2))
        want = np.array([1.0, 6.0]) / 7.0
        np.testing.assert_allclose(got, want, atol=1e-15)


def small_corpus(rng, K=3, V=12, D=10, N=8):
    groups, truth = generate_corpus(K, V, D, N, np.full(K, 0.5), disjoint_beta(K, V), rng)
    return flatten_groups(groups), truth


class TestGibbsSweep:
    def test_single_topic_identity(self):
        rng = SeededRng(6)
        flat, _ = small_corpus(rng, K=3)
        st = gibbs_init(flat, 1, 0.1, rng)
        z0 = st.z.copy()
        gibbs_sweep(st, flat, np.ones(1), rng)
        np.testing.assert_array_equal(st.z, z0)
        check_counts(st, flat)

    def test_counts_consistent_after_sweeps(self):
        rng = SeededRng(7)
        flat, _ = small_corpus(rng)
        st = gibbs_init(flat, 3, 0.1, rng)
        alpha = np.full(3, 0.5)
        for _ in range(100):
            gibbs_sweep(st, flat, alpha, rng)
        check_counts(st, flat)
        assert st.n_dk.sum(axis=1) == pytest.approx(flat.sizes())
        np.testing.assert_array_equal(st.n_kv.sum(axis=1), st.n_k)

    def test_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            rng = SeededRng(8)
            flat, _ = small_corpus(rng)
            st = gibbs_init(flat, 3, 0.1, rng)
            for _ in range(20):
                gibbs_sweep(st, flat, np.full(3, 0.5), rng)
            runs.append(st.z.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_init_rejects_out_of_range_token(self):
        rng = SeededRng(9)
        flat, _ = small_corpus(rng, V=12)
        with pytest.raises(ContractError):
            gibbs_init(flat, 3, 0.1, rng, V=5)

    @pytest.mark.parametrize("offsets", [[0, 2, 3], [0, 3, 2, 4]], ids=["short", "decreasing"])
    def test_run_refuses_offsets_that_do_not_split_the_tokens(self, offsets):
        # over 4 tokens these used to end in an IndexError and a ValueError
        flat = FlatGroups(payload=np.array([0, 1, 2, 3]), offsets=np.array(offsets),
                          labels=np.full(len(offsets) - 1, -1))
        with pytest.raises(ContractError, match="offsets must split the payload rows"):
            gibbs_run(flat, 2, np.ones(2), 0.1, SeededRng(0), burn_in=1, n_samples=1)

    @pytest.mark.parametrize("payload", [np.array([0, 1, -1, 2]), np.array([0.0, 1.0, 1.0, 2.0]),
                                         np.zeros((4, 2))], ids=["negative", "float", "dense"])
    @pytest.mark.parametrize("V", [None, 12])
    def test_refuses_a_payload_that_is_not_token_ids(self, payload, V):
        rng = SeededRng(10)
        flat, _ = small_corpus(rng, D=2, N=2)
        bad = FlatGroups(payload=payload, offsets=flat.offsets, labels=flat.labels, ids=flat.ids)
        with pytest.raises(ContractError):
            gibbs_init(bad, 3, 0.1, rng, V=V)
        state = gibbs_init(flat, 3, 0.1, rng, V=12)
        with pytest.raises(ContractError):
            gibbs_sweep(state, bad, np.full(3, 0.5), rng)

    @pytest.mark.parametrize("kw", [{"eta": 0.0}, {"eta": np.nan}, {"eta": np.inf},
                                    {"label_weight": -1.0}, {"label_weight": np.nan},
                                    {"label_weight": np.inf}])
    def test_init_rejects_bad_eta_and_label_weight(self, kw):
        rng = SeededRng(9)
        flat, _ = small_corpus(rng, V=12)
        with pytest.raises(DomainError):
            gibbs_init(flat, 3, kw.get("eta", 0.1), rng, label_weight=kw.get("label_weight", 0.0))


class TestSweepReplay:
    def test_each_draw_is_the_oracle_inverse_cdf(self):
        # replay every sweep item by item from the same uniforms: each new
        # z[i] is where u[i] falls in the oracle's cumulative conditional,
        # label bias included
        rng = SeededRng(18)
        K, V = 3, 12
        groups, _ = generate_corpus(K, V, 8, 6, np.full(K, 0.5), disjoint_beta(K, V), rng,
                                    labeled=True)
        groups[2].label = None
        flat = flatten_groups(groups)
        alpha = np.array([0.3, 0.7, 1.1])
        st = gibbs_init(flat, K, 0.2, rng, label_weight=2.0, V=V)
        gid = item_groups(flat)
        for _ in range(4):
            replay = copy.deepcopy(st)
            u = copy.deepcopy(rng).gen.random(flat.num_items)
            gibbs_sweep(st, flat, alpha, rng)
            for i, (d, v) in enumerate(zip(gid, flat.payload)):
                k = replay.z[i]
                replay.n_dk[d, k] -= 1.0
                replay.n_kv[k, v] -= 1.0
                replay.n_k[k] -= 1.0
                p = gibbs_conditional(replay, d, v, alpha)
                k = min(int(np.searchsorted(np.cumsum(p), u[i], side="right")), K - 1)
                assert st.z[i] == k, f"item {i}"
                replay.z[i] = k
                replay.n_dk[d, k] += 1.0
                replay.n_kv[k, v] += 1.0
                replay.n_k[k] += 1.0
            check_counts(st, flat)


@pytest.fixture(scope="module")
def recovery_run():
    rng = SeededRng(21)
    K, V = 3, 12
    groups, truth = generate_corpus(K, V, 60, 20, np.full(K, 0.3), disjoint_beta(K, V), rng)
    flat = flatten_groups(groups)
    state, item_post, beta_hat, pi_hat = gibbs_run(
        flat, K, np.full(K, 0.3), 0.1, rng, burn_in=200, n_samples=200
    )
    return K, V, truth, flat, state, item_post, beta_hat, pi_hat


def match_by_confusion(z_true, z_hat, K):
    C = np.zeros((K, K))
    np.add.at(C, (z_true, z_hat), 1.0)
    rows, cols = linear_sum_assignment(-C)
    perm = np.empty(K, dtype=np.int64)
    perm[cols] = rows
    return perm, C[rows, cols].sum() / C.sum()


class TestRecovery:
    def test_assignment_accuracy(self, recovery_run):
        K, _, truth, _, _, item_post, _, _ = recovery_run
        _, acc = match_by_confusion(truth.z, item_post.argmax(axis=1), K)
        assert acc >= 0.95

    def test_beta_recovery(self, recovery_run):
        K, V, truth, _, _, item_post, beta_hat, _ = recovery_run
        perm, _ = match_by_confusion(truth.z, item_post.argmax(axis=1), K)
        true_beta = disjoint_beta(K, V)
        for k in range(K):
            tv = 0.5 * np.abs(beta_hat[k] - true_beta[perm[k]]).sum()
            assert tv <= 0.05

    def test_estimates_on_simplex(self, recovery_run):
        _, _, _, _, state, _, beta_hat, pi_hat = recovery_run
        np.testing.assert_allclose(beta_hat.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(pi_hat.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(beta_hat >= 0) and np.all(pi_hat >= 0)


class TestEstimates:
    def test_zero_counts_give_prior_means(self):
        K, V = 3, 5
        st = GibbsState(
            z=np.zeros(0, dtype=np.int64),
            n_dk=np.zeros((2, K)),
            n_kv=np.zeros((K, V)),
            n_k=np.zeros(K),
            eta=0.7,
        )
        alpha = np.array([1.0, 2.0, 3.0])
        beta, pi = estimate_beta_theta(st, alpha)
        np.testing.assert_allclose(beta, 1.0 / V, atol=1e-15)
        np.testing.assert_allclose(pi, np.tile(alpha / alpha.sum(), (2, 1)), atol=1e-15)


class TestPairPosterior:
    def test_long_run_matches_enumeration(self):
        # D=1, N=2, K=2, V=2; compare Gibbs visit frequencies of the four
        # assignment pairs to the exact collapsed joint
        tokens = [0, 1]
        alpha = np.array([0.7, 1.3])
        eta = 0.4
        exact = lda_collapsed_pair_posterior(tokens, alpha, eta, 2, 2)
        from logistic_lda.mean_field import Group

        flat = flatten_groups([Group(id="d0", items=[Item(token=t) for t in tokens])])
        rng = SeededRng(33)
        st = gibbs_init(flat, 2, eta, rng, V=2)
        for _ in range(200):
            gibbs_sweep(st, flat, alpha, rng)
        counts = {z: 0 for z in exact}
        n_sweeps = 30_000
        for _ in range(n_sweeps):
            gibbs_sweep(st, flat, alpha, rng)
            counts[tuple(st.z)] += 1
        tv = 0.5 * sum(abs(counts[z] / n_sweeps - exact[z]) for z in exact)
        assert tv <= 0.02


class TestLabelBiasRun:
    def test_labeled_groups_get_bias_rows(self):
        rng = SeededRng(15)
        K, V = 2, 6
        groups, truth = generate_corpus(K, V, 6, 5, np.ones(K), disjoint_beta(K, V), rng, labeled=True)
        groups[3].label = None
        flat = flatten_groups(groups)
        st = gibbs_init(flat, K, 0.1, rng, label_weight=2.5)
        for d, g in enumerate(groups):
            if g.label is None:
                np.testing.assert_array_equal(st.label_bias[d], 0.0)
            else:
                assert st.label_bias[d, g.label] == 2.5
                assert st.label_bias[d].sum() == 2.5

    def test_item_groups_layout(self):
        rng = SeededRng(16)
        flat, _ = small_corpus(rng, D=4, N=3)
        gid = item_groups(flat)
        np.testing.assert_array_equal(gid, np.repeat(np.arange(4), 3))
