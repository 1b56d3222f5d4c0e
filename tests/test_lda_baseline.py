import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from logistic_lda.cli import run_cli
from logistic_lda.data_io import corpus_from_groups, save_corpus, save_truth
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
    sample_corpus,
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


def _sampler_args(K, V, seed, beta):
    """sample_corpus's arguments past the sizes; `beta` "dirichlet" draws it
    from the run's own stream first, as `gen --beta random` does."""
    rng = SeededRng(seed)
    if beta == "dirichlet":
        beta = rng.gen.dirichlet(np.full(V, 0.1), size=K)
    else:
        beta = disjoint_topic_matrix(K, V)
    return np.full(K, 0.3), beta, rng


SAMPLER_CASES = {
    "seed0": (3, 9, 7, 5, 0, "disjoint", False),
    "seed1-labeled": (3, 9, 7, 5, 1, "disjoint", True),
    "seed42-readme-sizes": (5, 100, 40, 60, 42, "disjoint", True),
    "big-seed-dirichlet": (4, 11, 6, 8, 2**64 - 1, "dirichlet", False),
    "dirichlet-labeled": (4, 11, 6, 8, 7, "dirichlet", True),
    "one-topic": (1, 3, 5, 4, 3, "disjoint", True),
    "one-item-per-group": (3, 6, 9, 1, 4, "dirichlet", True),
}


class TestSampleCorpus:
    @pytest.mark.parametrize("case", SAMPLER_CASES.values(), ids=SAMPLER_CASES.keys())
    def test_arrays_equal_the_per_group_loop(self, case):
        K, V, D, N, seed, beta, labeled = case
        flat, truth = sample_corpus(K, V, D, N, *_sampler_args(K, V, seed, beta),
                                    labeled=labeled)
        want_groups, want = reference_generate_corpus(K, V, D, N,
                                                      *_sampler_args(K, V, seed, beta),
                                                      labeled=labeled)
        want_flat = flatten_groups(want_groups)
        for got, ref in [(flat.payload, want_flat.payload), (flat.offsets, want_flat.offsets),
                         (flat.labels, want_flat.labels), (truth.pi, want.pi),
                         (truth.z, want.z), (truth.labels, want.labels)]:
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.tobytes() == ref.tobytes()
        assert flat.ids == want_flat.ids == [f"d{d}" for d in range(D)]
        groups, _ = generate_corpus(K, V, D, N, *_sampler_args(K, V, seed, beta),
                                    labeled=labeled)
        assert groups == want_groups

    @pytest.mark.parametrize("extra", [[], ["--labeled"], ["--beta", "random"],
                                       ["--beta", "random", "--labeled"]],
                             ids=["plain", "labeled", "random-beta", "random-beta-labeled"])
    def test_gen_writes_what_the_object_path_writes(self, tmp_path, capsys, extra):
        K, V, D, N, seed = 4, 30, 25, 12, 42
        out = str(tmp_path / "gen.jsonl")
        assert run_cli(["gen", "--k", str(K), "--v", str(V), "--docs", str(D), "--len", str(N),
                        "--seed", str(seed), "-o", out, *extra]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "corpus": out, "truth": f"{out}.truth", "groups": D, "items": D * N}
        rng = SeededRng(seed)
        beta = (rng.gen.dirichlet(np.full(V, 0.1), size=K) if "random" in extra
                else disjoint_topic_matrix(K, V))
        groups, truth = generate_corpus(K, V, D, N, np.full(K, 0.1), beta, rng,
                                        labeled="--labeled" in extra)
        corpus = corpus_from_groups(groups, K, vocab_size=V)
        save_corpus(tmp_path / "obj.jsonl", corpus)
        save_truth(tmp_path / "obj.jsonl.truth", corpus, truth)
        for suffix in ("", ".truth"):
            assert ((tmp_path / f"gen.jsonl{suffix}").read_bytes()
                    == (tmp_path / f"obj.jsonl{suffix}").read_bytes())

    def test_gen_builds_no_item(self, tmp_path, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("gen built an Item")

        monkeypatch.setattr(Item, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            Item(token=0)
        assert run_cli(["gen", "--k", "3", "--v", "9", "--docs", "4", "--len", "5",
                        "--labeled", "-o", str(tmp_path / "c.jsonl")]) == 0


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

    @pytest.mark.parametrize("entry", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_bias_that_is_no_weight_refused(self, entry):
        bias = np.zeros((2, 3))
        bias[1, 2] = entry
        with pytest.raises(DomainError, match=r"^label_bias entries must be finite and >= 0$"):
            GibbsState(z=np.zeros(0, dtype=np.int64), n_dk=np.zeros((2, 3)),
                       n_kv=np.zeros((3, 4)), n_k=np.zeros(3), eta=0.1, label_bias=bias)

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

    @pytest.mark.parametrize("offsets", [[0, 2, 3], [0, 3, 2, 4], [0, 1, 2, 4], [0, 1, 4]],
                             ids=["short", "decreasing", "more-groups", "other-sizes"])
    def test_sweep_refuses_a_corpus_laid_out_unlike_its_state(self, offsets):
        # against a state built on [0, 2, 4], [0, 2, 3] used to leave n_dk at
        # [[3, -1], [0, 2]], [0, 1, 4] to run silently, and the other two to
        # end in an IndexError
        tokens, rng = np.array([0, 1, 2, 3]), SeededRng(0)
        flat = FlatGroups(payload=tokens, offsets=np.array([0, 2, 4]), labels=np.full(2, -1))
        state = gibbs_init(flat, 2, 0.1, rng)
        before = copy.deepcopy(state)
        other = FlatGroups(payload=tokens, offsets=np.array(offsets),
                           labels=np.full(len(offsets) - 1, -1))
        with pytest.raises(ContractError):
            gibbs_sweep(state, other, np.ones(2), rng)
        for name in ("z", "n_dk", "n_kv", "n_k"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name))
        gibbs_sweep(state, flat, np.ones(2), rng)
        check_counts(state, flat)

    def test_sweep_refuses_other_tokens_in_the_same_sizes(self):
        # three sweeps over [3, 3, 3, 3] against a state built on [0, 1, 2, 3]
        # used to leave n_kv[1, 3] at -1, and estimate_beta_theta to return
        # -2.25 as a probability
        rng = SeededRng(0)
        flat = FlatGroups(payload=np.array([0, 1, 2, 3]), offsets=np.array([0, 2, 4]),
                          labels=np.full(2, -1))
        state = gibbs_init(flat, 2, 0.1, rng, V=4)
        before = copy.deepcopy(state)
        other = FlatGroups(payload=np.array([3, 3, 3, 3]), offsets=flat.offsets,
                           labels=flat.labels)
        for _ in range(3):
            with pytest.raises(ContractError, match="counts do not match its assignments"):
                gibbs_sweep(state, other, np.ones(2), rng)
        for name in ("z", "n_dk", "n_kv", "n_k"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name))
        gibbs_sweep(state, flat, np.ones(2), rng)
        check_counts(state, flat)

    @pytest.mark.parametrize("topic", [-1, 2])
    def test_sweep_refuses_an_assignment_outside_the_topics(self, topic):
        flat = _tiny_flat()
        state = gibbs_init(flat, 2, 0.1, SeededRng(0))
        state.z[0] = topic
        with pytest.raises(ContractError, match="counts do not match its assignments"):
            gibbs_sweep(state, flat, np.ones(2), SeededRng(0))

    def test_init_refuses_a_label_outside_the_topics(self):
        # used to end in an untyped IndexError when label_weight > 0
        flat = FlatGroups(payload=np.array([0, 1, 2, 3]), offsets=np.array([0, 2, 4]),
                          labels=np.array([5, -1]))
        rng = SeededRng(0)
        with pytest.raises(DomainError, match=r"^label outside \[0, K\)$"):
            gibbs_init(flat, 2, 0.1, rng, label_weight=1.0)
        assert rng.gen.random() == SeededRng(0).gen.random()  # refused before drawing
        gibbs_init(flat, 2, 0.1, rng)  # labels are not read without a label weight


def _tiny_flat():
    return FlatGroups(payload=np.array([0, 1, 2, 3]), offsets=np.array([0, 2, 4]),
                      labels=np.array([0, -1]))


def _state(eta):
    return GibbsState(z=np.zeros(4), n_dk=np.zeros((2, 2)), n_kv=np.zeros((2, 4)),
                      n_k=np.zeros(2), eta=eta)


def _generate(D=3, N=4):
    return generate_corpus(2, 4, D, N, np.ones(2), disjoint_topic_matrix(2, 4), SeededRng(0))


class TestArgumentTypes:
    # each of these used to truncate, act on its truth value, or raise an
    # untyped TypeError or ValueError
    @pytest.mark.parametrize("name, call", [
        ("K", lambda v: gibbs_init(_tiny_flat(), v, 0.1, SeededRng(0))),
        ("burn_in", lambda v: gibbs_run(_tiny_flat(), 2, np.ones(2), 0.1, SeededRng(0),
                                        burn_in=v)),
        ("n_samples", lambda v: gibbs_run(_tiny_flat(), 2, np.ones(2), 0.1, SeededRng(0),
                                          n_samples=v)),
        ("D", lambda v: _generate(D=v)),
        ("N_per_doc", lambda v: _generate(N=v)),
    ])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", None, True])
    def test_counts_must_be_integers(self, name, call, value):
        with pytest.raises(ContractError, match=f"{name} must be an integer"):
            call(value)

    @pytest.mark.parametrize("name, call", [
        ("eta", _state),
        ("label_weight", lambda v: gibbs_init(_tiny_flat(), 2, 0.1, SeededRng(0),
                                              label_weight=v)),
    ])
    @pytest.mark.parametrize("value", ["1", None, True, 1j])
    def test_rates_must_be_numbers(self, name, call, value):
        with pytest.raises(ContractError, match=f"{name} must be a number"):
            call(value)

    @pytest.mark.parametrize("alpha", [np.ones(3), np.ones(1)])
    def test_alpha_must_have_one_entry_per_topic(self, alpha):
        # a length other than K used to run into the sweep (an untyped
        # IndexError or ValueError) or into estimate_beta_theta's broadcast
        state = gibbs_init(_tiny_flat(), 2, 0.1, SeededRng(0))
        for call in (lambda: gibbs_run(_tiny_flat(), 2, alpha, 0.1, SeededRng(0)),
                     lambda: gibbs_sweep(state, _tiny_flat(), alpha, SeededRng(0)),
                     lambda: estimate_beta_theta(state, alpha)):
            with pytest.raises(ContractError, match=rf"^alpha must have length 2, got {alpha.size}$"):
                call()

    def test_gibbs_run_refuses_alpha_before_drawing(self):
        rng = SeededRng(0)
        with pytest.raises(ContractError, match=r"^alpha must have length 5, got 3$"):
            gibbs_run(_tiny_flat(), 5, np.ones(3), 0.1, rng)
        assert rng.gen.random() == SeededRng(0).gen.random()

    def test_numpy_scalars_give_the_same_run(self):
        a = gibbs_run(_tiny_flat(), np.int64(2), np.ones(2), np.float32(0.5), SeededRng(3),
                      burn_in=np.int32(2), n_samples=np.uint8(2), label_weight=np.float64(1.0))
        b = gibbs_run(_tiny_flat(), 2, np.ones(2), 0.5, SeededRng(3), burn_in=2, n_samples=2,
                      label_weight=1.0)
        for x, y in zip(a[1:], b[1:]):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a[0].z, b[0].z)


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
