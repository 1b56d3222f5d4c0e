import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma as sp_digamma

from logistic_lda.data_io import corpus_from_groups, load_corpus, save_corpus

from logistic_lda.encoders import Item, fixed_loglik_params, forward_logits_batch, init_params
from logistic_lda.errors import ContractError, DomainError
from logistic_lda.math_kernels import SeededRng, digamma, expected_log_pi, log_softmax, softmax
from logistic_lda.mean_field import (
    NO_TAPE,
    FlatGroups,
    Group,
    HyperParams,
    _mean_field_batch_np,
    batch_mean_field,
    flatten_groups,
)
from logistic_lda.training import TrainConfig, _corpus_elbo, predict_corpus, train

from oracles import (
    MeanFieldState,
    init_state,
    reference_group_elbo,
    reference_mean_field_batch,
    run_sweeps,
    sweep,
    update_alpha,
    update_item_beliefs,
    update_label_beliefs,
)

# f == 0 with alpha_hat = [3, 1]: psi(3) - psi(1) = 3/2, so the first
# component is the logistic of 1.5
SIGMA_15 = 1.0 / (1.0 + math.exp(-1.5))


def zero_table(K, V=6):
    return init_params("table", (K, V), 0.0, SeededRng(0))


def token_group(tokens, label=None, gid="g"):
    return Group(id=gid, items=[Item(token=int(t)) for t in tokens], label=label)


def hp(K, lam=1.0, **kw):
    return HyperParams(alpha=np.ones(K), lam=lam, **kw)


def log_probs(flat, theta):
    """g(x, theta): ln softmax f, except fixed_loglik logits, which are
    already the per-topic token log-likelihoods."""
    f = forward_logits_batch(flat.payload, theta)
    return f if theta.kind == "fixed_loglik" else log_softmax(f, axis=-1)


def elbo(group, state, theta, hyper):
    """The bound training reports (`_corpus_elbo`), for one group."""
    flat = flatten_groups([group])
    return _corpus_elbo(log_probs(flat, theta), state.p_items, state.p_label[None],
                        state.alpha_hat[None], flat, hyper)


class TestInitState:
    def test_no_label(self):
        g = token_group([0, 1, 2])
        s = init_state(g, hp(4))
        np.testing.assert_array_equal(s.p_label, np.full(4, 0.25))
        np.testing.assert_array_equal(s.alpha_hat, np.ones(4))
        np.testing.assert_array_equal(s.p_items, np.full((3, 4), 0.25))
        assert not s.clamped

    def test_clamped_label(self):
        g = token_group([0], label=2)
        s = init_state(g, hp(4), clamp_label=True)
        np.testing.assert_array_equal(s.p_label, [0, 0, 1, 0])
        assert s.clamped

    def test_label_ignored_without_clamping(self):
        g = token_group([0], label=2)
        s = init_state(g, hp(4), clamp_label=False)
        np.testing.assert_array_equal(s.p_label, np.full(4, 0.25))
        assert not s.clamped

    def test_label_out_of_range(self):
        g = token_group([0], label=4)
        with pytest.raises(DomainError):
            init_state(g, hp(4))

    def test_empty_group_rejected(self):
        with pytest.raises(ContractError):
            Group(id="e", items=[])


class TestItemBeliefs:
    def test_zero_logits_symmetric_alpha(self):
        g = token_group([0, 1])
        s = init_state(g, hp(3))
        update_item_beliefs(s, g, zero_table(3))
        np.testing.assert_allclose(s.p_items, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_psi_shift_cancels_at_symmetric_alpha(self):
        theta = zero_table(2)
        theta.table[:, 0] = [math.log(2), 0.0]
        g = token_group([0])
        s = init_state(g, hp(2))
        update_item_beliefs(s, g, theta)
        np.testing.assert_allclose(s.p_items[0], [2 / 3, 1 / 3], atol=1e-14)

    def test_asymmetric_alpha_hat(self):
        g = token_group([0])
        s = init_state(g, hp(2))
        s.alpha_hat = np.array([3.0, 1.0])
        update_item_beliefs(s, g, zero_table(2))
        np.testing.assert_allclose(s.p_items[0], [0.8175745, 0.1824255], atol=1e-7)
        np.testing.assert_allclose(s.p_items[0], [SIGMA_15, 1 - SIGMA_15], atol=1e-12)

    def test_expected_log_pi_gives_identical_beliefs(self):
        # psi(alpha_hat) and E[ln pi] differ by the constant psi(sum alpha_hat)
        rng = SeededRng(1)
        a_hat = rng.gen.uniform(0.3, 5.0, size=4)
        f = rng.gen.normal(size=4)
        np.testing.assert_allclose(
            softmax(f + digamma(a_hat)), softmax(f + expected_log_pi(a_hat)), atol=1e-12
        )


class TestAlphaUpdate:
    def test_one_hot_items(self):
        s = MeanFieldState(
            alpha_hat=np.ones(3),
            p_label=np.full(3, 1 / 3),
            p_items=np.array([[1.0, 0, 0], [0, 1.0, 0]]),
        )
        update_alpha(s, hp(3, lam=0.0))
        np.testing.assert_array_equal(s.alpha_hat, [2, 2, 1])

    def test_no_items_edge(self):
        s = MeanFieldState(
            alpha_hat=np.ones(3),
            p_label=np.array([0.0, 0.0, 1.0]),
            p_items=np.zeros((0, 3)),
        )
        update_alpha(s, hp(3, lam=2.0))
        np.testing.assert_array_equal(s.alpha_hat, [1, 1, 3])

    def test_uniform_items(self):
        s = MeanFieldState(
            alpha_hat=np.full(2, 0.5),
            p_label=np.full(2, 0.5),
            p_items=np.full((4, 2), 0.5),
        )
        update_alpha(s, HyperParams(alpha=np.full(2, 0.5), lam=0.0))
        np.testing.assert_array_equal(s.alpha_hat, [2.5, 2.5])

    def test_min_alpha_hat_floor(self):
        rng = SeededRng(2)
        for _ in range(25):
            K = int(rng.gen.integers(1, 5))
            alpha = rng.gen.uniform(0.05, 2.0, size=K)
            P = rng.gen.dirichlet(np.ones(K), size=int(rng.gen.integers(0, 6)))
            s = MeanFieldState(
                alpha_hat=alpha.copy(),
                p_label=rng.gen.dirichlet(np.ones(K)),
                p_items=P,
            )
            update_alpha(s, HyperParams(alpha=alpha, lam=float(rng.gen.uniform(0, 3))))
            assert s.alpha_hat.min() >= alpha.min()


class TestLabelBeliefs:
    def test_lam_zero_uniform(self):
        s = MeanFieldState(
            alpha_hat=np.array([5.0, 1.0]), p_label=np.array([0.9, 0.1]), p_items=np.zeros((0, 2))
        )
        update_label_beliefs(s, hp(2, lam=0.0))
        np.testing.assert_allclose(s.p_label, [0.5, 0.5], atol=1e-15)

    def test_derived_value(self):
        s = MeanFieldState(
            alpha_hat=np.array([3.0, 1.0]), p_label=np.full(2, 0.5), p_items=np.zeros((0, 2))
        )
        update_label_beliefs(s, hp(2, lam=1.0))
        np.testing.assert_allclose(s.p_label, [0.8175745, 0.1824255], atol=1e-7)

    def test_clamped_untouched(self):
        s = MeanFieldState(
            alpha_hat=np.array([1.0, 9.0]),
            p_label=np.array([1.0, 0.0]),
            p_items=np.zeros((0, 2)),
            clamped=True,
        )
        update_label_beliefs(s, hp(2, lam=5.0))
        np.testing.assert_array_equal(s.p_label, [1.0, 0.0])


class TestSweep:
    def test_symmetric_fixed_point_after_one_sweep(self):
        g = token_group([0, 1, 2, 3])
        h = hp(2, lam=1.0)
        s = sweep(g, init_state(g, h), zero_table(2), h)
        np.testing.assert_allclose(s.p_items, 0.5, atol=1e-15)
        np.testing.assert_allclose(s.p_label, 0.5, atol=1e-15)
        before = copy.deepcopy(s)
        sweep(g, s, zero_table(2), h)
        np.testing.assert_allclose(s.alpha_hat, before.alpha_hat, atol=1e-15)
        np.testing.assert_allclose(s.p_items, before.p_items, atol=1e-15)

    def test_updates_idempotent(self):
        g = token_group([0, 2, 4], label=1)
        h = hp(3, lam=1.7)
        theta = init_params("table", (3, 6), 1.0, SeededRng(3))
        s = sweep(g, init_state(g, h, clamp_label=True), theta, h)
        for fn, args in [
            (update_item_beliefs, (s, g, theta)),
            (update_alpha, (s, h)),
            (update_label_beliefs, (s, h)),
        ]:
            fn(*args)
            first = copy.deepcopy(s)
            fn(*args)
            np.testing.assert_allclose(s.alpha_hat, first.alpha_hat, atol=1e-15)
            np.testing.assert_allclose(s.p_items, first.p_items, atol=1e-15)
            np.testing.assert_allclose(s.p_label, first.p_label, atol=1e-15)

    def test_clamped_label_pulls_item_beliefs(self):
        # strong label coupling dominates the uniform likelihood
        g = token_group([0, 1, 2, 3], label=0)
        h = hp(2, lam=10.0)
        theta = zero_table(2)
        s, n = run_sweeps(g, init_state(g, h, clamp_label=True), theta, h)
        assert n < 100
        assert np.all(s.p_items[:, 0] > 0.9)

        # independent fixed-point iteration on the same equations
        a_hat = np.ones(2)
        for _ in range(200):
            p = np.exp(sp_digamma(a_hat) - sp_digamma(a_hat).max())
            p /= p.sum()
            a_hat = np.ones(2) + 4 * p + 10.0 * np.array([1.0, 0.0])
        np.testing.assert_allclose(s.alpha_hat, a_hat, atol=1e-6)
        np.testing.assert_allclose(s.p_items[0], p, atol=1e-6)

    def test_deterministic(self):
        g = token_group([1, 3], label=0)
        h = hp(2, lam=0.5)
        theta = init_params("table", (2, 6), 1.0, SeededRng(4))
        s1 = sweep(g, init_state(g, h), theta, h)
        s2 = sweep(g, init_state(g, h), theta, h)
        np.testing.assert_array_equal(s1.alpha_hat, s2.alpha_hat)
        np.testing.assert_array_equal(s1.p_items, s2.p_items)

    def test_bad_order_entry(self):
        g = token_group([0])
        h = hp(2)
        with pytest.raises(ContractError):
            sweep(g, init_state(g, h), zero_table(2), h, order=("items", "beta"))

    def test_convergence_cap(self):
        g = token_group([0, 1])
        h = hp(2)
        s, n = run_sweeps(g, init_state(g, h), zero_table(2), h, tol=1e-6)
        assert n <= 100


def random_instance(seed):
    rng = SeededRng(seed)
    K = int(rng.gen.integers(1, 5))
    N = int(rng.gen.integers(1, 7))
    V = 8
    theta = init_params("table", (K, V), 1.0, rng)
    g = Group(
        id=f"r{seed}",
        items=[Item(token=int(t)) for t in rng.gen.integers(0, V, size=N)],
        label=int(rng.gen.integers(0, K)) if rng.gen.random() < 0.5 else None,
    )
    h = HyperParams(
        alpha=rng.gen.uniform(0.1, 3.0, size=K),
        lam=float(rng.gen.uniform(0.0, 3.0)),
    )
    s = init_state(g, h, clamp_label=bool(rng.gen.random() < 0.5))
    for _ in range(int(rng.gen.integers(0, 3))):
        sweep(g, s, theta, h)
    return g, s, theta, h


class TestElbo:
    def test_degenerate_single_topic(self):
        g = token_group([0, 1, 2])
        h = hp(1)
        theta = zero_table(1)
        s = init_state(g, h)
        vals = [elbo(g, s, theta, h)]
        for _ in range(3):
            sweep(g, s, theta, h)
            vals.append(elbo(g, s, theta, h))
        assert all(v == vals[0] for v in vals)
        assert vals[0] == 0.0

    def test_uniform_item_entropy_is_ln_k(self):
        # with symmetric alpha_hat and constant g, switching one item's
        # belief between one-hot and uniform changes the bound by ln K
        K = 3
        g = token_group([0])
        h = hp(K)
        theta = zero_table(K)
        s = init_state(g, h)
        s.alpha_hat = np.full(K, 2.0)
        uniform = elbo(g, s, theta, h)
        s.p_items = np.zeros((1, K))
        s.p_items[0, 0] = 1.0
        onehot = elbo(g, s, theta, h)
        assert uniform - onehot == pytest.approx(math.log(K), abs=1e-12)

    @pytest.mark.parametrize("seed", range(120))
    def test_single_updates_never_decrease_elbo(self, seed):
        g, s, theta, h = random_instance(seed)
        for fn, args in [
            (update_item_beliefs, (s, g, theta)),
            (update_alpha, (s, h)),
            (update_label_beliefs, (s, h)),
        ]:
            before = elbo(g, s, theta, h)
            fn(*args)
            after = elbo(g, s, theta, h)
            assert after >= before - 1e-9

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_straight_line_reference(self, seed):
        g, s, theta, h = random_instance(seed)
        want = reference_group_elbo(
            log_probs(flatten_groups([g]), theta),
            s.p_items,
            s.p_label,
            s.alpha_hat,
            h.alpha,
            h.lam,
        )
        got = elbo(g, s, theta, h)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    @pytest.mark.parametrize("seed", range(10))
    def test_corpus_elbo_is_sum_of_group_references(self, seed):
        # the corpus-wide vectorized bound, on arbitrary beliefs, equals the
        # straight-line reference summed group by group
        rng = SeededRng(500 + seed)
        K, V, D = int(rng.gen.integers(1, 6)), 9, int(rng.gen.integers(1, 8))
        groups = [token_group(rng.gen.integers(0, V, size=int(rng.gen.integers(1, 7))),
                              gid=f"d{d}") for d in range(D)]
        flat = flatten_groups(groups)
        theta = init_params("table", (K, V), 1.5, rng)
        h = HyperParams(alpha=rng.gen.uniform(0.1, 3.0, size=K), lam=float(rng.gen.uniform(0, 3)))
        P = rng.gen.dirichlet(np.ones(K), size=flat.num_items)
        PL = rng.gen.dirichlet(np.ones(K), size=D)
        AH = h.alpha + rng.gen.uniform(0.0, 6.0, size=(D, K))
        g = log_probs(flat, theta)
        got = _corpus_elbo(g, P, PL, AH, flat, h)
        want = 0.0
        for d in range(D):
            lo, hi = flat.offsets[d], flat.offsets[d + 1]
            want += reference_group_elbo(g[lo:hi], P[lo:hi], PL[d], AH[d], h.alpha, h.lam)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    def test_zero_likelihood_topic_with_zero_belief_is_finite(self):
        # beta has a structural zero; the matching belief is zero too, and
        # 0 * (-inf) must contribute nothing
        beta = np.array([[1.0, 0.0], [0.5, 0.5]])
        theta = fixed_loglik_params(beta)
        g = token_group([1])  # token 1 impossible under topic 0
        h = hp(2, lam=0.0)
        s = init_state(g, h)
        s.p_items = np.array([[0.0, 1.0]])
        assert np.isfinite(elbo(g, s, theta, h))
        # but positive belief on the impossible topic drives the bound to -inf
        s.p_items = np.array([[0.5, 0.5]])
        assert elbo(g, s, theta, h) == -np.inf


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            HyperParams(alpha=np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            HyperParams(alpha=np.ones(2), lam=-0.1)
        with pytest.raises(DomainError):
            HyperParams(alpha=np.ones(2), gamma=-1.0)
        with pytest.raises(ContractError):
            HyperParams(alpha=np.ones(2), n_iter=0)
        with pytest.raises(DomainError):
            HyperParams(alpha=np.ones(2), rho=1.0)

    @pytest.mark.parametrize("kw", [{"lam": np.nan}, {"lam": np.inf},
                                    {"gamma": np.nan}, {"gamma": np.inf}])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(DomainError):
            HyperParams(alpha=np.ones(2), **kw)

    @pytest.mark.parametrize("n_iter", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3",
                                        None])
    def test_n_iter_must_be_an_integer(self, n_iter):
        # 2.5 used to construct and run int(2.5) = 2 sweeps
        with pytest.raises(ContractError, match="n_iter must be an integer"):
            HyperParams(alpha=np.ones(2), n_iter=n_iter)

    @pytest.mark.parametrize("n_iter", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_n_iter_is_stored_as_int(self, n_iter):
        h = HyperParams(alpha=np.ones(2), n_iter=n_iter)
        assert type(h.n_iter) is int and h.n_iter == 3

    @pytest.mark.parametrize("field", ["lam", "gamma", "rho"])
    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.float16(0.5), 0.5])
    def test_reals_are_stored_as_float(self, field, value):
        h = HyperParams(alpha=np.ones(2), **{field: value})
        assert type(getattr(h, field)) is float and getattr(h, field) == 0.5

    @pytest.mark.parametrize("field", ["lam", "gamma", "rho"])
    def test_integer_reals_are_stored_as_float(self, field):
        h = HyperParams(alpha=np.ones(2), **{field: np.int64(0) if field == "rho" else 2})
        assert type(getattr(h, field)) is float

    @pytest.mark.parametrize("field", ["lam", "gamma", "rho"])
    @pytest.mark.parametrize("value", ["1", None, True, np.bool_(False), 1j, [0.5]])
    def test_reals_must_be_numbers(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be a number"):
            HyperParams(alpha=np.ones(2), **{field: value})

    def test_int_beyond_the_float_range_is_refused(self):
        with pytest.raises(ContractError, match="lam .* is beyond the float range"):
            HyperParams(alpha=np.ones(2), lam=10**400)


class TestGroup:
    @pytest.mark.parametrize("label", [1.5, 1.0, "1", True])
    def test_label_must_be_an_integer(self, label):
        # 1.5 used to become label 1
        with pytest.raises(ContractError, match="label must be an integer"):
            Group(id="a", items=[Item(token=0)], label=label)

    def test_label_is_stored_as_int(self):
        assert type(Group(id="a", items=[Item(token=0)], label=np.int64(2)).label) is int

    @pytest.mark.parametrize("gid", [5, "", None, b"a", ("a",)])
    def test_id_must_be_a_non_empty_string(self, gid):
        # Group(id=5) used to construct, and flatten_groups to pack it
        with pytest.raises(ContractError, match="ids must be one non-empty string per group"):
            Group(id=gid, items=[Item(token=0)])

    @pytest.mark.parametrize("fault", [None, "id", "items", "label"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_group_that_constructs_saves_and_loads_back(self, tmp_path_factory, fault,
                                                              data):
        # each draw builds a group with at most one spoiled field; a spoiled
        # one raises a typed error, and any other saves as a corpus that
        # loads back to the same id, tokens and label
        gid = data.draw(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1))
        tokens = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=5))
        label = data.draw(st.one_of(st.none(), st.integers(0, 2)))
        items = [Item(token=t) for t in tokens]
        error = ContractError
        if fault == "id":
            gid = data.draw(st.one_of(st.just(""), st.none(), st.integers(), st.binary(),
                                      st.lists(st.text())))
        if fault == "items":
            items = []
        if fault == "label":
            label, error = data.draw(st.one_of(
                st.tuples(st.one_of(st.floats(), st.text(), st.booleans()),
                          st.just(ContractError)),
                st.tuples(st.integers(max_value=-1), st.just(DomainError))))
        if fault is not None:
            with pytest.raises(error):
                Group(id=gid, items=items, label=label)
            return
        path = tmp_path_factory.mktemp("group") / "c.jsonl"
        save_corpus(path, corpus_from_groups([Group(id=gid, items=items, label=label)], 3,
                                             vocab_size=10))
        back = load_corpus(path).groups[0]
        assert (back.id, [it.token for it in back.items], back.label) == (gid, tokens, label)


class TestFlatGroupsCheck:
    @staticmethod
    def flat(payload=(0, 1, 2), offsets=(0, 1, 3), labels=(0, -1), ids=("a", "b")):
        return FlatGroups(payload=np.asarray(payload), offsets=np.asarray(offsets),
                          labels=np.asarray(labels), ids=list(ids))

    @pytest.mark.parametrize("kw,message", [
        ({"offsets": (0, 2, 1, 3)}, "offsets must split"),
        # np.diff of unsigned offsets wraps a decrease round to a large size
        ({"offsets": np.array([0, 2, 1, 3], dtype=np.uint64)}, "offsets must split"),
        ({"offsets": (0, 1, 2)}, "offsets must split"),
        ({"offsets": (0.0, 1.0, 3.0)}, "offsets must split"),
        ({"payload": (0.0, 1.0, 2.0)}, "payload must be 1-d integer tokens or 2-d float rows"),
        ({"payload": np.zeros((3, 2), dtype=np.int64)}, "payload must be 1-d integer"),
        ({"payload": np.zeros((3, 2, 1))}, "payload must be 1-d integer"),
        ({"payload": ("a", "b", "c")}, "payload must be 1-d integer"),
        ({"labels": (0.0, -1.0)}, "labels must be one integer per group"),
        ({"labels": (0, -1, 1)}, "labels must be one integer per group"),
        ({"labels": 0}, "labels must be one integer per group"),
        ({"ids": ("a",)}, "ids must be one non-empty string per group, or none"),
        ({"ids": ("a", "")}, "ids must be one non-empty string per group"),
        ({"ids": ("a", 2)}, "ids must be one non-empty string per group"),
    ], ids=["decreasing-offsets", "decreasing-unsigned-offsets", "short-offsets", "float-offsets", "float-tokens",
            "integer-rows", "3-d-payload", "string-payload", "float-labels", "labels-per-group",
            "scalar-labels", "ids-per-group", "empty-id", "integer-id"])
    def test_refuses(self, kw, message):
        with pytest.raises(ContractError, match=message):
            self.flat(**kw).check()

    @pytest.mark.parametrize("kw", [{}, {"ids": ()}, {"payload": np.zeros((3, 2))},
                                    {"payload": np.zeros((3, 2), dtype=np.float32)},
                                    {"payload": np.array([0, 1, 2], dtype=np.uint16)}])
    def test_accepts(self, kw):
        self.flat(**kw).check()

    @pytest.mark.parametrize("run", ["batch_mean_field", "predict_corpus"])
    def test_callers_check(self, run):
        flat = self.flat(labels=(0.0, 1.0))
        h = HyperParams(alpha=np.full(3, 0.5), n_iter=3)
        theta = init_params("table", (3, 4), 1.0, SeededRng(0))
        with pytest.raises(ContractError, match="labels must be one integer per group"):
            if run == "batch_mean_field":
                batch_mean_field(np.zeros((3, 3)), flat, h, True, 3)
            else:
                predict_corpus(flat, theta, h)


class TestBatchLayer:
    def make_corpus(self, seed, D=6, token_items=True):
        rng = SeededRng(seed)
        K, V, E = 3, 9, 4
        groups = []
        for d in range(D):
            N = int(rng.gen.integers(1, 7))
            label = int(rng.gen.integers(0, K)) if rng.gen.random() < 0.5 else None
            if token_items:
                items = [Item(token=int(t)) for t in rng.gen.integers(0, V, size=N)]
            else:
                items = [Item(dense=rng.gen.normal(size=E)) for _ in range(N)]
            groups.append(Group(id=f"d{d}", items=items, label=label))
        if token_items:
            theta = init_params("table", (K, V), 1.0, rng)
        else:
            theta = init_params("mlp", (E, 5, K), 1.0, rng)
        h = HyperParams(alpha=rng.gen.uniform(0.2, 2.0, size=K), lam=1.3)
        return groups, theta, h

    def test_flatten_layout(self):
        groups, _, _ = self.make_corpus(7)
        flat = flatten_groups(groups)
        assert flat.num_groups == len(groups)
        assert flat.offsets[0] == 0
        sizes = [len(g.items) for g in groups]
        np.testing.assert_array_equal(flat.sizes(), sizes)
        assert flat.num_items == sum(sizes)
        for d, g in enumerate(groups):
            assert flat.labels[d] == (-1 if g.label is None else g.label)

    @pytest.mark.parametrize("items", [
        [[Item(token=0)], [Item(dense=np.zeros(2))]],
        [[Item(dense=np.zeros(1))], [Item(token=0)]],
        [[Item(dense=np.zeros(2))], [Item(dense=np.zeros(3))]],
        [[Item(dense=np.zeros(2)), Item(dense=np.zeros(3))]],
        [[Item(token=1), Item(dense=np.zeros(2))]],
    ], ids=["token-then-dense", "dense-then-token", "widths-across-groups",
            "widths-in-group", "kinds-in-group"])
    def test_flatten_refuses_mixed_payloads(self, items):
        groups = [Group(id=f"g{d}", items=its) for d, its in enumerate(items)]
        with pytest.raises(ContractError, match="tokens, or dense vectors of one width"):
            flatten_groups(groups)

    @pytest.mark.parametrize("token_items", [True, False])
    @pytest.mark.parametrize("clamp", [True, False])
    def test_batch_matches_single_group_sweeps(self, token_items, clamp):
        groups, theta, h = self.make_corpus(11, token_items=token_items)
        flat = flatten_groups(groups)
        F = forward_logits_batch(flat.payload, theta)
        n_sweeps = 4
        P, PL, AH, done = batch_mean_field(F, flat, h, clamp, n_sweeps, tol=0.0)
        assert done == n_sweeps
        for d, g in enumerate(groups):
            s = init_state(g, h, clamp_label=clamp)
            for _ in range(n_sweeps):
                sweep(g, s, theta, h)
            lo, hi = flat.offsets[d], flat.offsets[d + 1]
            np.testing.assert_allclose(P[lo:hi], s.p_items, atol=1e-12)
            np.testing.assert_allclose(PL[d], s.p_label, atol=1e-12)
            np.testing.assert_allclose(AH[d], s.alpha_hat, atol=1e-12)

    def test_batch_convergence_tolerance(self):
        groups, theta, h = self.make_corpus(13)
        flat = flatten_groups(groups)
        F = forward_logits_batch(flat.payload, theta)
        P, PL, AH, done = batch_mean_field(F, flat, h, False, 100, tol=1e-6)
        # tol is a per-group rule: each group stops where the single-group
        # oracle stops, and the batch reports the largest sweep count
        counts = []
        for d, g in enumerate(groups):
            s, n = run_sweeps(g, init_state(g, h), theta, h, tol=1e-6, max_sweeps=100)
            lo, hi = flat.offsets[d], flat.offsets[d + 1]
            np.testing.assert_allclose(P[lo:hi], s.p_items, atol=1e-12)
            np.testing.assert_allclose(PL[d], s.p_label, atol=1e-12)
            np.testing.assert_allclose(AH[d], s.alpha_hat, atol=1e-12)
            # the group ran exactly n sweeps, and one more moves its alpha_hat
            # by less than the tolerance
            _, PL_n, AH_n, _ = batch_mean_field(F, flat, h, False, n, tol=0.0)
            np.testing.assert_array_equal(AH[d], AH_n[d])
            np.testing.assert_array_equal(PL[d], PL_n[d])
            _, _, AH_next, _ = batch_mean_field(F, flat, h, False, n + 1, tol=0.0)
            assert np.max(np.abs(AH_next[d] - AH[d])) < 1e-6
            counts.append(n)
        assert done == max(counts) < 100

    def test_shape_mismatch_rejected(self):
        groups, theta, h = self.make_corpus(17)
        flat = flatten_groups(groups)
        with pytest.raises(ContractError):
            batch_mean_field(np.zeros((3, h.num_topics)), flat, h, False, 2)

    @pytest.mark.parametrize("max_sweeps", [0, -3])
    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_max_sweeps_below_one_rejected(self, max_sweeps, tol):
        # no sweep would leave p_items as the kernel's uninitialised buffer
        groups, theta, h = self.make_corpus(17)
        flat = flatten_groups(groups)
        F = forward_logits_batch(flat.payload, theta)
        with pytest.raises(ContractError, match="max_sweeps must be an integer >= 1"):
            batch_mean_field(F, flat, h, False, max_sweeps, tol=tol)

    @pytest.mark.parametrize("run", ["batch_mean_field", "predict_corpus", "train"])
    def test_hand_built_empty_group_rejected(self, run):
        # np.add.reduceat gives an empty segment the next row, so group 0
        # would get beliefs from group 1's first item
        flat = FlatGroups(payload=np.array([0, 1, 2, 3]), offsets=np.array([0, 0, 2, 4]),
                          labels=np.full(3, -1), ids=["a", "b", "c"])
        h = HyperParams(alpha=np.full(3, 0.5), n_iter=3)
        theta = init_params("table", (3, 4), 1.0, SeededRng(0))
        with pytest.raises(ContractError, match="offsets must split the payload rows"):
            if run == "batch_mean_field":
                batch_mean_field(np.zeros((4, 3)), flat, h, False, 3)
            elif run == "predict_corpus":
                predict_corpus(flat, theta, h)
            else:
                train(flat, theta, h, TrainConfig(mode="variational", epochs=1, verbose=False))


def ragged_problem(K, seed):
    """Logits of a ragged packed corpus with -inf entries (one finite entry
    per item), labels on some groups, and a warm start."""
    rng = np.random.default_rng(seed)
    D = int(rng.integers(1, 25))
    offsets = np.zeros(D + 1, dtype=np.int64)
    np.cumsum(rng.integers(1, 13, size=D), out=offsets[1:])
    N = int(offsets[-1])
    F = rng.normal(scale=3.0, size=(N, K))
    F[rng.random((N, K)) < 0.1] = -np.inf
    F[np.arange(N), rng.integers(K, size=N)] = rng.normal(size=N)
    alpha = rng.uniform(0.1, 2.0, size=K)
    AH0 = alpha + rng.uniform(0.0, 2.0, size=(D, K))
    PL0 = rng.dirichlet(np.ones(K), size=D)
    return (F, offsets, alpha, float(rng.uniform(0.0, 3.0)), rng.integers(-1, K, size=D), AH0,
            PL0)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# sweeps and tol: unrolled, taped, converged, and stopped at max_sweeps
KERNEL_RUNS = {"fixed": (4, 0.0), "taped": (4, 0.0), "converged": (100, 1e-6),
               "loose": (100, 1e-2), "capped": (3, 1e-9)}


class TestTopicMajorKernel:
    """The topic-major numpy kernel against the row-major kernel it replaced
    (tests/oracles.py): the same bits in every output and tape."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("run", list(KERNEL_RUNS))
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("K", [1, 2, 5, 7, 8, 10, 17, 130])
    def test_same_bits_as_row_major(self, K, clamp, run, seed):
        F, offsets, alpha, lam, labels, AH0, PL0 = ragged_problem(K, seed)
        inputs = [a.copy() for a in (F, AH0, PL0)]
        sweeps, tol = KERNEL_RUNS[run]
        N, D = F.shape[0], offsets.size - 1
        outs = []
        for kernel in (_mean_field_batch_np, reference_mean_field_batch):
            tapes = (NO_TAPE,) * 3
            if run == "taped":
                tapes = (np.full((sweeps, N, K), np.nan), np.full((D, sweeps + 1, K), np.nan),
                         np.full((D, sweeps + 1, K), np.nan))
            out = kernel(F, offsets, alpha, lam, labels, clamp, sweeps, tol, AH0, PL0, *tapes)
            outs.append((*out, *tapes))
        got, want = outs
        assert got[3] == want[3]
        for name, a, b in zip(["P", "PL", "AH", "sweeps", "tape_P", "tape_A", "tape_Q"],
                              got, want):
            assert same_bits(a, b), name
        assert all(same_bits(a, b) for a, b in zip(inputs, (F, AH0, PL0)))

    @pytest.mark.parametrize("run", ["fixed", "converged"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_and_inf_logits_are_refused(self, bad, run):
        F, offsets, alpha, lam, labels, AH0, PL0 = ragged_problem(5, 4)
        F[F.shape[0] // 2, 1] = bad
        sweeps, tol = KERNEL_RUNS[run]
        for kernel in (_mean_field_batch_np, reference_mean_field_batch):
            with pytest.raises(DomainError) as err:
                kernel(F, offsets, alpha, lam, labels, False, sweeps, tol, AH0, PL0,
                       NO_TAPE, NO_TAPE, NO_TAPE)
            assert str(err.value) == "softmax requires entries in [-inf, +inf)"

    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_a_token_no_topic_can_emit_is_refused(self, tol):
        # a fixed_loglik zero column: every logit of token 2 is ln 0 = -inf
        beta = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
        flat = flatten_groups([token_group([0, 1]), token_group([1, 2, 0], gid="h")])
        F = forward_logits_batch(flat.payload, fixed_loglik_params(beta))
        with pytest.raises(DomainError) as err:
            batch_mean_field(F, flat, hp(2), False, 10, tol=tol)
        assert str(err.value) == "softmax of all -inf logits is undefined"

