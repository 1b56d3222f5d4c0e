import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from logistic_lda.backend import (
    HAS_NUMBA,
    _digamma_scalar,
    _digamma_scalar_jit,
    _trigamma_scalar,
    _trigamma_scalar_jit,
)
from logistic_lda.errors import ContractError, DomainError
from logistic_lda.math_kernels import (
    SeededRng,
    digamma,
    trigamma,
    log_sum_exp,
    softmax,
    log_softmax,
    expected_log_pi,
    ln_multivariate_beta,
    sample_dirichlet,
    check_simplex,
)
from logistic_lda.math_kernels import _max, _softmax_topics, _topic_sum

from oracles import (
    psi_oracle,
    reference_digamma,
    reference_log_sum_exp,
    reference_log_softmax,
    reference_softmax,
    reference_trigamma,
)

# Frozen oracle values (tests/oracles.py psi_oracle at 40 digits):
#   psi(1)   = -euler                   psi(0.5)  = -euler - 2 ln 2
#   psi'(1)  = pi^2/6                   psi'(10)  from the mpmath series
PSI_1 = -0.57721566490153286061
PSI_HALF = -1.9635100260214234794
PSI1_1 = 1.6449340668482264365
PSI1_10 = 0.10516633568168574612


class TestDigamma:
    def test_frozen_values(self):
        assert digamma(1.0) == pytest.approx(PSI_1, abs=1e-10)
        assert digamma(0.5) == pytest.approx(PSI_HALF, abs=1e-10)

    def test_recurrence_exact_pair(self):
        # psi(x+1) = psi(x) + 1/x
        assert digamma(4.0) - digamma(3.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_recurrence_grid(self):
        # tolerance scales with the 1/x term: below ~1e-3 the recurrence
        # difference exceeds what float64 spacing can resolve at 1e-12
        xs = np.logspace(-3, 5, 200)
        lhs = digamma(xs + 1.0) - digamma(xs)
        rhs = 1.0 / xs
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, rhs))

    def test_against_oracle(self):
        xs = np.logspace(-4, 6, 300)
        want = psi_oracle(xs, order=0)
        got = digamma(xs)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            digamma(bad)


class TestTrigamma:
    def test_frozen_values(self):
        assert trigamma(1.0) == pytest.approx(PSI1_1, abs=1e-10)
        assert trigamma(10.0) == pytest.approx(PSI1_10, abs=1e-10)

    def test_recurrence_exact_pair(self):
        # psi'(x+1) = psi'(x) - 1/x^2
        assert trigamma(3.0) - trigamma(2.0) == pytest.approx(-0.25, abs=1e-12)

    def test_recurrence_grid(self):
        xs = np.logspace(-3, 5, 200)
        lhs = trigamma(xs) - trigamma(xs + 1.0)
        rhs = 1.0 / (xs * xs)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, rhs))

    def test_against_oracle(self):
        xs = np.logspace(-4, 6, 300)
        want = psi_oracle(xs, order=1)
        got = trigamma(xs)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("bad", [0.0, -2.5, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            trigamma(bad)


class TestScalarSeries:
    """The compiled kernels call the scalar series one argument at a time;
    they give the array forms' values."""

    @staticmethod
    def points():
        rng = np.random.default_rng(20)
        return np.concatenate([np.logspace(-4, 6, 2000), rng.uniform(1e-4, 12.0, 2000),
                               rng.uniform(12.0, 1e4, 1000)])

    def test_trigamma_loop_has_the_array_bits(self):
        xs = self.points()
        assert_same_bits(np.array([_trigamma_scalar(x) for x in xs.tolist()]), trigamma(xs))

    def test_digamma_loop_within_the_last_bit_of_log(self):
        # math.log and np.log may round the log apart in its last bit
        xs = self.points()
        want = digamma(xs)
        got = np.array([_digamma_scalar(x) for x in xs.tolist()])
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.skipif(not HAS_NUMBA, reason="numba is not installed")
    @pytest.mark.parametrize("scalar,array", [(_digamma_scalar_jit, digamma),
                                              (_trigamma_scalar_jit, trigamma)])
    def test_compiled_copies(self, scalar, array):
        xs = self.points()
        want = array(xs)
        got = np.array([scalar(x) for x in xs.tolist()])
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


class TestLogSumExp:
    def test_basic(self):
        assert log_sum_exp(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)

    def test_shift_invariance_no_overflow(self):
        assert log_sum_exp(np.array([1000.0, 1000.0])) == pytest.approx(
            1000.0 + math.log(2), abs=1e-12
        )
        assert np.isfinite(log_sum_exp(np.array([1e6, -1e6])))

    def test_singleton(self):
        for a in [-3.5, 0.0, 42.0]:
            assert log_sum_exp(np.array([a])) == pytest.approx(a, abs=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            log_sum_exp(np.array([]))

    def test_axis(self):
        v = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = log_sum_exp(v, axis=1)
        assert out == pytest.approx([math.log(2), 1 + math.log(2)])

    def test_neg_inf_allowed(self):
        assert log_sum_exp(np.array([-np.inf, 0.0])) == pytest.approx(0.0)
        assert log_sum_exp(np.array([-np.inf, -np.inf])) == -np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_nan_and_inf_rejected(self, bad, axis):
        v = np.array([[0.0, -np.inf], [-np.inf, -np.inf], [1.0, bad]])
        with pytest.raises(DomainError, match=r"log_sum_exp requires entries in \[-inf, \+inf\)"):
            log_sum_exp(v, axis=axis)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_log_ratios(self):
        got = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(got, np.array([1, 2, 3]) / 6.0, atol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=5) * 10
            np.testing.assert_allclose(softmax(v + 5.0), softmax(v), atol=1e-15)

    def test_on_simplex_for_large_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.uniform(-700, 700, size=6)
            p = softmax(v)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_exp_log_softmax_matches(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.normal(size=4) * 50
            np.testing.assert_allclose(np.exp(log_softmax(v)), softmax(v), atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            softmax(np.array([0.0, np.nan]))
        with pytest.raises(DomainError):
            softmax(np.array([np.inf, 0.0]))

    def test_all_neg_inf_rejected(self):
        with pytest.raises(DomainError):
            softmax(np.array([-np.inf, -np.inf]))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_error(fn, reference, *args):
    with pytest.raises(Exception) as want:
        reference(*args)
    with pytest.raises(type(want.value)) as got:
        fn(*args)
    assert str(got.value) == str(want.value)


ROWS = [1, 7, 640, 6000]
TOPICS = [1, 2, 5, 10, 50, 300]


def hard_logits(n, k, seed):
    """(n, k) logits with -inf entries, wide magnitudes, rows whose max is a
    tie between 0.0 and -0.0, and rows whose max is a lone zero with every
    other entry negligible (a row sum of exactly 1)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=30.0, size=(n, k))
    v[rng.random((n, k)) < 0.3] = -np.inf
    v[np.arange(n), rng.integers(k, size=n)] = rng.normal(size=n)  # one finite entry per row
    ties = np.arange(0, n, 3)
    v[ties] = -np.abs(v[ties]) - 1.0
    v[ties, rng.integers(k, size=ties.size)] = 0.0
    v[ties, rng.integers(k, size=ties.size)] = -0.0
    lone = np.arange(1, n, 3)
    v[lone] = -np.abs(v[lone]) - 800.0
    v[lone, rng.integers(k, size=lone.size)] = rng.choice([0.0, -0.0], size=lone.size)
    return v


class TestTopicAxisKernelsKeepTheirBits:
    """softmax, log_softmax, digamma and trigamma against the straightforward
    forms they replaced (tests/oracles.py): the same bits, the same errors."""

    @pytest.mark.parametrize("k", TOPICS)
    @pytest.mark.parametrize("n", ROWS)
    def test_softmax_rows(self, n, k):
        v = hard_logits(n, k, seed=n * 1000 + k)
        for fn, ref in ((softmax, reference_softmax), (log_softmax, reference_log_softmax)):
            assert_same_bits(fn(v), ref(v))
            assert_same_bits(fn(v, axis=1), ref(v, axis=1))
            f_order = np.asfortranarray(v)
            assert_same_bits(fn(f_order), ref(f_order))

    @pytest.mark.parametrize("fn,ref", [(softmax, reference_softmax),
                                        (log_softmax, reference_log_softmax)])
    def test_softmax_other_layouts(self, fn, ref):
        v = hard_logits(40, 6, seed=3)
        v[np.isinf(v)] = -745.0  # no lane along any axis is all -inf
        for arg, axis in ((v, 0), (v.T, 0), (v[0], -1), (v.reshape(4, 10, 6), -1),
                          (v.reshape(4, 10, 6), 1), (v[:, ::2], -1), (v.tolist(), -1)):
            assert_same_bits(fn(arg, axis=axis), ref(arg, axis=axis))

    def test_row_max_is_the_max(self):
        for n in ROWS:
            for k in TOPICS:
                v = hard_logits(n, k, seed=k)
                np.testing.assert_array_equal(_max(v, -1), np.max(v, axis=1, keepdims=True))

    def test_column_max_is_the_max(self):
        for n in ROWS:
            for k in TOPICS:
                v = hard_logits(n, k, seed=k)
                np.testing.assert_array_equal(_max(v, 0), np.max(v, axis=0, keepdims=True))

    @pytest.mark.parametrize("k", TOPICS)
    @pytest.mark.parametrize("n", ROWS)
    def test_log_sum_exp_columns(self, n, k):
        v = hard_logits(n, k, seed=n * 1000 + k)
        assert_same_bits(log_sum_exp(v, axis=0), reference_log_sum_exp(v, 0))
        assert_same_bits(log_sum_exp(v.T, axis=1), reference_log_sum_exp(v.T, 1))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 12).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, -np.inf, 1e300, -1e300, 709.0, -745.0, 2.5, -2.5])
                 | st.floats(-1e6, 1e6), min_size=k, max_size=k), min_size=1, max_size=40)))
    def test_log_sum_exp_columns_hypothesis(self, rows):
        # -inf entries, all -inf columns and columns whose max is a tie of
        # 0.0 and -0.0, on both sides of SHORT_COLUMNS
        v = np.array(rows)
        assert_same_bits(log_sum_exp(v, axis=0), reference_log_sum_exp(v, 0))

    @pytest.mark.parametrize("v", [
        [[0.0, np.nan]], [[np.inf, 0.0]], [[np.inf, np.nan]],
        [[0.0, 1.0], [np.nan, -np.inf], [-np.inf, -np.inf]], [[-np.inf, -np.inf], [np.inf, 0.0]],
        np.empty((0, 3)), np.full((2, 50), np.nan), np.full((3, 5), np.inf),
    ], ids=["nan", "inf", "inf-nan", "nan-beside-neg-inf", "inf-beside-neg-inf", "empty",
            "wide-nan", "all-inf"])
    def test_log_sum_exp_column_errors(self, v):
        v = np.asarray(v, dtype=np.float64)
        assert_same_error(lambda a: log_sum_exp(a, axis=0), lambda a: reference_log_sum_exp(a, 0), v)

    def test_log_sum_exp_all_neg_inf_column_is_neg_inf(self):
        v = np.array([[-np.inf, 0.0], [-np.inf, -np.inf]])
        assert_same_bits(log_sum_exp(v, axis=0), np.array([-np.inf, 0.0]))
        assert_same_bits(log_sum_exp(v, axis=0), reference_log_sum_exp(v, 0))

    @pytest.mark.parametrize("v", [
        [[0.0, np.nan]], [[np.inf, 0.0]], [[np.inf, np.nan]], [[-np.inf, -np.inf], [0.0, 1.0]],
        [[0.0, 1.0], [np.nan, -np.inf], [-np.inf, -np.inf]], [[-np.inf, -np.inf], [np.inf, 0.0]],
        [np.nan], [np.inf, -np.inf], [-np.inf], np.empty((0, 3)), np.empty((3, 0)),
        np.full((2, 50), np.nan), np.full((2, 50), -np.inf),
    ], ids=["nan", "inf", "inf-nan", "all-neg-inf", "nan-before-all-neg-inf",
            "all-neg-inf-before-inf", "1d-nan", "1d-inf", "1d-neg-inf", "empty-rows",
            "empty-cols", "wide-nan", "wide-neg-inf"])
    def test_softmax_errors(self, v):
        v = np.asarray(v, dtype=np.float64)
        assert_same_error(softmax, reference_softmax, v)
        assert_same_error(log_softmax, reference_log_softmax, v)

    @staticmethod
    def psi_arguments():
        # a few ulps either side of 1, 5 and 6, where the shift count changes
        near = [c + s * np.spacing(c) for c in (1.0, 5.0, 6.0) for s in range(-3, 4)]
        rng = np.random.default_rng(7)
        return [
            np.array(near),
            np.array([1e-300, 5e-324, 1e-10, 0.5, 6.0 - 1e-12, 6.0, 1e6, 1e300, 1.7e308]),
            rng.uniform(0.0, 12.0, size=(640, 5)) + 5e-324,
            rng.uniform(5.9, 6.1, size=(7, 10)),
            10.0 ** rng.uniform(-300, 300, size=6000),
            rng.uniform(0.1, 20.0, size=(40, 6, 5))[:, 1:],  # a non-contiguous tape slice
            np.float64(3.5),
        ]

    @pytest.mark.parametrize("fn,ref", [(digamma, reference_digamma),
                                        (trigamma, reference_trigamma)])
    def test_psi_bits(self, fn, ref):
        for x in self.psi_arguments():
            with np.errstate(over="ignore", divide="ignore"):  # trigamma(5e-324) is inf
                assert_same_bits(fn(x), ref(x))
        assert isinstance(fn(2.5), float) and fn(2.5) == ref(2.5)

    @pytest.mark.parametrize("fn,ref", [(digamma, reference_digamma),
                                        (trigamma, reference_trigamma)])
    def test_psi_bits_near_two_three_four(self, fn, ref):
        # the shift count changes at every integer up to 6; psi_arguments
        # holds 1, 5 and 6, this the three ulps either side of 2, 3 and 4
        x = np.array([2.0, 3.0, 4.0])[:, None].view(np.int64) + np.arange(-3, 4)
        x = x.view(np.float64)
        assert np.all(np.abs(x - np.round(x)) < 4 * np.spacing(x))
        assert_same_bits(fn(x), ref(x))
        for v in x.ravel():
            assert_same_bits(fn(v), ref(v))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=9),
                      elements=st.floats(5e-324, 1.7e308)),
           st.sampled_from(["as drawn", "transposed", "reversed", "every other column"]))
    def test_psi_bits_hypothesis(self, x, layout):
        if x.ndim:
            x = {"as drawn": x, "transposed": x.T, "reversed": x[::-1],
                 "every other column": x[..., ::2]}[layout]
        for fn, ref in ((digamma, reference_digamma), (trigamma, reference_trigamma)):
            with np.errstate(over="ignore", divide="ignore"):  # trigamma(5e-324) is inf
                assert_same_bits(fn(x), ref(x))

    @pytest.mark.parametrize("fn", [digamma, trigamma])
    def test_no_floating_point_warning_from_1e_minus_100_to_1e100(self, fn):
        x = np.geomspace(1e-100, 1e100, 4001)
        near = (np.arange(1.0, 8.0)[:, None].view(np.int64) + np.arange(-3, 4)).view(np.float64)
        with np.errstate(all="raise"):
            for arg in (x, x[:4000].reshape(-1, 8)[:, ::3], near, 1e-100, 1e100, 6.0):
                fn(arg)

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, [],
                                   [1.0, np.nan], [2.0, np.inf], [3.0, 0.0], [[1.0], [-1e-300]]])
    def test_psi_errors(self, x):
        assert_same_error(digamma, reference_digamma, x)
        assert_same_error(trigamma, reference_trigamma, x)


SUM_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, 1.0, -1.0,
               1e300, -1e300, 1e-300, 0.1, 3.0]


def topic_major_layouts(v):
    """(K, N) arrays holding v.T: a contiguous copy, the transposed view, and
    every other row of a (2K, N) array, which is every other column of v."""
    wide = np.repeat(v, 2, axis=1)
    return np.ascontiguousarray(v.T), v.T, np.ascontiguousarray(wide.T)[::2], wide[:, ::2].T


class TestTopicMajorKernels:
    """_topic_sum and _softmax_topics on a (K, N) array against numpy's sum
    and the row-major softmax on its (N, K) transpose: the same bits."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_topic_sum_is_the_row_sum(self, data):
        k = data.draw(st.integers(1, 300) | st.sampled_from([7, 8, 9, 15, 16, 17, 128, 129]))
        n = data.draw(st.integers(1, 6))
        v = data.draw(hnp.arrays(np.float64, (n, k), elements=st.sampled_from(SUM_ENTRIES)
                                 | st.floats(allow_nan=False, allow_subnormal=True)))
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e308
            want = v.sum(axis=1)
            for E in topic_major_layouts(v):
                assert_same_bits(_topic_sum(E), want)

    def test_topic_sum_every_topic_count(self):
        rng = np.random.default_rng(5)
        for k in range(1, 301):
            v = rng.normal(size=(50, k)) * 10.0 ** rng.integers(-300, 300, size=(50, k))
            v[::7] = -0.0  # rows of -0.0 only sum to 0.0
            v[3::7] = rng.choice(SUM_ENTRIES, size=v[3::7].shape)
            with np.errstate(invalid="ignore", over="ignore"):
                want = v.sum(axis=1)
                for E in topic_major_layouts(v):
                    assert_same_bits(_topic_sum(E), want)

    @pytest.mark.parametrize("k", TOPICS + [8, 128, 129])
    @pytest.mark.parametrize("n", ROWS)
    def test_softmax_topics_is_the_row_softmax(self, n, k):
        v = hard_logits(n, k, seed=n * 1000 + k)
        got = _softmax_topics(v.T.copy())
        assert_same_bits(np.ascontiguousarray(got.T), reference_softmax(v))

    @pytest.mark.parametrize("v", [
        [[0.0, np.nan]], [[np.inf, 0.0]], [[-np.inf, -np.inf], [0.0, 1.0]],
        [[0.0, 1.0], [np.nan, -np.inf], [-np.inf, -np.inf]], [[-np.inf, -np.inf], [np.inf, 0.0]],
        np.full((2, 50), np.nan), np.full((2, 50), -np.inf),
    ], ids=["nan", "inf", "all-neg-inf", "nan-before-all-neg-inf", "all-neg-inf-before-inf",
            "wide-nan", "wide-neg-inf"])
    def test_softmax_topics_refuses_as_softmax_does(self, v):
        v = np.asarray(v, dtype=np.float64)
        assert_same_error(lambda a: _softmax_topics(a.T.copy()),
                          reference_softmax, v)


class TestExpectedLogPi:
    def test_symmetric_ones(self):
        np.testing.assert_allclose(expected_log_pi(np.array([1.0, 1.0])), [-1.0, -1.0], atol=1e-12)

    def test_symmetric_twos(self):
        # psi(2) - psi(4) = -(1/2 + 1/3)
        np.testing.assert_allclose(
            expected_log_pi(np.array([2.0, 2.0])), [-5 / 6, -5 / 6], atol=1e-12
        )

    def test_symmetric_input_equal_components(self):
        out = expected_log_pi(np.array([3.7, 3.7, 3.7]))
        assert np.ptp(out) < 1e-14

    def test_monotone_in_own_component(self):
        # E[ln pi_k] strictly increases in alpha_k with the others fixed
        others = np.array([2.0, 0.7])
        vals = []
        for a in [0.2, 0.5, 1.0, 2.0, 5.0, 20.0]:
            vals.append(expected_log_pi(np.concatenate(([a], others)))[0])
        assert np.all(np.diff(vals) > 0)

    def test_softmax_shift_equivalence(self):
        # softmax(f + psi(a)) == softmax(f + E[ln pi]) since they differ
        # by the constant psi(sum a)
        rng = np.random.default_rng(3)
        a = rng.uniform(0.2, 4.0, size=4)
        f = rng.normal(size=4)
        np.testing.assert_allclose(
            softmax(f + digamma(a)), softmax(f + expected_log_pi(a)), atol=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_log_pi(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            expected_log_pi(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rows_match_single_vectors(self):
        A = np.random.default_rng(5).uniform(0.05, 40.0, size=(7, 4))
        np.testing.assert_array_equal(expected_log_pi(A), [expected_log_pi(a) for a in A])


class TestLnMultivariateBeta:
    def test_ones(self):
        assert ln_multivariate_beta(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_two_one(self):
        assert ln_multivariate_beta(np.array([2.0, 1.0])) == pytest.approx(
            -math.log(2), abs=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 5.0, size=6)
        p = rng.permutation(a)
        assert ln_multivariate_beta(a) == pytest.approx(ln_multivariate_beta(p), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_multivariate_beta(np.array([-1.0, 2.0]))
        with pytest.raises(DomainError):
            ln_multivariate_beta(np.array([[1.0, 2.0], [np.inf, 1.0]]))

    def test_rows_match_single_vectors(self):
        A = np.random.default_rng(6).uniform(0.05, 40.0, size=(7, 4))
        np.testing.assert_array_equal(ln_multivariate_beta(A), [ln_multivariate_beta(a) for a in A])


class TestSeededRng:
    @pytest.mark.parametrize("seed", [1.5, 2.0, "x", True, None])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 used to become seed 1, and "x" raised an untyped ValueError
        with pytest.raises(ContractError, match="seed must be an integer"):
            SeededRng(seed)

    @pytest.mark.parametrize("seed", [7, np.int64(7), np.uint64(7)])
    def test_integer_seeds_give_one_stream(self, seed):
        assert SeededRng(seed).gen.random() == SeededRng(7).gen.random()


class TestSampling:
    def test_dirichlet_deterministic(self):
        a = np.array([0.5, 1.5, 3.0])
        x1 = sample_dirichlet(a, SeededRng(99))
        x2 = sample_dirichlet(a, SeededRng(99))
        np.testing.assert_array_equal(x1, x2)

    def test_dirichlet_on_simplex(self):
        rng = SeededRng(5)
        for _ in range(100):
            x = sample_dirichlet(np.array([0.3, 0.3, 0.4]), rng)
            check_simplex(x)

    def test_dirichlet_mean(self):
        rng = SeededRng(6)
        draws = np.array([sample_dirichlet(np.array([1.0, 1.0]), rng) for _ in range(10_000)])
        np.testing.assert_allclose(draws.mean(axis=0), [0.5, 0.5], atol=0.02)

    def test_dirichlet_concentration(self):
        rng = SeededRng(7)
        hits = sum(
            sample_dirichlet(np.array([100.0, 1.0]), rng)[0] > 0.9 for _ in range(10_000)
        )
        assert hits >= 9900

    def test_dirichlet_stack_draws_rows_in_order(self):
        # a (D, K) stack draws row after row from the one stream, as D
        # single draws would
        A = np.array([[0.5, 1.5, 3.0], [0.1, 0.1, 0.1], [2.0, 1.0, 4.0]])
        rng = SeededRng(21)
        want = np.stack([sample_dirichlet(row, rng) for row in A])
        np.testing.assert_array_equal(sample_dirichlet(A, SeededRng(21)), want)

    def test_dirichlet_domain(self):
        with pytest.raises(DomainError):
            sample_dirichlet(np.array([1.0, -1.0]), SeededRng(1))
