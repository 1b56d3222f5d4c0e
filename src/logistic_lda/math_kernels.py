"""Special functions, simplex operations, and seeded sampling primitives.

All accumulation is in float64. The digamma/trigamma pair is implemented
with upward recurrence to shift the argument above 6 followed by an
asymptotic series, which keeps both functions branch-free to test and
accurate to ~1e-12 over [1e-4, 1e6] relative to scale.  The array forms
take all six shifts of every element at once, with no mask: a (7, n)
table of the scalar loop's additions, a 0/1 table of the rows it shifts,
and one sum of the steps, so each element keeps its own shift count and
the scalar loop's bits.

softmax and log_softmax run over K topics per row, and K is short (5-10 in
the paper's settings).  numpy reduces a short contiguous row with a fixed
cost per row: on a 2-CPU Xeon, np.max(v, axis=1) over a (6000, 5) array
takes about 210 us, while the max over axis 0 of a transposed contiguous
copy takes 17 us.  The copy costs O(N K), so the crossover lies between
K = 40 and 50 on 6000 rows and between 50 and 100 on 32 rows; rows of at
most SHORT_ROW = 32 entries take the transposed path.  A max is exact in
any order: the two paths can differ only in the sign of a zero when +0.0
and -0.0 tie for a row's max, and then that row's softmax and log_softmax
bits are the same either way (each tied entry contributes exp(0) = 1).

numpy sums a row of n entries from 0.0 in a fixed order: one after
another below 8 entries; from 8 to 128 entries in 8 accumulators (entry
i goes to accumulator i mod 8, and the tail past the last full block of
8 is added one at a time after the accumulators are combined pairwise);
above 128 by halving the row.  `_topic_sum` reduces the K rows of a
topic-major (K, N) array in that order, one elementwise operation over N
per step, so it equals np.sum(axis=1) of the (N, K) array bit for bit up
to 128 topics; above 128 it takes np.sum on a transposed copy.  Over K
contiguous rows of N its cost is that of K vector additions, where the
row-major sum pays numpy's fixed cost on each of the N short rows.  The
mean-field sweep's item softmax (`_softmax_topics`) and training's
soft-target gradient sum through it; softmax and log_softmax keep np.sum.

A column max (log_sum_exp over axis 0 of an (N, K) stack) has the same
fixed cost per row, and the same cure: the max over axis 1 of a transposed
contiguous copy.  There the copy's strided writes cost more as N grows:
on the same host it is 2.5-8x faster at 5 columns for N from 1 000 to
200 000 rows; at 8 columns it is faster up to 60 000 rows and 6 % slower
at 200 000; at 16 columns it is up to 3.6x slower.  So only arrays of at
most SHORT_COLUMNS = 8 columns take it.
"""

import math

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "SeededRng",
    "digamma",
    "trigamma",
    "log_sum_exp",
    "softmax",
    "log_softmax",
    "expected_log_pi",
    "ln_multivariate_beta",
    "sample_dirichlet",
    "check_simplex",
    "check_positive_vector",
    "check_int",
    "check_real",
    "check_bool",
]

SIMPLEX_ATOL = 1e-12


# ---------------------------------------------------------------------------
# Seeded RNG
# ---------------------------------------------------------------------------

class SeededRng:
    """Counter-based random stream (numpy Philox).

    The Philox generator is keyed by the seed alone, so an identical seed
    yields an identical stream on every platform.
    """

    def __init__(self, seed):
        self.seed = check_int(seed, "seed") & 0xFFFFFFFFFFFFFFFF
        self.gen = np.random.Generator(np.random.Philox(self.seed))

    def __repr__(self):
        return f"SeededRng(seed={self.seed})"


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

def check_simplex(p, atol=SIMPLEX_ATOL):
    """Validate and return ``p`` as a simplex vector (>= 0, sums to 1)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise DomainError(f"simplex must be a non-empty 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("simplex entries must be finite")
    if np.any(p < 0):
        raise DomainError(f"simplex entries must be non-negative, got min {p.min()}")
    s = p.sum()
    if abs(s - 1.0) > max(atol, p.size * np.finfo(np.float64).eps * 4):
        raise DomainError(f"simplex must sum to 1, got {s!r}")
    return p


def check_positive_vector(v):
    """Validate and return ``v`` as a strictly positive 1-d float vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DomainError(f"expected a non-empty 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all() or (v <= 0).any():
        raise DomainError("entries must be finite and strictly positive")
    return v


def check_int(value, name, low=None):
    """``value`` as an int: a Python or numpy integer, not a bool, and not
    below ``low`` when one is given.  Either fault is a ContractError."""
    if type(value) is not int:  # every Item's token skips this; a bool's type is bool
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise ContractError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise ContractError(f"{name} must be an integer >= {low}, got {value}")
    return value


def check_real(value, name, interval="(-inf, inf)"):
    """``value`` as a float: a Python or numpy real number, not a bool, that
    is finite and lies in ``interval``, written as in math: "[0, 1)" or
    "(0, inf)".  A wrong type is a ContractError, a value outside a
    DomainError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ContractError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        raise ContractError(f"{name} {value} is beyond the float range") from None
    low, high = (float(end) for end in interval[1:-1].split(","))
    if not (math.isfinite(value)
            and (low <= value if interval[0] == "[" else low < value)
            and (value <= high if interval[-1] == "]" else value < high)):
        raise DomainError(f"{name} must be finite and lie in {interval}, got {value}")
    return value


def check_bool(value, name):
    """``value`` as a bool: a Python or numpy bool, nothing else."""
    if not isinstance(value, (bool, np.bool_)):
        raise ContractError(f"{name} must be a bool, got {value!r}")
    return bool(value)


# ---------------------------------------------------------------------------
# Digamma / trigamma
#
# Upward recurrence psi(x) = psi(x+1) - 1/x until x >= 6, then the
# asymptotic (de Moivre) series in 1/x^2. Truncation error of the series
# at x = 6 is below 2e-13 for digamma and 5e-13 for trigamma.
# ---------------------------------------------------------------------------

def _digamma_tail(z):
    """log(x) - 0.5/x - psi(x) at z = 1/x^2 (x >= 6); scalar or array."""
    return z * (
        1.0 / 12.0
        - z * (
            1.0 / 120.0
            - z * (
                1.0 / 252.0
                - z * (
                    1.0 / 240.0
                    - z * (
                        1.0 / 132.0
                        - z * (691.0 / 32760.0 - z * (1.0 / 12.0))
                    )
                )
            )
        )
    )


def _trigamma_tail(z):
    """x * (psi'(x) - 1/x - 0.5/x^2) at z = 1/x^2 (x >= 6); scalar or array."""
    return z * (
        1.0 / 6.0
        - z * (
            1.0 / 30.0
            - z * (
                1.0 / 42.0
                - z * (
                    1.0 / 30.0
                    - z * (
                        5.0 / 66.0
                        - z * (691.0 / 2730.0 - z * (7.0 / 6.0))
                    )
                )
            )
        )
    )


def _shifts(flat, square):
    """The scalar loop's shifts for every element at once: the sum of its
    steps, 1/x (1/x^2 when square) at each x below 6, and the x it stops at.

    Row j of X is x after j of the loop's own additions (six take any
    positive x to 6 or more), and F is 1.0 in the rows where the loop adds,
    X < 6, a prefix of each column, and 0.0 elsewhere.  A step F/X or F/X^2
    is the loop's where it adds and an exact 0.0, which adds nothing, where
    it does not, and numpy sums six rows in order (its pairwise blocks start
    at 8 terms): the sum has the loop's bits.  Raising the rows below 6 to
    8 makes the first row >= 6, which is at most 7, the least."""
    X = np.empty((7, flat.size))
    X[0] = flat
    for j in range(6):
        np.add(X[j], 1.0, out=X[j + 1])
    F = np.less(X[:6], 6.0, out=np.empty((6, flat.size)))
    steps = np.divide(F, X[:6] * X[:6] if square else X[:6]).sum(axis=0)
    F *= 8.0
    np.maximum(X[:6], F, out=X[:6])
    return steps, X.min(axis=0)


def _digamma_arr(flat, out):
    steps, x = _shifts(flat, square=False)
    # the loop's acc -= step: fl(-a - b) = -fl(a + b) under round-to-nearest,
    # and 0.0 - 0.0 keeps an unshifted x's acc +0.0
    acc = 0.0 - steps
    z = 1.0 / (x * x)
    out[:] = acc + np.log(x) - 0.5 / x - _digamma_tail(z)
    return out


def _trigamma_arr(flat, out):
    acc, x = _shifts(flat, square=True)
    z = 1.0 / (x * x)
    out[:] = acc + 1.0 / x + 0.5 * z + _trigamma_tail(z) / x
    return out


def _psi_like(x, arr_impl, name):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise DomainError(f"{name} of an empty argument")
    # NaN fails both comparisons
    if not (arr.min() > 0.0 and arr.max() < np.inf):
        raise DomainError(f"{name} requires finite, strictly positive arguments")
    flat = np.ascontiguousarray(arr.ravel())
    out = arr_impl(flat, np.empty_like(flat)).reshape(arr.shape)
    if arr.ndim == 0:
        return float(out)
    return out


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0; scalar or elementwise on arrays."""
    return _psi_like(x, _digamma_arr, "digamma")


def trigamma(x):
    """psi'(x), the derivative of digamma, for x > 0; scalar or elementwise."""
    return _psi_like(x, _trigamma_arr, "trigamma")


# ---------------------------------------------------------------------------
# Simplex operations
# ---------------------------------------------------------------------------

SHORT_ROW = 32
SHORT_COLUMNS = 8


def _max(v, axis):
    """np.max(v, axis=axis, keepdims=True).  A 2-d array is reduced as a
    transposed contiguous copy when it has at most SHORT_ROW columns for a
    row max, or at most SHORT_COLUMNS columns for a column max (see the
    module docstring)."""
    if v.ndim == 2 and axis in (1, -1) and v.shape[1] <= SHORT_ROW:
        return np.ascontiguousarray(v.T).max(axis=0)[:, None]
    if v.ndim == 2 and axis == 0 and v.shape[1] <= SHORT_COLUMNS:
        return np.ascontiguousarray(v.T).max(axis=1)[None, :]
    return np.max(v, axis=axis, keepdims=True)


def _check_logits(v, name):
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ContractError(f"{name} of an empty array")
    return v


def _check_max(m, name):
    # -inf entries are legal log-probabilities (zero mass); NaN/+inf are
    # not, and either one propagates into the max of its row
    if not np.all(m < np.inf):
        raise DomainError(f"{name} requires entries in [-inf, +inf)")


def _check_shift(m, name):
    """Refuse the maxima m of softmax rows holding NaN, +inf or only -inf."""
    _check_max(m, name)
    if np.any(m == -np.inf):
        raise DomainError(f"{name} of all -inf logits is undefined")


def _shift_by_max(v, axis, name):
    """v minus its max along `axis`, refusing NaN, +inf and all -inf rows."""
    v = _check_logits(v, name)
    m = _max(v, axis)
    _check_shift(m, name)
    return v - m


PAIRWISE_BLOCK = 128  # numpy sums a row of at most this many entries in one block


def _topic_sum(E):
    """np.sum(E.T, axis=1) bit for bit, for E of shape (K, N) in any layout:
    the sum over its K rows in numpy's own order for a row of K entries (see
    the module docstring)."""
    K = E.shape[0]
    if K > PAIRWISE_BLOCK:
        return np.ascontiguousarray(E.T).sum(axis=1)
    if K < 8:
        s = E[0] + 0.0  # numpy's sum starts from 0.0
        for k in range(1, K):
            s += E[k]
        return s
    r = E[:8].copy()
    tail = K - K % 8
    for i in range(8, tail, 8):
        r += E[i:i + 8]
    a = r[0::2] + r[1::2]
    s = (a[0] + a[1]) + (a[2] + a[3])  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for k in range(tail, K):
        s += E[k]
    s += 0.0  # numpy adds the row's sum to its 0.0 start, which turns -0.0 into 0.0
    return s


def _softmax_topics(V):
    """softmax over axis 0 of a topic-major (K, N) array, in place: the bits
    of softmax(V.T, axis=-1).T, with its refusals.  The column max is
    exact in any order, and the sum is `_topic_sum`."""
    m = V.max(axis=0)
    _check_shift(m, "softmax")
    V -= m
    np.exp(V, out=V)
    V /= _topic_sum(V)
    return V


def log_sum_exp(v, axis=None):
    """ln sum exp(v) without overflow; accepts -inf entries (zero mass)."""
    v = _check_logits(v, "log_sum_exp")
    if axis is None:
        m = float(np.max(v))
        _check_max(m, "log_sum_exp")
        if m == -np.inf:
            return -np.inf
        return m + math.log(np.exp(v - m).sum())
    m = _max(v, axis)
    _check_max(m, "log_sum_exp")
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m_safe, axis=axis) + np.log(np.exp(v - m_safe).sum(axis=axis))


# Each row's max entry contributes exp(0) = 1, so the sums below are >= 1.

def softmax(v, axis=-1):
    """exp(v)/sum exp(v); shift-invariant, tolerates -inf logits."""
    e = _shift_by_max(v, axis, "softmax")
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def log_softmax(v, axis=-1):
    """Elementwise log of softmax, computed stably in log space."""
    shifted = _shift_by_max(v, axis, "log_softmax")
    shifted -= np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted


def _check_positive_rows(x):
    # one Dirichlet parameter vector, or a (D, K) stack of them
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 2 and a.shape[1] >= 1:
        check_positive_vector(a.ravel())
        return a
    return check_positive_vector(a)


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def expected_log_pi(alpha_hat):
    """E[ln pi] under Dir(alpha_hat): psi(alpha_k) - psi(sum alpha), per row
    of a (D, K) stack."""
    a = _check_positive_rows(alpha_hat)
    return digamma(a) - digamma(a.sum(axis=-1, keepdims=True))


def ln_multivariate_beta(alpha):
    """ln B(alpha) = sum ln Gamma(alpha_k) - ln Gamma(sum alpha_k); a float
    for one vector, one value per row of a (D, K) stack."""
    a = _check_positive_rows(alpha)
    out = _lgamma(a).sum(axis=-1) - _lgamma(a.sum(axis=-1))
    return float(out) if a.ndim == 1 else out


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------

def sample_dirichlet(alpha, rng):
    """One draw from Dir(alpha) via normalized standard-gamma variates; one
    draw per row of a (D, K) stack."""
    a = _check_positive_rows(alpha)
    draws = rng.gen.standard_gamma(a)
    totals = draws.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise DomainError(
            "Dirichlet sample underflowed to zero; alpha too small for float64"
        )
    return draws / totals
