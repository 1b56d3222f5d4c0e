"""Time the numba kernels against their pure-numpy fallbacks.

Both sides of every kernel pair are importable regardless of the active
LOGISTIC_LDA_BACKEND, so a single process can compare them directly on
identical inputs.  The numpy column times what the numpy backend runs,
which for the Gibbs sweep is the loop over Python lists.  Without numba
installed only the numpy column is reported.

    python3 benchmarks/bench_backends.py [--docs 1000] [--len 60] [--repeats 5]
"""

import argparse
import copy
import time

import numpy as np

from logistic_lda.backend import BACKEND, HAS_NUMBA
from logistic_lda.encoders import fixed_loglik_params, forward_logits_batch, init_params
from logistic_lda.lda_baseline import (
    _gibbs_sweep_lists,
    _gibbs_sweep_nb_jit,
    disjoint_topic_matrix,
    generate_corpus,
    gibbs_init,
)
from logistic_lda.math_kernels import SeededRng
from logistic_lda.mean_field import (
    NO_TAPE,
    HyperParams,
    _mean_field_batch_nb_jit,
    _mean_field_batch_np,
    flatten_groups,
)
from logistic_lda.training import _unroll_bwd_nb_jit, _unroll_bwd_np, _unroll_fwd


def best_of(fn, repeats):
    fn()  # warm: compile or fault pages before timing
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--v", type=int, default=100)
    ap.add_argument("--docs", type=int, default=1000)
    ap.add_argument("--len", type=int, default=60, dest="doc_len")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    K, V = args.k, args.v
    rng = SeededRng(42)
    groups, _ = generate_corpus(
        K, V, args.docs, args.doc_len, np.full(K, 0.1),
        disjoint_topic_matrix(K, V), rng, labeled=True,
    )
    flat = flatten_groups(groups)
    hyper = HyperParams(alpha=np.full(K, 0.1), lam=1.0, n_iter=5)
    theta = init_params("table", (K, V), 0.1, rng)
    F = np.ascontiguousarray(forward_logits_batch(flat.payload, theta))
    D = flat.num_groups
    AH0 = np.tile(hyper.alpha, (D, 1))
    PL0 = np.full((D, K), 1.0 / K)

    rows = []

    def bench(name, nb_fn, np_fn):
        t_np = best_of(np_fn, args.repeats)
        t_nb = best_of(nb_fn, args.repeats) if HAS_NUMBA else None
        rows.append((name, t_nb, t_np))

    def mf(kernel, logits, sweeps, tol):
        return lambda: kernel(logits, flat.offsets, hyper.alpha, 1.0, flat.labels,
                              False, sweeps, tol, AH0.copy(), PL0.copy(),
                              NO_TAPE, NO_TAPE, NO_TAPE)

    bench(f"mean-field E-step (5 sweeps, {flat.num_items} items)",
          mf(_mean_field_batch_nb_jit, F, 5, 0.0), mf(_mean_field_batch_np, F, 5, 0.0))
    # the converged inference of eval, infer and topics, on the logits of a
    # model that fits the corpus (the generating topics, smoothed), where
    # groups settle after different numbers of sweeps and each stops on its own
    fitted = fixed_loglik_params(0.9 * disjoint_topic_matrix(K, V) + 0.1 / V)
    F_fit = np.ascontiguousarray(forward_logits_batch(flat.payload, fitted))
    bench("converged E-step (tol 1e-6, cap 100)",
          mf(_mean_field_batch_nb_jit, F_fit, 100, 1e-6),
          mf(_mean_field_batch_np, F_fit, 100, 1e-6))

    P, A, Q = _unroll_fwd(F, flat.offsets, hyper.alpha, 1.0, 5)

    def bwd(kernel):
        return lambda: kernel(flat.offsets, 1.0, P, A, Q, flat.labels, 5, 1e-30)

    bench("unroll backward (n_iter=5)", bwd(_unroll_bwd_nb_jit), bwd(_unroll_bwd_np))

    state0 = gibbs_init(flat, K, 0.1, SeededRng(7), V=V)
    tokens = flat.payload.astype(np.int64)
    u = SeededRng(8).gen.random(flat.num_items)

    def gibbs(kernel):
        def run():
            s = copy.deepcopy(state0)
            kernel(s.z, s.n_dk, s.n_kv, s.n_k, tokens, flat.offsets, hyper.alpha,
                   s.label_bias, s.eta, u)
        return run

    bench(f"gibbs sweep ({flat.num_items} items)",
          gibbs(_gibbs_sweep_nb_jit), gibbs(_gibbs_sweep_lists))

    print(f"active backend: {BACKEND} (numba {'available' if HAS_NUMBA else 'not installed'})")
    print(f"{'kernel':<48} {'numba ms':>10} {'numpy ms':>10} {'speedup':>8}")
    for name, t_nb, t_np in rows:
        nb_s = f"{t_nb * 1e3:10.2f}" if t_nb is not None else "         -"
        ratio = f"{t_np / t_nb:7.1f}x" if t_nb else "       -"
        print(f"{name:<48} {nb_s} {t_np * 1e3:10.2f} {ratio}")


if __name__ == "__main__":
    main()
