"""Acceptance gate: ten end-to-end checks with hard thresholds.

Each test prints one summary line (visible under `pytest -s`) reporting
the measured quantity, the threshold it must clear, and wall time against
the check's budget.  Budgets are enforced after a session-wide warmup that
compiles the jitted kernels, so they measure algorithm time rather than
compiler time.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from logistic_lda.data_io import (
    Checkpoint,
    corpus_from_groups,
    load_checkpoint,
    load_corpus,
    save_checkpoint,
    save_corpus,
)
from logistic_lda.encoders import (
    Item,
    fixed_loglik_params,
    forward_logits_batch,
    init_params,
)
from logistic_lda.lda_baseline import (
    disjoint_topic_matrix,
    generate_corpus,
    gibbs_init,
    gibbs_sweep,
)
from logistic_lda.math_kernels import (
    SeededRng,
    digamma,
    log_softmax,
    sample_dirichlet,
    softmax,
    trigamma,
)
from logistic_lda.mean_field import Group, HyperParams, batch_mean_field, flatten_groups
from logistic_lda.regularizer import RegularizerState, default_gamma
from logistic_lda.training import (
    TrainConfig,
    _corpus_elbo,
    _discriminative_batch_grad,
    predict_corpus,
    train,
)

from oracles import (
    central_difference_grad,
    init_state,
    lda_collapsed_pair_posterior,
    max_relative_error,
    psi_oracle,
    update_alpha,
    update_item_beliefs,
    update_label_beliefs,
)


def _line(ok, name, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # compile / load the jitted kernels once so the runtime budgets below
    # measure the algorithms, not the JIT
    rng = SeededRng(0)
    groups, _ = generate_corpus(2, 6, 3, 4, np.full(2, 0.5), disjoint_topic_matrix(2, 6), rng, labeled=True)
    hyper = HyperParams(alpha=np.full(2, 0.5), lam=1.0, n_iter=2)
    theta = init_params("table", (2, 6), 0.1, rng)
    cfg = TrainConfig(mode="variational", epochs=1, batch_size=3, lr=0.01, verbose=False)
    train(flatten_groups(groups), theta, hyper, cfg)
    flat = flatten_groups(groups)
    _discriminative_batch_grad(flat.payload, flat.offsets, flat.labels, theta, hyper)
    predict_corpus(flat, theta, hyper, converged=True)
    state = gibbs_init(flat, 2, 0.5, rng, V=6)
    gibbs_sweep(state, flat, np.full(2, 0.5), rng)
    digamma(np.ones(3))
    trigamma(np.ones(3))


def test_01_special_case_reduction():
    # with the fixed log-likelihood encoder and exact log proportions as
    # the context term, the item conditional must reduce to the classical
    # normalize(pi_k * beta_kv) posterior
    t0 = time.perf_counter()
    rng = SeededRng(11)
    worst = 0.0
    for _ in range(100):
        K = int(rng.gen.integers(2, 6))
        V = int(rng.gen.integers(3, 11))
        beta = np.stack([sample_dirichlet(np.full(V, 0.5), rng) for _ in range(K)])
        pi = sample_dirichlet(np.full(K, 0.5), rng)
        v = int(rng.gen.integers(0, V))
        f = forward_logits_batch(np.array([v], dtype=np.int64), fixed_loglik_params(beta))[0]
        got = softmax(f + np.log(pi))
        want = pi * beta[:, v]
        want = want / want.sum()
        worst = max(worst, float(np.max(np.abs(got - want))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    assert _line(ok, "01 special-case reduction", f"max|diff|={worst:.2e} <= 1e-12 ({dt:.2f}s < 1s)")


def test_02_coordinate_ascent_monotonicity():
    # the reference updates move the beliefs one coordinate at a time; the
    # bound measured after each is the one training reports
    t0 = time.perf_counter()
    worst = np.inf  # most negative single-update ELBO change
    for seed in range(100):
        rng = SeededRng(seed)
        K = int(rng.gen.integers(2, 5))
        N = int(rng.gen.integers(1, 7))
        theta = init_params("mlp", (3, 4, K), 1.0, rng)
        label = int(rng.gen.integers(0, K)) if seed % 2 else None
        grp = Group(id="g", items=[Item(dense=rng.gen.normal(size=3)) for _ in range(N)], label=label)
        hyper = HyperParams(
            alpha=rng.gen.uniform(0.2, 2.0, size=K),
            lam=float(rng.gen.uniform(0.2, 3.0)),
            n_iter=5,
        )
        state = init_state(grp, hyper, clamp_label=label is not None)
        flat = flatten_groups([grp])
        g = log_softmax(forward_logits_batch(flat.payload, theta), axis=-1)

        def elbo():
            return _corpus_elbo(g, state.p_items, state.p_label[None], state.alpha_hat[None],
                                flat, hyper)

        prev = elbo()
        for _ in range(5):
            for update in (update_item_beliefs, update_alpha, update_label_beliefs):
                if update is update_item_beliefs:
                    update(state, grp, theta)
                else:
                    update(state, hyper)
                cur = elbo()
                worst = min(worst, cur - prev)
                prev = cur
    dt = time.perf_counter() - t0
    ok = worst >= -1e-9 and dt < 30.0
    assert _line(ok, "02 coordinate ascent monotonicity",
                 f"worst single-update change={worst:.2e} >= -1e-9 ({dt:.1f}s < 30s)")


def test_03_unrolled_gradient():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        for n_iter in (1, 3, 5):
            rng = SeededRng(100 * seed + n_iter)
            K = 3
            theta = init_params("mlp", (4, 5, K), 1.0, rng)
            grp = Group(
                id="g",
                items=[Item(dense=rng.gen.normal(size=4)) for _ in range(4)],
                label=int(rng.gen.integers(0, K)),
            )
            hyper = HyperParams(
                alpha=rng.gen.uniform(0.3, 2.0, size=K),
                lam=float(rng.gen.uniform(0.2, 2.5)),
                n_iter=n_iter,
            )
            flat = flatten_groups([grp])
            _, grad, _, _ = _discriminative_batch_grad(
                flat.payload, flat.offsets, flat.labels, theta, hyper
            )

            def loss_fn(fv):
                return _discriminative_batch_grad(
                    flat.payload, flat.offsets, flat.labels, theta.with_flat(fv), hyper
                )[0]

            numeric = central_difference_grad(loss_fn, theta.flat, h=1e-5)
            worst = max(worst, max_relative_error(grad, numeric))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 60.0
    assert _line(ok, "03 unrolled gradient vs finite differences",
                 f"max rel err={worst:.2e} <= 1e-5 ({dt:.1f}s < 60s)")


def test_04_special_functions():
    xs = np.logspace(-4, 6, 1000)
    # the mpmath oracle takes most of a second; evaluate it once, before the
    # clock starts, so the budget times the library
    psi0 = psi_oracle(xs, order=0)
    psi1 = psi_oracle(xs, order=1)
    t0 = time.perf_counter()
    # error scaled by max(1, |oracle|): trigamma near 1e-4 is ~1e8 where an
    # absolute 1e-10 is below float64 spacing
    dig = np.abs(digamma(xs) - psi0)
    tri = np.abs(trigamma(xs) - psi1)
    e_dig = float(np.max(dig / np.maximum(1.0, np.abs(psi0))))
    e_tri = float(np.max(tri / np.maximum(1.0, np.abs(psi1))))
    rec_d = np.abs((digamma(xs + 1.0) - digamma(xs)) - 1.0 / xs)
    rec_t = np.abs((trigamma(xs) - trigamma(xs + 1.0)) - 1.0 / xs**2)
    e_rec = float(max(
        np.max(rec_d / np.maximum(1.0, 1.0 / xs)),
        np.max(rec_t / np.maximum(1.0, 1.0 / xs**2)),
    ))
    dt = time.perf_counter() - t0
    ok = e_dig <= 1e-10 and e_tri <= 1e-10 and e_rec <= 1e-12 and dt < 1.0
    assert _line(ok, "04 digamma/trigamma accuracy",
                 f"oracle err dig={e_dig:.2e} tri={e_tri:.2e} <= 1e-10, "
                 f"recurrence err={e_rec:.2e} <= 1e-12 ({dt:.2f}s < 1s)")


# ---------------------------------------------------------------------------
# synthetic recovery corpus shared by the two regularizer checks

K5, V5, D5, N5 = 5, 100, 1000, 60


@pytest.fixture(scope="module")
def recovery_runs():
    rng = SeededRng(42)
    groups, truth = generate_corpus(
        K5, V5, D5, N5, np.full(K5, 0.1), disjoint_topic_matrix(K5, V5), rng
    )
    flat = flatten_groups(groups)

    def run(gamma):
        t0 = time.perf_counter()
        theta = init_params("table", (K5, V5), 0.1, SeededRng(2))
        hyper = HyperParams(alpha=np.full(K5, 0.1), lam=1.0, gamma=gamma, n_iter=5)
        cfg = TrainConfig(mode="variational", epochs=30, batch_size=100, lr=0.05,
                          e_step_sweeps=1, verbose=False, seed=2)
        theta, _ = train(flat, theta, hyper, cfg)
        fhist = np.bincount(forward_logits_batch(flat.payload, theta).argmax(1), minlength=K5)
        _, _, P = predict_corpus(flat, theta, hyper, converged=True)
        C = np.zeros((K5, K5))
        np.add.at(C, (truth.z, P.argmax(1)), 1.0)
        rows, cols = linear_sum_assignment(-C)
        return {
            "fhist": fhist,
            "acc": float(C[rows, cols].sum() / C.sum()),
            "time": time.perf_counter() - t0,
        }

    return {
        "default": run(default_gamma(flat.num_items)),
        "zero": run(0.0),
        "num_items": flat.num_items,
    }


def test_05_unsupervised_synthetic_recovery(recovery_runs):
    r = recovery_runs["default"]
    ok = r["acc"] >= 0.70 and r["time"] < 600.0
    assert _line(ok, "05 unsupervised synthetic recovery",
                 f"matched item accuracy={r['acc']:.3f} >= 0.70 ({r['time']:.1f}s < 600s)")


def test_06_regularizer_necessity(recovery_runs):
    zero, dflt = recovery_runs["zero"], recovery_runs["default"]
    used = int(np.count_nonzero(zero["fhist"]))
    min_share = float(dflt["fhist"].min() / recovery_runs["num_items"])
    dt = zero["time"] + dflt["time"]
    ok = used <= 2 and min_share >= 0.01 and dt < 600.0
    assert _line(ok, "06 topic-usage regularizer necessity",
                 f"gamma=0 topics used={used} <= 2; default gamma min share={min_share:.3f} >= 0.01 "
                 f"({dt:.1f}s < 600s)")


def test_07_gibbs_exactness():
    t0 = time.perf_counter()
    alpha = np.array([0.4, 0.8])
    eta, K, V = 0.5, 2, 2
    tokens = (0, 1)
    exact = lda_collapsed_pair_posterior(tokens, alpha, eta, K, V)

    flat = flatten_groups([Group(id="d0", items=[Item(token=t) for t in tokens])])
    rng = SeededRng(7)
    state = gibbs_init(flat, K, eta, rng, V=V)
    counts = {}
    n_sweeps = 100_000
    for _ in range(n_sweeps):
        gibbs_sweep(state, flat, alpha, rng)
        pair = (int(state.z[0]), int(state.z[1]))
        counts[pair] = counts.get(pair, 0) + 1
    tv = 0.5 * sum(abs(counts.get(z, 0) / n_sweeps - p) for z, p in exact.items())
    dt = time.perf_counter() - t0
    ok = tv <= 0.01 and dt < 30.0
    assert _line(ok, "07 collapsed Gibbs exactness",
                 f"pair-frequency total variation={tv:.4f} <= 0.01 over {n_sweeps} sweeps "
                 f"({dt:.1f}s < 30s)")


def test_08_discriminative_beats_supervised_variational():
    # labeled corpora with overlapping topic supports so neither method
    # saturates; each regime predicts the way it was trained to infer
    t0 = time.perf_counter()
    K, V, N = 5, 100, 30
    d_train, d_test = 200, 100
    disc, var = [], []
    for seed in range(5):
        rng = SeededRng(1000 + seed)
        beta = np.stack([sample_dirichlet(np.full(V, 0.3), rng) for _ in range(K)])
        groups, _ = generate_corpus(K, V, d_train + d_test, N, np.full(K, 0.1), beta, rng,
                                    labeled=True)
        tr, te = groups[:d_train], groups[d_train:]
        te_flat = flatten_groups(te)
        te_labels = np.array([g.label for g in te])
        hyper = HyperParams(alpha=np.full(K, 0.1), lam=5.0, gamma=0.0, n_iter=5)
        for mode, accs in (("discriminative", disc), ("variational", var)):
            theta = init_params("table", (K, V), 0.1, SeededRng(seed))
            cfg = TrainConfig(mode=mode, epochs=20, batch_size=50, lr=0.05,
                              clamp_labels=True, e_step_sweeps=1, verbose=False, seed=seed)
            theta, _ = train(flatten_groups(tr), theta, hyper, cfg)
            pred, _, _ = predict_corpus(te_flat, theta, hyper, converged=mode == "variational")
            accs.append(float(np.mean(pred == te_labels)))
    m_disc, m_var = float(np.mean(disc)), float(np.mean(var))
    dt = time.perf_counter() - t0
    ok = m_disc >= m_var
    assert _line(ok, "08 discriminative vs supervised variational",
                 f"mean test accuracy {m_disc:.3f} >= {m_var:.3f} over 5 seeds ({dt:.1f}s)")


def test_09_context_effect():
    t0 = time.perf_counter()
    theta = init_params("table", (2, 3), 0.0, SeededRng(0))
    theta.table[:, 0] = [0.0, 2.0]  # strongly favors topic 1
    theta.table[:, 1] = [0.0, 0.0]  # ambiguous
    grp = Group(id="g", items=[Item(token=0)] * 9 + [Item(token=1)])
    hyper = HyperParams(alpha=np.ones(2), lam=1.0, n_iter=5)
    flat = flatten_groups([grp])
    F = forward_logits_batch(flat.payload, theta)
    P, _, _, _ = batch_mean_field(F, flat, hyper, False, 100, tol=1e-6)
    unbiased = softmax(forward_logits_batch(np.array([1], dtype=np.int64), theta)[0])
    gain = float(P[9, 1] - unbiased[1])
    dt = time.perf_counter() - t0
    ok = gain >= 0.05 and dt < 1.0
    assert _line(ok, "09 group context effect",
                 f"ambiguous item p[topic 1] gain={gain:.3f} >= 0.05 ({dt:.2f}s < 1s)")


def test_10_persistence_roundtrips(tmp_path):
    t0 = time.perf_counter()
    bitwise = True
    for seed in range(3):
        rng = SeededRng(seed)
        K = int(rng.gen.integers(2, 5))
        if seed % 2:
            theta = init_params("mlp", (4, 6, K), 0.7, rng)
            reg = RegularizerState(rho=0.95, log_ema_per_topic=rng.gen.normal(size=K),
                                   items_seen=17 + seed)
        else:
            theta = init_params("table", (K, 8), 0.7, rng)
            reg = None
        hyper = HyperParams(alpha=rng.gen.uniform(0.2, 2.0, size=K),
                            lam=float(rng.gen.uniform(0.1, 4.0)), gamma=float(seed), n_iter=3)
        path = tmp_path / f"cp{seed}.bin"
        save_checkpoint(path, Checkpoint(hyper=hyper, params=theta, reg_state=reg,
                                         provenance={"seed": seed}))
        loaded = load_checkpoint(path)
        bitwise &= loaded.params.flat.tobytes() == theta.flat.tobytes()
        bitwise &= loaded.hyper.alpha.tobytes() == hyper.alpha.tobytes()
        bitwise &= (loaded.hyper.lam, loaded.hyper.gamma, loaded.hyper.n_iter) == (
            hyper.lam, hyper.gamma, hyper.n_iter)
        if reg is not None:
            bitwise &= loaded.reg_state.log_ema_per_topic.tobytes() == reg.log_ema_per_topic.tobytes()
            bitwise &= loaded.reg_state.items_seen == reg.items_seen
        else:
            bitwise &= loaded.reg_state is None

    value_identical = True
    rng = SeededRng(99)
    tok_groups, _ = generate_corpus(3, 20, 8, 6, np.full(3, 0.4),
                                    disjoint_topic_matrix(3, 20), rng, labeled=True)
    tok_path = tmp_path / "tok.jsonl"
    save_corpus(tok_path, corpus_from_groups(tok_groups, 3, vocab_size=20))
    back = load_corpus(tok_path)
    for g0, g1 in zip(tok_groups, back.groups):
        value_identical &= g0.id == g1.id and g0.label == g1.label
        value_identical &= all(a.token == b.token for a, b in zip(g0.items, g1.items))
    dense_groups = [
        Group(id=f"g{d}", items=[Item(dense=rng.gen.normal(size=4)) for _ in range(3)])
        for d in range(5)
    ]
    dense_path = tmp_path / "dense.jsonl"
    save_corpus(dense_path, corpus_from_groups(dense_groups, 3))
    back = load_corpus(dense_path)
    for g0, g1 in zip(dense_groups, back.groups):
        for a, b in zip(g0.items, g1.items):
            value_identical &= bool(np.array_equal(a.dense, b.dense))
    dt = time.perf_counter() - t0
    ok = bitwise and value_identical and dt < 1.0
    assert _line(ok, "10 persistence roundtrips",
                 f"checkpoint bit-identical={bitwise}, corpus value-identical={value_identical} "
                 f"({dt:.2f}s < 1s)")
