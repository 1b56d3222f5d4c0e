"""Both kernel backends must agree: the compiled and vectorized paths are
interchangeable up to floating-point reassociation (different libm digamma
and summation orders allow ~1e-12 drift, never more), and the Gibbs runners
consume pre-drawn uniforms so their sample paths are identical exactly.

Without numba, `njit` returns the loop source unchanged, so the parity
tests still compare the loop kernels, run as plain Python, against the
vectorized ones and the Gibbs list runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logistic_lda.backend import HAS_NUMBA
from logistic_lda.encoders import forward_logits_batch, init_params
from logistic_lda.lda_baseline import (
    _gibbs_sweep_lists,
    _gibbs_sweep_nb,
    _gibbs_sweep_nb_jit,
    gibbs_init,
    disjoint_topic_matrix,
    item_groups,
    generate_corpus,
)
from logistic_lda.math_kernels import SeededRng
from logistic_lda.mean_field import (
    NO_TAPE,
    FlatGroups,
    HyperParams,
    _mean_field_batch_nb,
    _mean_field_batch_nb_jit,
    _mean_field_batch_np,
    batch_mean_field,
    flatten_groups,
)
from logistic_lda.training import _unroll_bwd_nb_jit, _unroll_bwd_np, _unroll_fwd

UNTAPED = (NO_TAPE, NO_TAPE, NO_TAPE)


def random_problem(seed, D=7, K=4, V=11):
    rng = SeededRng(seed)
    beta = rng.gen.dirichlet(np.full(V, 0.4), size=K)
    groups, _ = generate_corpus(K, V, D, int(rng.gen.integers(2, 9)),
                                np.full(K, 0.6), beta, rng, labeled=True)
    for g in groups[::3]:
        g.label = None
    flat = flatten_groups(groups)
    theta = init_params("table", (K, V), 1.0, rng)
    F = np.ascontiguousarray(forward_logits_batch(flat.payload, theta))
    hyper = HyperParams(alpha=rng.gen.uniform(0.2, 1.5, size=K),
                        lam=float(rng.gen.uniform(0.3, 3.0)), n_iter=4)
    return flat, F, hyper


class TestMeanFieldParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("clamp", [False, True])
    def test_batch_outputs_agree(self, seed, clamp):
        flat, F, hyper = random_problem(seed)
        D, K = flat.num_groups, hyper.num_topics
        AH0 = np.tile(hyper.alpha, (D, 1))
        PL0 = np.full((D, K), 1.0 / K)
        args = (F, flat.offsets, hyper.alpha, hyper.lam, flat.labels,
                clamp, 6, 0.0, AH0, PL0, *UNTAPED)
        P_nb, PL_nb, AH_nb, s_nb = _mean_field_batch_nb_jit(*args)
        P_np, PL_np, AH_np, s_np = _mean_field_batch_np(*args)
        np.testing.assert_allclose(P_nb, P_np, atol=1e-12)
        np.testing.assert_allclose(PL_nb, PL_np, atol=1e-12)
        np.testing.assert_allclose(AH_nb, AH_np, atol=1e-11)
        assert s_nb == s_np

    def test_convergence_sweep_counts_agree(self):
        flat, F, hyper = random_problem(99)
        D, K = flat.num_groups, hyper.num_topics
        args = (F, flat.offsets, hyper.alpha, hyper.lam, flat.labels,
                False, 200, 1e-6, np.tile(hyper.alpha, (D, 1)), np.full((D, K), 1.0 / K),
                *UNTAPED)
        _, _, AH_nb, s_nb = _mean_field_batch_nb_jit(*args)
        _, _, AH_np, s_np = _mean_field_batch_np(*args)
        assert s_nb == s_np
        np.testing.assert_allclose(AH_nb, AH_np, atol=1e-10)


    @pytest.mark.parametrize("kernel", [_mean_field_batch_nb_jit, _mean_field_batch_np])
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("max_sweeps", [25, 200])
    def test_each_group_stops_as_if_alone(self, kernel, clamp, max_sweeps):
        # groups never read one another's state, so at tol > 0 each group's
        # beliefs and sweep count are bitwise those of a corpus holding only
        # that group, and the batch reports the largest count
        flat, F, hyper = random_problem(99, D=9)
        D, K = flat.num_groups, hyper.num_topics
        rng = np.random.default_rng(3)
        AH0 = hyper.alpha + rng.uniform(0.0, 4.0, size=(D, K))
        PL0 = rng.dirichlet(np.ones(K), size=D)
        P, PL, AH, done = kernel(F, flat.offsets, hyper.alpha, hyper.lam, flat.labels,
                                 clamp, max_sweeps, 1e-6, AH0, PL0, *UNTAPED)
        counts = []
        for d in range(D):
            lo, hi = flat.offsets[d], flat.offsets[d + 1]
            P_d, PL_d, AH_d, s_d = kernel(
                F[lo:hi], np.array([0, hi - lo]), hyper.alpha, hyper.lam,
                flat.labels[d:d + 1], clamp, max_sweeps, 1e-6, AH0[d:d + 1], PL0[d:d + 1],
                *UNTAPED)
            np.testing.assert_array_equal(P[lo:hi], P_d)
            np.testing.assert_array_equal(PL[d], PL_d[0])
            np.testing.assert_array_equal(AH[d], AH_d[0])
            counts.append(s_d)
        assert type(done) is int and done == max(counts)
        assert min(counts) < max(counts)


class TestUnrollParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_forward_is_the_estep_sweep(self, seed):
        # the tape after t iterations is exactly what t E-step sweeps return,
        # on whichever backend is active
        flat, F, hyper = random_problem(seed)
        P, A, Q = _unroll_fwd(F, flat.offsets, hyper.alpha, hyper.lam, hyper.n_iter)
        for t in range(1, hyper.n_iter + 1):
            P_t, PL_t, AH_t, _ = batch_mean_field(F, flat, hyper, False, t, tol=0.0)
            np.testing.assert_array_equal(P[t - 1], P_t)
            np.testing.assert_array_equal(A[:, t], AH_t)
            np.testing.assert_array_equal(Q[:, t], PL_t)

    # the loop source runs uncompiled, so its tape writes are checked
    # whether or not numba is installed
    KERNELS = [_mean_field_batch_nb, _mean_field_batch_np] + (
        [_mean_field_batch_nb_jit] if HAS_NUMBA else [])

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_tape_is_the_estep_sweep(self, seed, clamp, kernel):
        # one taped call of n_iter sweeps writes, bit for bit, the state that
        # the same kernel returns after t sweeps, for every t
        flat, F, hyper = random_problem(seed)
        D, K, n = flat.num_groups, hyper.num_topics, hyper.n_iter
        rng = np.random.default_rng(seed)
        AH0 = hyper.alpha + rng.uniform(0.0, 2.0, size=(D, K))
        PL0 = rng.dirichlet(np.ones(K), size=D)
        P = np.full((n, flat.num_items, K), np.nan)
        A = np.full((D, n + 1, K), np.nan)
        Q = np.full((D, n + 1, K), np.nan)
        args = (F, flat.offsets, hyper.alpha, hyper.lam, flat.labels, clamp)
        out = kernel(*args, n, 0.0, AH0, PL0, P, A, Q)
        for t in range(n + 1):
            P_t, PL_t, AH_t, _ = kernel(*args, t, 0.0, AH0, PL0, *UNTAPED)
            if t:
                np.testing.assert_array_equal(P[t - 1], P_t)
            np.testing.assert_array_equal(A[:, t], AH_t)
            np.testing.assert_array_equal(Q[:, t], PL_t)
        for final, untaped in zip(out, kernel(*args, n, 0.0, AH0, PL0, *UNTAPED)):
            np.testing.assert_array_equal(final, untaped)

    @pytest.mark.parametrize("seed", range(8))
    def test_backward_agrees(self, seed):
        flat, F, hyper = random_problem(seed)
        P, A, Q = _unroll_fwd(F, flat.offsets, hyper.alpha, hyper.lam, hyper.n_iter)
        labels = np.where(flat.labels >= 0, flat.labels, 0).astype(np.int64)
        dF_nb, losses_nb, hits_nb = _unroll_bwd_nb_jit(
            flat.offsets, hyper.lam, P, A, Q, labels, hyper.n_iter, 1e-30)
        dF_np, losses_np, hits_np = _unroll_bwd_np(
            flat.offsets, hyper.lam, P, A, Q, labels, hyper.n_iter, 1e-30)
        np.testing.assert_allclose(dF_nb, dF_np, atol=1e-12)
        np.testing.assert_allclose(losses_nb, losses_np, atol=1e-12)
        assert hits_nb == hits_np


class TestGibbsParity:
    # same pre-drawn uniforms, same arithmetic order: the loop source, the
    # list runner and (with numba) the compiled loop must produce
    # bit-identical assignment trajectories
    @staticmethod
    def assert_runners_agree(flat, K, V, alpha, sweeps=30):
        kernels = [_gibbs_sweep_nb, _gibbs_sweep_lists]
        if HAS_NUMBA:
            kernels.append(_gibbs_sweep_nb_jit)
        states = []
        for kernel in kernels:
            st = gibbs_init(flat, K, 0.1, SeededRng(77), label_weight=0.7, V=V)
            u_rng = SeededRng(123)
            for _ in range(sweeps):
                u = u_rng.gen.random(flat.num_items)
                kernel(st.z, st.n_dk, st.n_kv, st.n_k, flat.payload, flat.offsets,
                       alpha, st.label_bias, st.eta, u)
            states.append(st)
        for st in states[1:]:
            np.testing.assert_array_equal(states[0].z, st.z)
            np.testing.assert_array_equal(states[0].n_dk, st.n_dk)
            np.testing.assert_array_equal(states[0].n_kv, st.n_kv)
            np.testing.assert_array_equal(states[0].n_k, st.n_k)
        # the counts stay those of the assignments
        st = states[0]
        n_dk, n_kv = np.zeros_like(st.n_dk), np.zeros_like(st.n_kv)
        np.add.at(n_dk, (item_groups(flat), st.z), 1.0)
        np.add.at(n_kv, (st.z, flat.payload), 1.0)
        np.testing.assert_array_equal(st.n_dk, n_dk)
        np.testing.assert_array_equal(st.n_kv, n_kv)
        np.testing.assert_array_equal(st.n_k, n_kv.sum(axis=1))

    def test_identical_sample_paths(self):
        rng = SeededRng(5)
        K, V = 3, 9
        groups, _ = generate_corpus(K, V, 15, 10, np.full(K, 0.4),
                                    disjoint_topic_matrix(K, V), rng, labeled=True)
        self.assert_runners_agree(flatten_groups(groups), K, V, np.full(K, 0.4))

    def test_identical_sample_paths_on_ragged_groups(self):
        # one-item groups, groups of unequal length, and unlabeled groups
        # between labeled ones
        K, V = 4, 7
        sizes = [1, 9, 3, 1, 14, 2]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        tokens = np.random.default_rng(8).integers(0, V, size=offsets[-1]).astype(np.int64)
        flat = FlatGroups(payload=tokens, offsets=offsets,
                          labels=np.array([2, -1, 0, -1, 3, 1], dtype=np.int64))
        self.assert_runners_agree(flat, K, V, np.array([0.3, 0.5, 0.2, 0.9]))


class TestBackendFlag:
    @pytest.mark.parametrize("choice,expect", [("numpy", "numpy"), ("auto", None)])
    def test_env_selects_backend(self, choice, expect):
        env = dict(os.environ, LOGISTIC_LDA_BACKEND=choice)
        out = subprocess.run(
            [sys.executable, "-c", "from logistic_lda import backend; print(backend.BACKEND)"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        if expect is None:
            expect = "numba" if HAS_NUMBA else "numpy"
        assert out == expect

    def test_bad_choice_rejected(self):
        env = dict(os.environ, LOGISTIC_LDA_BACKEND="zebra")
        proc = subprocess.run(
            [sys.executable, "-c", "import logistic_lda.backend"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode != 0
        assert "LOGISTIC_LDA_BACKEND" in proc.stderr

    def test_cli_import_leaves_scipy_out(self, tmp_path):
        # numpy is the only runtime dependency: not even topic matching in
        # eval and gibbs --truth imports scipy
        script = """
import sys
from logistic_lda.cli import run_cli
c, m = sys.argv[1] + "/c.jsonl", sys.argv[1] + "/m.ckpt"
for argv in (
    ["gen", "--k", "3", "--v", "9", "--docs", "12", "--len", "8", "--seed", "7", "-o", c],
    ["train", "--corpus", c, "-o", m, "--epochs", "1", "--quiet"],
    ["eval", "--corpus", c, "--model", m, "--truth", c + ".truth"],
    ["gibbs", "--corpus", c, "--truth", c + ".truth", "--burn-in", "1", "--samples", "1"],
):
    assert run_cli(argv) == 0, argv
print("scipy" in sys.modules)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, check=True,
        )
        assert '"matched_item_accuracy"' in proc.stdout
        assert proc.stdout.splitlines()[-1] == "False"

    def test_numpy_backend_runs_pipeline(self, tmp_path):
        # end to end smoke on the fallback: the CLI must work without numba
        env = dict(os.environ, LOGISTIC_LDA_BACKEND="numpy")
        corpus = tmp_path / "c.jsonl"
        cmds = [
            ["gen", "--k", "2", "--v", "6", "--docs", "6", "--len", "5",
             "--seed", "2", "-o", str(corpus)],
            ["train", "--corpus", str(corpus), "-o", str(tmp_path / "m.ckpt"),
             "--epochs", "2", "--quiet"],
            ["eval", "--corpus", str(corpus), "--model", str(tmp_path / "m.ckpt"),
             "--truth", str(corpus) + ".truth"],
        ]
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "logistic_lda.cli"] + cmd,
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr


class TestBenchBackends:
    def test_smoke_one_row_per_kernel(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "bench_backends.py"),
             "--docs", "20", "--len", "5", "--repeats", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.splitlines()[2:]
        assert [r.split(" (")[0] for r in rows] == [
            "mean-field E-step", "converged E-step", "unroll backward", "gibbs sweep"]
