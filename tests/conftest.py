import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def rng():
    from logistic_lda.math_kernels import SeededRng

    return SeededRng(12345)


def use_numpy_kernels(monkeypatch):
    """Run the numpy forms of the three kernels, whatever backend the host
    picked: each module binds its kernel at import, as ``backend.<kernel> or
    <numpy form>``, and training imports mean_field's.  A subprocess started
    under it gets LOGISTIC_LDA_BACKEND=numpy.  For the tests that pin numpy's
    bits or call names; the parity tests compare the two backends."""
    from logistic_lda import lda_baseline, mean_field, training

    monkeypatch.setenv("LOGISTIC_LDA_BACKEND", "numpy")
    monkeypatch.setattr(mean_field, "_mean_field_batch", mean_field._mean_field_batch_np)
    monkeypatch.setattr(training, "_mean_field_batch", mean_field._mean_field_batch_np)
    monkeypatch.setattr(training, "_unroll_bwd", training._unroll_bwd_np)
    monkeypatch.setattr(lda_baseline, "_gibbs_sweep_kernel", lda_baseline._gibbs_sweep_lists)


@pytest.fixture
def numpy_kernels(monkeypatch):
    use_numpy_kernels(monkeypatch)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running training tests")


@pytest.fixture
def save_with_meta(monkeypatch):
    """save(path, cp, edit): write cp as save_checkpoint does, with its meta
    manifest passed through edit(meta) first."""
    from logistic_lda import data_io

    manifest = data_io._checkpoint_manifest

    def edited(cp, edit):
        meta, arrays = manifest(cp)
        edit(meta)
        return meta, arrays

    def save(path, cp, edit):
        monkeypatch.setattr(data_io, "_checkpoint_manifest", lambda c: edited(c, edit))
        data_io.save_checkpoint(path, cp)
        monkeypatch.setattr(data_io, "_checkpoint_manifest", manifest)

    return save
