import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def rng():
    from logistic_lda.math_kernels import SeededRng

    return SeededRng(12345)


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
