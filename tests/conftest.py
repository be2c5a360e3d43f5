import numpy as np
import pytest

from corrspace import qmath as qm


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20260823)


@pytest.fixture
def collapse_stacks(monkeypatch):
    """Stack size of every ``qmath.collapse`` call."""
    sizes = []
    real = qm.collapse

    def counting(states, *args, **kwargs):
        sizes.append(len(states))
        return real(states, *args, **kwargs)

    monkeypatch.setattr(qm, "collapse", counting)
    return sizes


@pytest.fixture
def single_collapses(monkeypatch):
    """A 1 for every collapse of one state onto one ket (``qmath._collapse_one``):
    each measured step of ``measure`` or ``Program.run`` and each stack of one
    passed to ``qmath.collapse``."""
    sizes = []
    real = qm._collapse_one

    def counting(*args, **kwargs):
        sizes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(qm, "_collapse_one", counting)
    return sizes
