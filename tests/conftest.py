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
