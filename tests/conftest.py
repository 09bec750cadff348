"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from meastree import circuits, linalg, trees


@pytest.fixture
def kernel_calls(monkeypatch):
    """Each call of the gate-application kernel ``apply_local``, as ``(op, shape of the block)``.

    The walker and ``_resume`` read the kernel from ``linalg``; the sampler's
    Born weights and the two-sided carry read it from ``circuits`` and ``trees``.
    """
    calls = []
    kernel = linalg.apply_local

    def recording(op, on, x, space):
        calls.append((op, np.shape(x)))
        return kernel(op, on, x, space)

    for module in (linalg, circuits, trees):
        monkeypatch.setattr(module, "apply_local", recording)
    return calls
