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


@pytest.fixture
def expand_calls(monkeypatch):
    """Each call of a circuit's or a tree's ``_expand`` step, as ``(roles, prefix)``.

    The walker and the route resolver read the step from the instance,
    so recording it on the two classes sees every call.
    """
    calls = []
    for cls in (circuits.Circuit, trees.MeasurementTree):

        def recording(roles, prefix, step=cls._expand):
            calls.append((roles, prefix))
            return step(roles, prefix)

        monkeypatch.setattr(cls, "_expand", recording)
    return calls
