"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from meastree import circuits, linalg, trees


class KernelCalls(list):
    """Each call of the one gate-application kernel ``linalg._apply_stack``, as
    ``(stack of operators, shape of the block)``; a pairwise call records the
    shape of one of its blocks."""

    def rows(self) -> int:
        """The operators applied: one per row of each recorded stack."""
        return sum(len(ops) for ops, _ in self)

    def edges(self, measurements) -> list[int]:
        """The outcome operators applied, one per row, each as the address of its data, sorted.
        Each recorded stack must be one of the measurements' ``_stack``, which stands for all
        of its operators, or a one-row view of one operator."""
        stacks = {id(vars(m)["_stack"]): m for m in measurements if "_stack" in vars(m)}
        ops = {op.ctypes.data for m in measurements for op in m.outcomes.values()}
        applied = []
        for stack, _ in self:
            if (m := stacks.get(id(stack))) is not None:
                applied += [op.ctypes.data for op in m.outcomes.values()]
            else:
                assert len(stack) == 1 and stack.ctypes.data in ops
                applied.append(stack.ctypes.data)
        return sorted(applied)

    @staticmethod
    def every_edge(measurements) -> list[int]:
        """Every outcome operator of ``measurements``, one per measurement given, as ``edges`` names them."""
        return sorted(op.ctypes.data for m in measurements for op in m.outcomes.values())


@pytest.fixture
def kernel_calls(monkeypatch):
    """A ``KernelCalls`` list of the calls made while the test runs.

    ``apply_local``, the walker, ``_resume``, the sampler's Born weights and the
    two-sided carry all reach the kernel through ``linalg``.
    """
    calls = KernelCalls()
    kernel = linalg._apply_stack

    def recording(ops, on, x, space, pairwise=False):
        calls.append((ops, np.shape(x)[1:] if pairwise else np.shape(x)))
        return kernel(ops, on, x, space, pairwise)

    monkeypatch.setattr(linalg, "_apply_stack", recording)
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
