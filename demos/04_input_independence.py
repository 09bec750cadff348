"""Detecting whether branch probabilities depend on the input.

A branch is input independent when its probability is the same for
every input state. That happens exactly when the branch operator
factors as C (psi x ancilla) = U psi x b for an isometry U and a fixed
ancilla vector b, in which case the probability is |b|^2 on every
input, pure or mixed. factor_branch finds that witness exactly, as a
rank-1 split of the branch isometry; check_independence reports the
exact probability range over all inputs. Seeded probe states only
cross-check both.

Run:  python3 demos/04_input_independence.py
"""

import numpy as np

from meastree import (
    check_independence,
    check_set_independence,
    factor_branch,
    reduce_circuit,
    route_label,
)
from meastree.demos import measure_discard, teleportation

print("== teleportation: every branch factors ==")
t, _ = reduce_circuit(teleportation())
for branch in t.branches():
    fact = factor_branch(t, branch)
    weight = float(np.vdot(fact.ancilla_vector, fact.ancilla_vector).real)
    off_identity = float(np.max(np.abs(fact.principal_operator - np.eye(2))))
    print(
        f"branch {route_label(branch)}: kind={fact.kind}, |b|^2={weight:.6f}, "
        f"U deviates from the identity by {off_identity:.2e}"
    )
print("teleportation forwards the input unchanged on every branch,")
print("and each branch fires with input-independent probability 1/4.")

print()
print("== exact probability ranges ==")
for branch in t.branches():
    rep = check_independence(t, branch, probes=64, seed=7)
    print(
        f"branch {route_label(branch)}: verdict {rep.verdict}, "
        f"probability range [{rep.min_probability:.9f}, {rep.max_probability:.9f}]"
    )

print()
print("== sets of branches ==")
branches = t.branches()
full = check_set_independence(t, branches, probes=32, seed=7)
print(f"all four branches together: constant {full.constant:.6f} ({full.verdict})")
pair = check_set_independence(t, branches[:2], probes=32, seed=7)
print(f"first two branches: constant {pair.constant:.6f} ({pair.verdict})")

print()
print("== negative control: a bare computational-basis readout ==")
td, _ = reduce_circuit(measure_discard())
plus = np.array([1.0, 1.0]) / np.sqrt(2)
for branch in td.branches():
    fact = factor_branch(td, branch)
    rep = check_independence(td, branch, probes=32, seed=7, extra_probes=[plus])
    print(
        f"branch {route_label(branch)}: witness={fact}, verdict {rep.verdict}, "
        f"probability spread {rep.max_deviation:.3f}"
    )
print("reading out a qubit and keeping the result cannot be input independent:")
print("the readout extracts information, so the probabilities move with the input.")
print("done.")
