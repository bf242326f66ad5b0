#!/usr/bin/env python3
"""Extend the discriminator beyond two program states.

The same trick scales: split the unknown into n arms, interfere each with
one program state on an n/(n+1) splitter, and let clicks exclude
hypotheses.  A conclusive answer now needs all n-1 "wrong" detectors to
fire, so success falls as states are added -- the price of asking a
harder question.
"""

from udiscrim import (
    DetectorModel,
    NStatePlan,
    ScenarioParams,
    analytic_nstate_success,
    detector_amplitudes,
    intensity,
    nstate_report,
    nstate_success_from_distances,
    ring_programs,
)

# The null-port property survives the generalization: whichever program
# state the unknown equals, its detector stays dark.
programs = ring_programs(4, intensity=1.33)
plan = NStatePlan(4)
print("port intensities with the unknown equal to each of 4 ring states:")
for k in range(4):
    ports = detector_amplitudes(programs[k], programs, plan)
    pretty = ", ".join(f"{x:.3f}" for x in map(intensity, ports))
    print(f"  unknown = state {k + 1}: [{pretty}]")

# Success at a fixed pairwise distance shrinks with n for two reasons:
# the 1/(n+1) splitting dilutes each comparison, and more detectors must
# all fire at once.
print("\nsuccess with every pairwise distance pinned at |a_j - a_k|^2 = 4:")
for n in range(2, 9):
    p = nstate_success_from_distances((4.0,) * (n - 1), n, eta=0.53)
    print(f"  n={n}: {p:.4f}")

# Ring geometries are harsher still: the ring fills up and neighbours
# crowd together.
det = DetectorModel(0.53, 0.0)
print("\nsuccess for rings of fixed intensity 1.33:")
for n in range(2, 7):
    programs = ring_programs(n, intensity=1.33)
    p = analytic_nstate_success(programs, 0, NStatePlan(n), det)
    print(f"  n={n}: {p:.4f}")

# Monte Carlo cross-check through the full engine for a 3-state ring.
params = ScenarioParams(dark=0.0, vis1=1.0, trials=50_000, blocks=4, seed=21,
                        intensity1=1.33)
table = nstate_report(3, params)
print("\n3-state report (analytic vs measured, one truth-k run per row):")
print("  " + ", ".join(table.columns))
for row in table.rows:
    print("  " + ", ".join(f"{v:.4f}" for v in row))
