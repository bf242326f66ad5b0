#!/usr/bin/env python3
"""Walk through the discriminator network one element at a time.

The device answers a simple question: an incoming pulse is promised to
equal one of two known program states -- which one?  Interference gives
an error-free answer.  The unknown is split, each share meets one program
state on a beam splitter, and the splitting ratios are chosen so that the
detector behind program j sees exactly (alpha_j - alpha_?) up to a
constant.  A click at a detector therefore *rules out* its program state.
"""

import math

from udiscrim import (
    SplitterPlan,
    classify,
    detector_amplitudes,
    from_intensity_phase,
    intensity,
)
# The splitter and its transform are the network's internals, kept in optics.
from udiscrim.optics import BeamSplitter, bs_transform

# A beam splitter in this package follows the symmetric convention:
# transmitted light keeps its phase, reflected light picks up i.
a_out, b_out = bs_transform(1 + 0j, 0j, BeamSplitter(0.5))
print("balanced splitter on one photon's worth of light:")
print(f"  transmitted {a_out:.4f}, reflected {b_out:.4f}")
print(f"  intensities {intensity(a_out):.3f} + {intensity(b_out):.3f} = 1\n")

# The network needs three splitters; only the input ratio t0 is free.
plan = SplitterPlan(0.5)
print(f"plan for t0=0.5: t1={plan.t1:.4f}, t2={plan.t2:.4f}")
print("(t1 and t2 are always derived from t0; t0=1/2 is the optimal choice")
print(" for equally likely program states)\n")

# Two opposite program states of one photon per pulse, and an unknown
# pulse equal to the first.
alpha1 = from_intensity_phase(1.0, 0.0)
alpha2 = from_intensity_phase(1.0, math.pi)
ports = detector_amplitudes(alpha1, (alpha1, alpha2), plan)
print("unknown = program 1:")
print(f"  detector 1 sees {intensity(ports[0]):.3e} photons -> perfectly dark")
print(f"  detector 2 sees {intensity(ports[1]):.4f} photons = |a2-a1|^2/3\n")

ports = detector_amplitudes(alpha2, (alpha1, alpha2), plan)
print("unknown = program 2: the roles swap")
print(f"  detector 1: {intensity(ports[0]):.4f}, detector 2: {intensity(ports[1]):.3e}\n")

# Clicks exclude hypotheses; exactly one survivor is a conclusive answer.
print("click patterns and the surviving hypotheses (0-based):")
for pattern in [(False, False), (True, False), (False, True), (True, True)]:
    survivors = classify(pattern)
    if len(survivors) == 1:
        label = f"identified state {survivors[0] + 1}"
    elif len(survivors) == len(pattern):
        label = "inconclusive (no exclusion)"
    else:
        label = "inconclusive (everything excluded)"
    print(f"  clicks {pattern} -> {label}")

# The null holds for every t0, not just the optimal one.
print("\ndark-port residuals across input ratios:")
for t0 in (0.1, 0.3, 0.7, 0.9):
    plan = SplitterPlan(t0)
    leak = abs(detector_amplitudes(alpha1, (alpha1, alpha2), plan)[0])
    print(f"  t0={t0:.1f}: |d1| = {leak:.2e}")
