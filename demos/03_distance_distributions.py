#!/usr/bin/env python3
"""Distance distributions two ways, and the classic small-set counterexample.

nu(j) counts pairs (x, y) in E x F at squared distance j.  The brute
path loops over pairs; the spectral path rides two grid transforms and
recovers the same integers exactly.  An isotropic line shows why small
sets can defeat any distance-count lower bound: q^2 pairs, one distance.
"""

from fractions import Fraction

import numpy as np

from ffdist import distance_set, make_field, nu_brute, nu_spectral
from ffdist.generators import GeneratorSpec, generate

q, s = 13, 2
ctx = make_field(q)

E = generate(ctx, s, GeneratorSpec("uniform_random", size=40, seed=1))
F = generate(ctx, s, GeneratorSpec("uniform_random", size=55, seed=2))

brute = nu_brute(E, F)
spectral = nu_spectral(ctx, E, F)
print(f"random sets, #E = {E.size}, #F = {F.size}, q = {q}:")
print(f"  nu (brute)    = {brute.nu.tolist()}")
print(f"  nu (spectral) = {spectral.nu.tolist()}")
print(f"  identical: {np.array_equal(brute.nu, spectral.nu)}   "
      f"total = {int(brute.nu.sum())} = #E * #F = {E.size * F.size}")
print(f"  attained distances: {sorted(distance_set(brute))}")
# (sum_{j != 0} nu(j))^2 / sum_{j != 0} nu(j)^2 <= #{j != 0 : nu(j) > 0}
off = [int(n) for n in brute.nu[1:]]
print(f"  Cauchy-Schwarz support floor (off zero): "
      f"{float(Fraction(sum(off) ** 2, sum(n * n for n in off))):.3f}")

print("\nthe isotropic line {(x, ix)} with i^2 = -1 (needs q = 1 mod 4):")
L = generate(ctx, 2, GeneratorSpec("isotropic_line"))
dist = nu_brute(L, L)
print(f"  q = {q}: #E = {L.size}, nu(0) = {int(dist.nu[0])} = q^2, "
      f"distance set = {sorted(distance_set(dist))}")
print("  every pair sits at 'distance' zero: one attained value, q^2 mass")

print("\ndense sets attain everything:")
D1 = generate(ctx, s, GeneratorSpec("uniform_random", size=150, seed=7))
D2 = generate(ctx, s, GeneratorSpec("uniform_random", size=160, seed=8))
print(f"  #E = 150, #F = 160 at q = {q}: "
      f"#distances = {len(distance_set(nu_spectral(ctx, D1, D2)))} (of {q})")
