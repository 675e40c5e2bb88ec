#!/usr/bin/env python3
"""Gauss, Kloosterman and Salie sums, and the sphere-transform closed form.

The module evaluates every sum by literal summation over the character
table; the classical facts (Gauss sign, Weil bound, the closed form for
the transform of a sphere) are then *observed*, not assumed.  The closed
form comes from sphere_class_values, one value per norm class |m|^2, and
is spread over the grid here to compare it with sphere_spectrum, the
direct transform of the sphere's 0/1 grid.
"""

import math

import numpy as np

from ffdist import gauss_data, kloosterman, make_field, salie, sphere_spectrum
from ffdist.charsums import sphere_class_values
from ffdist.spectral import half_norm_grid

print("Gauss sums g = sum eta(t) e(t/q) and their unit part c_q = g/sqrt(q):")
for q in (3, 5, 7, 11, 13, 17, 19, 23):
    gd = gauss_data(make_field(q))
    print(f"  q = {q:2d} (q mod 4 = {q % 4})  "
          f"c_q = {gd.c_q.real:+.6f} {gd.c_q.imag:+.6f}i")
print("  pattern: c_q = 1 for q = 1 mod 4, c_q = i for q = 3 mod 4")

q = 31
ctx = make_field(q)
print(f"\nKloosterman and Salie sums at q = {q}, Weil cap 2*sqrt(q) = "
      f"{2 * math.sqrt(q):.4f}:")
worst_k = max(abs(kloosterman(ctx, a, b))
              for a in range(1, q) for b in range(1, q))
worst_s = max(abs(salie(ctx, a, b))
              for a in range(1, q) for b in range(1, q))
print(f"  max |K(a,b)| over all nonzero a, b  = {worst_k:.4f}")
print(f"  max |Salie(a,b)| over the same grid = {worst_s:.4f}")

print("\nSphere transforms: direct grid transform vs character-sum closed form")
for q, s in ((13, 2), (7, 3)):
    ctx = make_field(q)
    worst = 0.0
    for r in range(q):
        d = sphere_spectrum(ctx, s, r).values
        at_origin, by_class = sphere_class_values(ctx, s, r)
        c = by_class[half_norm_grid(ctx, s)]
        c.flat[0] = at_origin
        worst = max(worst, float(np.max(np.abs(d - c))))
    print(f"  q = {q:2d}, s = {s}: max entrywise gap over all r = {worst:.2e}")

print("\nthe four explicit bounds (m != 0 unless said otherwise):")
q, s = 13, 2
ctx = make_field(q)
rows = []
for r in range(q):
    mags = np.abs(sphere_spectrum(ctx, s, r).values.ravel())
    rows.append((r, float(mags[1:].max()), float(mags[0])))
print(f"  q = {q}, s = {s}:  q^(-s/2) = {q ** -1.0:.4f}, "
      f"2 q^(-(s+1)/2) = {2 * q ** -1.5:.4f}, 2/q = {2 / q:.4f}")
for r, off, origin in rows[:5]:
    print(f"  r = {r}: max_m |S_r^(m)| = {off:.4f}   |S_r^(0)| = {origin:.4f}")
