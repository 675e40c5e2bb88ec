#!/usr/bin/env python3
"""Tour of the prime-field layer: tables, inverses, characters, square roots.

Everything downstream (transforms, character sums, distance counts) runs
on the three tables built here, so this is the place to see them up close:
inverses, the quadratic character and the additive characters are reads
of ctx.inv_table, ctx.eta_table and ctx.char_table.
"""

import numpy as np

from ffdist import make_field, sqrt_mod

q = 13
ctx = make_field(q)

print(f"F_{q}: inverse table      {ctx.inv_table[1:].tolist()}")
print(f"F_{q}: quadratic character {ctx.eta_table[1:].tolist()}")
print(f"      (sums to {int(ctx.eta_table[1:].sum())}: squares and nonsquares balance)")

print("\nmultiplicative inverses, spot checks:")
for a in (2, 5, 12):
    b = int(ctx.inv_table[a])
    print(f"  {a}^-1 = {b}   since {a}*{b} = {a * b} = {(a * b) % q} mod {q}")

print("\nsquare roots (canonical = smaller of the pair):")
for a in range(q):
    r = sqrt_mod(ctx, a)
    tag = f"sqrt = {r}" if r is not None else "nonsquare"
    print(f"  a = {a:2d}  eta = {int(ctx.eta_table[a]):+d}  {tag}")

print("\nadditive characters e(j/q) sit on the unit circle:")
for j in (0, 1, 6):
    z = complex(ctx.char_table[j])
    print(f"  e({j}/{q}) = {z.real:+.6f} {z.imag:+.6f}i   |.| = {abs(z):.12f}")

print("\ncharacter orthogonality: sum_j e(j*a/q) is q at a = 0, else 0")
j = np.arange(q)
for a in (0, 1, 7):
    total = ctx.char_table[j * a % q].sum()
    print(f"  a = {a}: sum = {total.real:+.2e} {total.imag:+.2e}i")
