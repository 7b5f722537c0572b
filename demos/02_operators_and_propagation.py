"""Finite operators over a sampled space: support, propagation, and the
filtration law prop(T S) <= prop(T) + prop(S)."""

import numpy as np

from coarsek.generators import random_banded, rng_from
from coarsek.geometry import build_complex, discretize
from coarsek.operator import (
    FiniteOperator,
    opnorm,
    propagation,
    restrict,
    support,
)

space = discretize(build_complex([(0, 1), (1, 2)]), mesh=0.25)
rng = rng_from(7)

t = random_banded(space, 0.4, rng)
s = random_banded(space, 0.6, rng)
print(f"space with {len(space)} samples")
print(f"prop(T) = {propagation(t):.4f}   prop(S) = {propagation(s):.4f}")
print(f"prop(T S) = {propagation(t @ s):.4f}  "
      f"(bound {propagation(t) + propagation(s):.4f})")

print(f"\n||T|| = {opnorm(t):.4f}, support pairs: {support(t).sum()}")

# unitization elements keep their scalar part separate
one = FiniteOperator.identity(space, unitized=True)
shifted = t + 2.0 * one
print("scalar part of T + 2*1:", shifted.scalar[0])
print("propagation unchanged by the scalar:",
      propagation(shifted) == propagation(t))

# compressions never grow norms
half = np.arange(len(space)) < len(space) // 2
cut = restrict(t, half, ~half)
print(f"\n||chi_A T chi_B|| = {opnorm(cut):.4f} <= ||T|| = {opnorm(t):.4f}")
