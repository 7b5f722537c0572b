"""Sampled operator paths with propagation-decay bookkeeping.

A path records operators at finitely many times starting at 1, up to a
horizon, together with its uniform-continuity modulus (the largest
consecutive norm gap).  The asymptotic condition "propagation tends to 0"
becomes: propagation drops below the requested bound by some sampled time
and stays there through the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controlled import step_norms
from .errors import DomainError, NoDecayError
from .operator import propagation


@dataclass
class PathOperator:
    """Operators sampled along [1, horizon] with recorded modulus."""

    times: np.ndarray
    values: list
    modulus: float = field(default=None)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.times) != len(self.values):
            raise DomainError("one operator per sampled time required")
        if not len(self.times) or self.times[0] != 1.0:
            raise DomainError("paths start at time 1")
        # each test is written so that NaN fails it
        if not (np.isfinite(self.times).all() and (np.diff(self.times) > 0).all()):
            raise DomainError("times must be finite and strictly increasing")
        measured = max(step_norms(self.values), default=0.0)
        if self.modulus is None:
            self.modulus = measured
        elif not (np.isfinite(self.modulus) and measured <= self.modulus + 1e-12):
            raise DomainError(
                f"recorded modulus {self.modulus} is not a finite bound on the "
                f"measured gap {measured}")

    def __len__(self):
        return len(self.values)

    @property
    def horizon(self):
        return float(self.times[-1])

    def time_index(self, t):
        hit = np.flatnonzero(np.isclose(self.times, t, rtol=0, atol=1e-12))
        if not hit.size:
            raise DomainError(f"time {t} is not sampled")
        return int(hit[0])


def eventual_propagation(path, r):
    """Earliest sampled time from which propagation stays below r.

    Raises when even the final sample is too spread out (no decay by the
    horizon)."""
    props = [propagation(v) for v in path.values]
    below = np.array([p < r for p in props])
    if not below[-1]:
        raise NoDecayError(
            f"propagation {props[-1]} at the horizon still >= {r}")
    # last index where the bound fails, then the next sampled time
    failing = np.flatnonzero(~below)
    start = int(failing[-1]) + 1 if failing.size else 0
    return float(path.times[start])


def trim(path, n_time):
    """Shift the path to start at a sampled time, re-indexed to begin at 1."""
    i = path.time_index(n_time)
    times = path.times[i:] - path.times[i] + 1.0
    return PathOperator(times, list(path.values[i:]), path.modulus)


def evaluate(path, t, interpolate=False):
    """The operator at a sampled time, or the linear blend between the two
    neighbors when interpolation is enabled."""
    try:
        return path.values[path.time_index(t)]
    except DomainError:
        if not interpolate:
            raise
    if not path.times[0] <= t <= path.times[-1]:
        raise DomainError(f"time {t} outside [1, {path.horizon}]")
    j = int(np.searchsorted(path.times, t))
    t0, t1 = path.times[j - 1], path.times[j]
    lam = (t - t0) / (t1 - t0)
    return (1 - lam) * path.values[j - 1] + lam * path.values[j]

