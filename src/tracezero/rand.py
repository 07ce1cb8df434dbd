"""Deterministic 64-bit PRNG used for all seeded instance generation.

The generator is splitmix64: state advances by the golden-ratio increment
0x9E3779B97F4A7C15 and the output is finalized with two xor-shift-multiply
rounds.  Uniform doubles take the top 53 bits; normals come from Box-Muller.
The sequence depends only on the seed, never on platform or library
versions, so command-line runs are reproducible byte for byte.
"""
from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream with uniform/normal helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via Box-Muller (caches the spare value)."""
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = 1.0 - self.uniform()  # in (0, 1], keeps log finite
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)


def random_complex_matrix(rng: SplitMix64, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    m = np.empty((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            m[i, j] = rng.normal() + 1j * rng.normal()
    return m


def random_hermitian(rng: SplitMix64, n: int) -> np.ndarray:
    m = random_complex_matrix(rng, n)
    return (m + m.conj().T) / 2.0


def random_trace_zero_hermitian(rng: SplitMix64, n: int) -> np.ndarray:
    h = random_hermitian(rng, n)
    h -= (np.trace(h).real / n if n else 0.0) * np.eye(n)  # n = 0: the empty matrix
    return h

