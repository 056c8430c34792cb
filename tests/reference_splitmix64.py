"""The one-output-at-a-time SplitMix64 that `clockwork.testkit` replaced
with block draws, kept as the reference for the stream tests, the way
`reference_imp` is for the expression layer.

The class is kept as it was: each `next_u64` advances the one-word state
by the golden-gamma increment and finalizes it, and each draw helper
calls `next_u64` exactly once.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit generator with a one-word state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive range draw."""
        return lo + self.below(hi - lo + 1)

    def chance(self, p: float) -> bool:
        return self.next_u64() < int(p * 18446744073709551616.0)

    def choice(self, seq):
        return seq[self.below(len(seq))]
