"""Deterministic splitmix64 stream, reproducible across platforms."""

_MASK = (1 << 64) - 1


class SplitMix64:
    """The standard splitmix64 generator (Steele/Lea/Flood constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        return self.below(1 << 64)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n); n >= 1.  One splitmix64 step, inline:
        samplers draw millions of these."""
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) % n
