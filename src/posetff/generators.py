"""Seeded poset generation for the CLI's ``gen`` and ``bench`` commands.

All randomness flows through splitmix64 so identical configs reproduce
bit-identical instances on any platform.  Interval orders are read off
random integer intervals.  Random posets come from a permutation skeleton
(a linear extension) with forward pairs kept at a fixed rate, then closed;
k+k-free instances are rejection-sampled against the complete pattern
search.
"""

from __future__ import annotations

from .errors import GaveUp, ParamError
from .order import Poset, _check_k, build_poset, find_k_plus_k, interval_order_from_intervals

__all__ = [
    "SplitMix64",
    "gen_interval_order",
    "random_intervals",
    "gen_kk_free",
    "gen_random_poset",
]

_MASK64 = (1 << 64) - 1
KKFREE_DENSITY = 0.5
KKFREE_TRIES = 100


class SplitMix64:
    """The splitmix64 generator: 64-bit state, fixed multiplicative mixing."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ParamError("below() needs a positive bound")
        return self.next_u64() % n

    def chance(self, threshold: int) -> bool:
        """True with probability threshold / 2^64."""
        return self.next_u64() < threshold

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def permutation(self, n: int) -> list[int]:
        return self.shuffle(list(range(n)))


def _threshold(density: float) -> int:
    if not 0.0 <= density <= 1.0:
        raise ParamError("density must lie in [0, 1]")
    return min(_MASK64 + 1, int(density * (_MASK64 + 1)))


def random_intervals(seed: int, n: int) -> list[tuple[int, int]]:
    """n random closed integer intervals with ends in [0, 2n)."""
    if n < 0:
        raise ParamError("n must be non-negative")
    rng = SplitMix64(seed)
    intervals = []
    for _ in range(n):
        a = rng.below(2 * n)
        b = rng.below(2 * n)
        intervals.append((min(a, b), max(a, b)))
    return intervals


def gen_interval_order(seed: int, n: int) -> Poset:
    """The interval order of ``random_intervals(seed, n)`` (2+2-free by construction)."""
    return interval_order_from_intervals(random_intervals(seed, n))


def gen_random_poset(rng: SplitMix64, n: int, density: float) -> Poset:
    """Permutation skeleton + forward pairs at the given rate, closed."""
    thr = _threshold(density)
    perm = rng.permutation(n)
    pairs = []
    for s in range(n):
        for t in range(s + 1, n):
            if rng.chance(thr):
                pairs.append((perm[s], perm[t]))
    return build_poset(n, pairs)


def gen_kk_free(seed: int, n: int, k: int) -> Poset:
    """Rejection-sample random posets until the complete k+k search returns none.

    Candidates keep forward pairs at rate KKFREE_DENSITY; raises GaveUp after
    KKFREE_TRIES rejected candidates.
    """
    _check_k(k)
    rng = SplitMix64(seed)
    for _ in range(KKFREE_TRIES):
        p = gen_random_poset(rng, n, KKFREE_DENSITY)
        if find_k_plus_k(p, k) is None:
            return p
    raise GaveUp(f"no {k}+{k}-free instance within {KKFREE_TRIES} tries")

