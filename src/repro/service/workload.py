"""Request-mix generation: Zipfian region popularity.

The paper's amortization argument (Table 2 / Fig. 16) is about *repeated*
encounters; what a deployed chip actually sees is a popularity-skewed
stream — a few hot binaries dominate, a long tail of cold ones keeps
arriving.  The standard model for that skew is a Zipf distribution over
popularity rank: the r-th most popular region receives traffic
proportional to ``1 / r**s``.

:func:`zipfian_stream` turns a ranked kernel list into a deterministic
request stream (seeded, so benchmarks and CI replay the same mix), and
:func:`popularity_tier` classifies each kernel into the hot/warm/cold
tiers the service benchmark reports latency for.
"""

from __future__ import annotations

import random
from typing import Sequence

__all__ = ["zipf_weights", "zipfian_stream", "popularity_tier"]

#: The most popular ranks, the *hot* tier of :func:`popularity_tier`.
HOT_RANKS = 3


def zipf_weights(count: int, s: float = 1.1) -> list[float]:
    """Normalized Zipf(s) probabilities for popularity ranks 1..count."""
    if count < 1:
        raise ValueError("count must be positive")
    raw = [1.0 / (rank ** s) for rank in range(1, count + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def zipfian_stream(kernels: Sequence[str], count: int, s: float = 1.1,
                   seed: int = 0) -> list[str]:
    """A deterministic request stream over ``kernels``.

    Popularity rank is the list order: ``kernels[0]`` is the hottest
    region.  The same (kernels, count, s, seed) always produces the same
    stream, so hit-rate numbers are reproducible run to run.
    """
    weights = zipf_weights(len(kernels), s)
    rng = random.Random(seed)
    return rng.choices(list(kernels), weights=weights, k=count)


def popularity_tier(kernels: Sequence[str], name: str) -> str:
    """Classify one kernel of a ranked list as ``hot``/``warm``/``cold``.

    The top :data:`HOT_RANKS` kernels are the *hot* tier (resident in any
    reasonable cache), the next half of the list is *warm*, the tail is
    *cold*.
    """
    rank = list(kernels).index(name)
    if rank < HOT_RANKS:
        return "hot"
    if rank < max(HOT_RANKS, len(kernels) // 2):
        return "warm"
    return "cold"
