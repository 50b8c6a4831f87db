"""Deterministic, named random-number streams.

Every stochastic component (scale-campaign arrivals, placement, dirty
rates) draws from its own named stream so that results are reproducible
and adding randomness to one component never perturbs another.  Streams
are derived from a single root seed via SeedSequence spawning keyed by
the stream name.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngRegistry:
    """Factory of independent, deterministic RNG streams.

    Parameters
    ----------
    seed:
        Root seed of the whole simulation run.  Two registries with the
        same seed produce identical streams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            # crc32 gives a stable 32-bit key per name across runs/platforms.
            key = zlib.crc32(name.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, key]))
            self._streams[name] = gen
        return gen
