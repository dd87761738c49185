"""Reproducible noise streams for path simulation.

Every path owns an independent counter-based stream: path ``i`` of master seed
``s`` reads Gaussian increments from a Philox4x64-10 generator keyed by the
pair ``(s, i)``.  Within a path the stream is consumed step-major and
coordinate-minor, so the increment used at ``(step, coordinate)`` is a pure
function ``G(seed, path, step, coordinate)`` of those four integers: batches
may list their paths in any order, be cut into chunks of any size, or be
re-run path by path without changing a single draw.  Philox is the counter-based
generator of the Random123 family and passes the standard statistical
batteries (TestU01 SmallCrush/Crush/BigCrush).

Block sizes do not matter either: numpy's Gaussian sampling consumes the
underlying bit stream sequentially, so ``standard_normal(a)`` followed by
``standard_normal(b)`` equals one ``standard_normal(a + b)`` call split in
two.  The engine relies on this to draw increments in memory-bounded blocks.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError

_U64 = 2**64


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ValidationError("seed must be an integer")
    if not 0 <= int(seed) < _U64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


@functools.cache
def _path_key() -> type:
    """A seed sequence whose only state is a Philox key.

    ``Philox(key=...)`` first seeds a ``SeedSequence`` from OS entropy and then
    overwrites its key; Philox seeded with this type reads the key as its
    two-word state instead, with the same counter (0), so no entropy is drawn.
    The type is made on first use: importing ``numpy.random`` takes about 18 ms.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PathKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return PathKey


def path_generator(seed: int, path: int) -> np.random.Generator:
    """The Gaussian stream of one path: Philox keyed by (seed, path index)."""
    seed = check_seed(seed)
    if not 0 <= int(path) < _U64:
        raise ValidationError("path index must fit in an unsigned 64-bit integer")
    key = np.array([seed, int(path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(seed=_path_key()(key)))
