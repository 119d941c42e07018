"""Test-time oracle for the library's streams: numpy's own SeedSequence and
Philox, one stream at a time, with none of the library's batched hash."""

import numpy as np


def numpy_generator(stream) -> np.random.Generator:
    """The generator of ``stream`` (an RngStream), keyed by numpy alone."""
    seq = np.random.SeedSequence(entropy=stream.seed, spawn_key=stream.path)
    return np.random.Generator(np.random.Philox(seq))
