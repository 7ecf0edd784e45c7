"""Deterministic random number generation.

All randomness in the toolkit flows from one explicit 64-bit seed through
numpy's Philox counter-based generator. Independent sub-streams (weight
init vs. batch shuffling, one per k-means restart, per experiment section)
are derived with :func:`derive_seed`, which feeds ``[master, index]`` into
``numpy.random.SeedSequence``. The derivation is documented here so a
reimplementation can reproduce or diverge from it deliberately.
"""

import numpy as np

from .config import config_seed

# Fixed sub-stream indices for experiment sections (see cli module).
STREAM_SYNTHETIC = 1
STREAM_BUILDER = 2
STREAM_MODEL = 3
STREAM_SPLIT = 4


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox generator keyed by an explicit seed, typed by config_seed."""
    seed = config_seed(seed, "seed")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_seed(master: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for stream `index` under `master`,
    each typed by config_seed."""
    seq = np.random.SeedSequence([config_seed(master, "seed"),
                                  config_seed(index, "stream index")])
    return int(seq.generate_state(1, dtype=np.uint64)[0])
