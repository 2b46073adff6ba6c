"""Counter-based RNG substreams keyed by integer tuples.

Every random draw in the package comes from a Philox generator seeded with a
documented key, so results are reproducible independent of draw order:

    substream(seed)                      -> one-off generator
    substream(seed, task, cls, code)     -> per-class data substream
                                            (code 0 train, 1 test, 2 class mean)
    substream(seed, stage, TRAIN_TAG)    -> shared head's training at a stage
    substream(seed, stage, EVAL_TAG)     -> a stage's test-stream order
    substream(seed, stage, REPLAY_TAG, cls) -> a class's replay picks
    substream(seed, 0, PROBE_TAG, task)  -> a task's probe fit (stage 0 is
                                            no stage, so no other key shares it)

Tasks and stages count from 1; the tags live in harness. Keys of up to four
parts that differ only by trailing zeros seed the same stream: at the default
layout (seed, 2, TRAIN_TAG) is also class 11's train-draw key.
"""

import numpy as np


def substream(*key: int) -> np.random.Generator:
    """Generator for the substream identified by a tuple of nonnegative ints."""
    for part in key:
        if part < 0:
            raise ValueError(f"substream key parts must be nonnegative, got {key}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
