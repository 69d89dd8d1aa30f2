"""Seeded corpus generators for the benchmark workloads.

At their default seeds the generators reproduce the corpora of
``tests/test_acceptance.py`` byte for byte: the 1 MiB block-repetitive
text of criteria 4 and 10, and the zipf-words pattern of criterion 9 (here
at a quarter of its size).  ``PINNED`` holds length and sha256 of each
default corpus; :func:`check_pinned` fails loudly if a generator drifts.
"""

from __future__ import annotations

import hashlib
import random

BLOCK_SEED = 2024
ZIPF_SEED = 123


def block_repetitive(seed: int = BLOCK_SEED, blocks: int = 64,
                     block_len: int = 256, draws: int = 4096) -> bytes:
    """``draws`` blocks drawn uniformly from a pool of random blocks."""
    rng = random.Random(seed)
    pool = [bytes(rng.randrange(256) for _ in range(block_len))
            for _ in range(blocks)]
    return b"".join(pool[rng.randrange(blocks)] for _ in range(draws))


def zipf_words_pattern(seed: int = ZIPF_SEED, size: int = 1 << 16) -> bytes:
    """Space-separated words from a 96-word vocabulary, Pareto-ranked.

    The vocabulary always comes from ZIPF_SEED and ``seed`` draws the words.
    The most frequent word takes about half of all draws, so a vocabulary
    drawn per seed would make the text's shape, and the work it causes,
    vary widely between seeds.  At ZIPF_SEED one random stream makes both,
    exactly as criterion 9 does.
    """
    rng = random.Random(ZIPF_SEED)
    vocab = [bytes(rng.randrange(97, 123) for _ in range(rng.randint(2, 9)))
             for _ in range(96)]
    if seed != ZIPF_SEED:
        rng = random.Random(seed)
    chunks = []
    total = 0
    while total < size:
        w = vocab[min(int(rng.paretovariate(1.1)) - 1, len(vocab) - 1)] + b" "
        chunks.append(w)
        total += len(w)
    return b"".join(chunks)[:size]


def zipf_periodic(seed: int = ZIPF_SEED, size: int = 1 << 16,
                  reps: int = 4) -> bytes:
    """The zipf-words pattern repeated ``reps`` times."""
    return zipf_words_pattern(seed, size) * reps


PINNED = {
    "block_repetitive": (1 << 20, "f93a334fd77fefbe2c9d633872c129474e5e99eb591f4abf54573b240737a380"),
    "zipf_periodic": (1 << 18, "3d2a209624e5f993c6d7279209cff24c5660609f417f73467e3a729a8adfcbe6"),
}


def check_pinned() -> None:
    """Raise if a default-seed corpus differs from its pinned length+sha256."""
    for name, (length, digest) in PINNED.items():
        data = globals()[name]()
        got = (len(data), hashlib.sha256(data).hexdigest())
        if got != (length, digest):
            raise AssertionError(f"corpus {name} drifted: expected "
                                 f"{(length, digest)}, got {got}")
