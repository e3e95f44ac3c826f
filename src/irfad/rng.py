"""Deterministic random-stream derivation.

All randomness in a run flows from one root seed. Independent streams are
derived by hashing a stream label into the 128-bit key of a Philox
counter-based generator: the high 64 bits of the key hold the root seed,
the low 64 bits the first 8 bytes of SHA-256(label). Philox is
counter-based, so draws are platform-independent and there is no global
RNG state to corrupt.
"""

import hashlib

import numpy as np

from .errors import ParameterError

SEED_LIMIT = 1 << 64  # root seeds are in [0, 2^64): the key's high 64 bits


def stream_key(seed: int, label: str) -> int:
    if not 0 <= seed < SEED_LIMIT:
        raise ParameterError(f"seed must be in [0, 2^64), got {seed}")
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    low = int.from_bytes(digest[:8], "little")
    return (seed << 64) | low


def make_rng(seed: int, label: str) -> np.random.Generator:
    """Generator for the stream `label` under root `seed`."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, label)))
