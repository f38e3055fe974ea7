"""Deterministic random-stream derivation.

One master seed drives a whole pipeline.  Every logical noise source
(phase draws, quadrature draws, per-diode shot noise, electronic noise, ...)
gets its own counter-based Philox stream keyed by ``(master_seed, label)``,
consumed in pulse order.  Work that is split into blocks gives each block
a stream of its own, a fixed function of one draw from its source's stream
and the block's index (`detection.photodiode_counts`), so blocks may be
drawn in any order and on any number of workers.  Worker count or
evaluation order can never change any stream's output, so results are
reproducible bit-for-bit.
"""

import hashlib

import numpy as np


def stream(master_seed: int, label: str) -> np.random.Generator:
    """Independent generator for one named noise source."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
