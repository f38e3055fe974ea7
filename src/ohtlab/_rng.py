"""Deterministic random-stream derivation.

One master seed drives a whole pipeline.  Every logical noise source
(phase draws, quadrature draws, per-diode shot noise, electronic noise, ...)
gets its own counter-based Philox stream keyed by ``(master_seed, label)``,
consumed in pulse order; work split into blocks draws them in order from
its source's stream.  No stream depends on another's consumption or on the
machine, so results are reproducible bit-for-bit.
"""

import hashlib

import numpy as np


def stream(master_seed: int, label: str) -> np.random.Generator:
    """Independent generator for one named noise source."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
