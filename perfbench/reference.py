"""The benchmark's fixed reference computation.

A shared host runs the same code at a speed that drifts by tens of percent
over minutes.  Each command is timed right after this fixed computation,
in the same kind of forked child, and its time is also given in units of
the reference's time; a change of the program moves that ratio, a change
of the host's speed moves both and cancels.  The mix resembles what the
program and its imports do: array arithmetic and sorting with numpy, an
interpreter loop, JSON Lines formatted, written, read back and parsed,
fresh memory faulted in, and many small files written, read and removed.
"""

import json
import os
import time

import numpy as np

N_ARRAY = 1_000_000
N_LOOP = 500_000
N_LINES = 10_000
N_FRESH = 8_000_000      # float64s faulted in: 64 MB
N_FILES = 300


def run(path: str) -> float:
    """Run the reference once, writing scratch files next to `path`; seconds taken."""
    rng = np.random.default_rng(12345)
    blob = rng.bytes(4096)
    t0 = time.perf_counter()
    a = rng.standard_normal(N_ARRAY)
    np.sort(a)
    np.histogram(a, bins=256)
    np.fft.rfft(a)
    np.exp(-a * a).sum()
    b = rng.standard_normal((256, 512))
    (b @ b.T).sum()
    np.empty(N_FRESH).fill(1.0)
    s = 0
    for i in range(N_LOOP):
        s += i * i
    with open(path, "w") as f:
        for x in a[:N_LINES].tolist():
            f.write(json.dumps({"q": x, "theta": 0.5}) + "\n")
    with open(path) as f:
        total = sum(json.loads(line)["q"] for line in f)
    small = [f"{path}.{i}" for i in range(N_FILES)]
    for p in small:
        with open(p, "wb") as f:
            f.write(blob)
    read = 0
    for p in small:
        with open(p, "rb") as f:
            read += len(f.read())
        os.unlink(p)
    elapsed = time.perf_counter() - t0
    if not (abs(total - float(a[:N_LINES].sum())) < 1e-6 and read == N_FILES * len(blob)):
        raise RuntimeError("reference computation read back other data than it wrote")
    return elapsed
