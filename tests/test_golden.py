"""Byte identity across commits: the sha256 of every artifact that the small
configs in tests/golden/ make, against a committed table.

Every command runs in one scratch directory, in the order of RUNS, with
relative paths, so a report that names its input reads the same wherever
the suite runs.  `manifest.json` records numpy's version, and numpy's
float formatting and random streams may differ between versions, so the
table is keyed by `numpy.__version__`; under a version with no entry the
test skips and names it.  A change that moves bytes on purpose rewrites
the table and says why:

    PYTHONPATH=src python tests/test_golden.py --write

adds or replaces the entry for the numpy the interpreter imports.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ohtlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = GOLDEN / "digests.json"
#: (output directory, argv before --out); a config name is a file in GOLDEN
RUNS = [(f"simulate_{kind}", ["simulate", "--config", f"simulate_{kind}.json"])
        for kind in ("vacuum", "fock", "coherent", "thermal", "squeezed_vacuum",
                     "squeezed_coherent")] + [
    ("reconstruct_fock", ["reconstruct", "--input", "simulate_fock/dataset.jsonl",
                          "--method", "both", "--dim", "4", "--bootstrap", "4"]),
    ("reconstruct_coherent", ["reconstruct", "--input", "simulate_coherent/dataset.jsonl",
                              "--method", "radon", "--bootstrap", "4"]),
    ("moments_fock", ["moments", "--input", "simulate_fock/dataset.jsonl"]),
    ("moments_coherent", ["moments", "--input", "simulate_coherent/dataset.jsonl",
                          "--format", "csv"]),
    ("twomode", ["twomode", "--config", "twomode.json"]),
    ("array", ["array", "--config", "array.json"]),
    ("calibrate", ["calibrate", "--config", "calibrate.json"]),
    ("sample", ["sample", "--config", "sample.json"]),
]


def artifact_digests(workdir) -> dict[str, str]:
    """Run RUNS in workdir and return the sha256 of each artifact, keyed by
    its path relative to workdir."""
    workdir = Path(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for out, argv in RUNS:
            argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", out])
            assert code == 0, f"{' '.join(argv)} exited {code}"
    finally:
        os.chdir(cwd)
    return {p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def test_artifacts_match_the_golden_table(tmp_path):
    table = json.loads(TABLE.read_text())
    if np.__version__ not in table:
        pytest.skip(f"no golden digests for numpy {np.__version__}")
    assert artifact_digests(tmp_path) == table[np.__version__]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        table[np.__version__] = artifact_digests(workdir)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table[np.__version__])} digests for numpy {np.__version__}")
