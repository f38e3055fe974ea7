"""The benchmark's workloads: configs made from a seed, the CLI steps that
run on them, and the closed-form check that each step's output must meet.

Each workload runs two or three CLI commands in order.  The benchmark
writes the configs; the program sees only those files.  Only the
program's seeds depend on the benchmark seed: the physical parameters stay
fixed, so every check below has an exact target.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: sizes chosen so one repetition of a workload takes about 5-6 s on a
#: 2-core machine, about 1.5 s of it spent importing the program
FOCK_SAMPLES = 60_000
FOCK_BOOTSTRAP = 16
FOCK_DIM = 12
RECORD_SAMPLES = 100_000
RECORD_BOOTSTRAP = 8
TWOMODE_SAMPLES = 40_000
ARRAY_PULSES = 12_000
CAL_PULSES = 200_000

# closed forms shared by configs and checks
RECORD_ALPHA = (1.5, 0.5)
RECORD_ETA = 0.8
RECORD_SIGMA_E = 200.0
LO_PHOTONS = 1e6            # the detector default, used by every config
TWOMODE_NBAR, TWOMODE_CORR = 1.0, 0.5
ARRAY_ALPHA = 2.0
CAL_GAIN, CAL_SIGMA_E = 1e6, 300.0


@dataclass
class Step:
    """One CLI command of a workload, run with the repetition directory as cwd."""

    command: str
    argv: list[str]
    out: str                 # artifact directory, relative to the repetition
    reads: list[str]         # files the command reads, relative to the repetition
    samples: int             # samples or pulses the command handles
    check: Callable[[Path, dict], list[str]]   # (artifact dir, file facts) -> misses


@dataclass
class Workload:
    name: str
    configs: dict[str, dict]  # file name under configs/ -> document
    steps: list[Step]


def derive_seed(seed: int, label: str) -> int:
    """Program seed for one config, a fixed function of the benchmark seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:4], "big")


def file_facts(directory: Path) -> dict[str, dict]:
    """sha256, size and line count of every file under an artifact directory."""
    facts = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        facts[path.relative_to(directory).as_posix()] = {
            "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "lines": data.count(b"\n")}
    return facts


def _near(misses: list, what: str, value, target: float, tol: float) -> None:
    if value is None or not abs(value - target) <= tol:
        misses.append(f"{what} = {value} misses {target:.6g} ± {tol:.3g}")


def _lines(misses: list, facts: dict, name: str, records: int) -> None:
    """A JSON Lines file holds one header plus one line per record."""
    got = facts.get(name, {}).get("lines")
    if got != records + 1:
        misses.append(f"{name} holds {got} lines, expected {records + 1}")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_simulate(n_samples: int):
    def check(out: Path, facts: dict) -> list[str]:
        misses = []
        _lines(misses, facts, "dataset.jsonl", n_samples)
        manifest = _read_json(out / "manifest.json")
        if manifest["files"].get("dataset.jsonl") != facts["dataset.jsonl"]["sha256"]:
            misses.append("manifest sha256 does not match dataset.jsonl")
        return misses
    return check


def check_fock1_reconstruct(out: Path, facts: dict) -> list[str]:
    """Fock |1>: p(1) = 1, every other p(n) = 0, and W(0, 0) < 0 at 3 sigma."""
    rep = _read_json(out / "report.json")
    misses = []
    pops, errs = rep["pattern"]["populations"], rep["pattern"]["population_stderr"]
    for n, (p, se) in enumerate(zip(pops, errs)):
        _near(misses, f"p({n})", p, 1.0 if n == 1 else 0.0, 4 * se)
    if len(pops) != FOCK_DIM:
        misses.append(f"{len(pops)} populations, expected {FOCK_DIM}")
    if rep["radon"]["bootstrap"]["origin_negative_3sigma"] is not True:
        misses.append("W(0,0) is not negative at 3 sigma")
    return misses


def electronic_sigma(sigma_e: float, eta: float, lo_photons: float) -> float:
    """Electronic noise in quadrature units: σ_e·√2 / (η·√(2·N_LO))."""
    return sigma_e * math.sqrt(2.0) / (eta * math.sqrt(2.0 * lo_photons))


def record_mean_n() -> float:
    """Detected <q²> − 1/2 of the lossy, noisy coherent record."""
    a2 = RECORD_ALPHA[0] ** 2 + RECORD_ALPHA[1] ** 2
    sig_q = electronic_sigma(RECORD_SIGMA_E, RECORD_ETA, LO_PHOTONS)
    return a2 + (1.0 / RECORD_ETA - 1.0) / 2.0 + sig_q**2


def check_record_moments(out: Path, facts: dict) -> list[str]:
    rep = _read_json(out / "moments.json")
    misses = []
    _near(misses, "mean_n", rep["mean_n"], record_mean_n(), 4 * rep["mean_n_stderr"])
    return misses


def wigner_peak(path: Path):
    """(q, p, grid step) of the largest value in a long-format Wigner CSV."""
    with open(path, newline="") as f:
        rows = csv.reader(f)
        next(rows)
        qs, best = set(), None
        for q, p, w in rows:
            qs.add(q)
            w = float(w)
            if best is None or w > best[0]:
                best = (w, float(q), float(p))
    axis = sorted(float(q) for q in qs)
    return best[1], best[2], axis[1] - axis[0]


def check_record_reconstruct(out: Path, facts: dict) -> list[str]:
    """Coherent α: the Wigner peak sits at (√2·Re α, √2·Im α); raw integral 1."""
    rep = _read_json(out / "report.json")
    misses = []
    q, p, step = wigner_peak(out / "wigner.csv")
    _near(misses, "peak q", q, math.sqrt(2.0) * RECORD_ALPHA[0], 2 * step + 1e-9)
    _near(misses, "peak p", p, math.sqrt(2.0) * RECORD_ALPHA[1], 2 * step + 1e-9)
    _near(misses, "raw_integral", rep["radon"]["raw_integral"], 1.0, 0.02)
    return misses


def check_twomode(out: Path, facts: dict) -> list[str]:
    """Correlated thermal modes: g² = 1 + corr·(1 + 1/n̄)."""
    rep = _read_json(out / "twomode_report.json")
    misses = []
    for i in range(3):
        _lines(misses, facts, f"dual_alpha{i}.jsonl", TWOMODE_SAMPLES)
    _near(misses, "g2", rep["g2"], 1.0 + TWOMODE_CORR * (1.0 + 1.0 / TWOMODE_NBAR),
          4 * rep["g2_stderr"])
    return misses


def check_array(out: Path, facts: dict) -> list[str]:
    """Coherent α in the planted mode: |α|² photons."""
    rep = _read_json(out / "array_report.json")
    misses = []
    _lines(misses, facts, "frames.jsonl", ARRAY_PULSES)
    _near(misses, "photon_estimate", rep["photon_estimate"], ARRAY_ALPHA**2,
          0.1 * ARRAY_ALPHA**2)
    return misses


def check_calibrate(out: Path, facts: dict) -> list[str]:
    rep = _read_json(out / "calibration.json")
    misses = []
    _near(misses, "gain_estimate", rep["gain_estimate"], CAL_GAIN, 0.05 * CAL_GAIN)
    _near(misses, "sigma_e_estimate", rep["sigma_e_estimate"], CAL_SIGMA_E, 0.05 * CAL_SIGMA_E)
    return misses


def _simulate_step(n_samples: int) -> Step:
    return Step("simulate", ["simulate", "--config", "../configs/simulate.json", "--out", "sim"],
                "sim", ["../configs/simulate.json"], n_samples, check_simulate(n_samples))


def fock1_tomo(seed: int) -> Workload:
    cfg = {"state": {"kind": "fock", "n": 1}, "detector": {"eta_q": 1.0},
           "schedule": {"kind": "grid", "d": 64}, "n_samples": FOCK_SAMPLES,
           "seed": derive_seed(seed, "fock1_tomo/simulate")}
    return Workload("fock1_tomo", {"simulate.json": cfg}, [
        _simulate_step(FOCK_SAMPLES),
        Step("reconstruct", ["reconstruct", "--input", "sim/dataset.jsonl", "--method", "both",
                             "--dim", str(FOCK_DIM), "--bootstrap", str(FOCK_BOOTSTRAP),
                             "--out", "rec"],
             "rec", ["sim/dataset.jsonl"], FOCK_SAMPLES, check_fock1_reconstruct),
    ])


def random_record(seed: int) -> Workload:
    cfg = {"state": {"kind": "coherent", "alpha": list(RECORD_ALPHA)},
           "detector": {"eta_q": RECORD_ETA, "sigma_e": RECORD_SIGMA_E},
           "schedule": {"kind": "uniform_random"}, "n_samples": RECORD_SAMPLES,
           "seed": derive_seed(seed, "random_record/simulate")}
    return Workload("random_record", {"simulate.json": cfg}, [
        _simulate_step(RECORD_SAMPLES),
        Step("moments", ["moments", "--input", "sim/dataset.jsonl", "--out", "mom"],
             "mom", ["sim/dataset.jsonl"], RECORD_SAMPLES, check_record_moments),
        Step("reconstruct", ["reconstruct", "--input", "sim/dataset.jsonl", "--method", "radon",
                             "--bootstrap", str(RECORD_BOOTSTRAP), "--out", "rec"],
             "rec", ["sim/dataset.jsonl"], RECORD_SAMPLES, check_record_reconstruct),
    ])


def detector_chain(seed: int) -> Workload:
    configs = {
        "twomode.json": {"source": {"kind": "correlated_thermal", "nbar": TWOMODE_NBAR,
                                    "corr": TWOMODE_CORR},
                         "detector": {"eta_q": 1.0}, "n_samples": TWOMODE_SAMPLES,
                         "seed": derive_seed(seed, "detector_chain/twomode")},
        "array.json": {"detector": {"eta_q": 0.9, "sigma_e": 2.0}, "n_pixels": 64,
                       "n_pulses": ARRAY_PULSES,
                       "modes": [{"shape": "ramp",
                                  "state": {"kind": "coherent", "alpha": ARRAY_ALPHA}}],
                       "seed": derive_seed(seed, "detector_chain/array")},
        "calibrate.json": {"detector": {"gain": CAL_GAIN, "sigma_e": CAL_SIGMA_E},
                           "lo_levels": [1e5, 3e5, 6e5, 1e6, 2e6],
                           "pulses_per_level": CAL_PULSES,
                           "seed": derive_seed(seed, "detector_chain/calibrate")},
    }
    steps = []
    for name, out, samples, check in (("twomode", "two", 3 * TWOMODE_SAMPLES, check_twomode),
                                      ("array", "arr", ARRAY_PULSES, check_array),
                                      ("calibrate", "cal", 5 * CAL_PULSES, check_calibrate)):
        path = f"../configs/{name}.json"
        steps.append(Step(name, [name, "--config", path, "--out", out], out, [path],
                          samples, check))
    return Workload("detector_chain", configs, steps)


WORKLOADS = {w.__name__: w for w in (fock1_tomo, random_record, detector_chain)}
