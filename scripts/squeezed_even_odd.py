#!/usr/bin/env python3
"""Even-odd photon-number oscillation of squeezed vacuum.

Simulates a 128-phase homodyne run on squeezed vacuum, reconstructs the
density matrix with pattern functions, and writes the photon-number
distribution next to the analytic pair-production law.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from ohtlab import detection, formats, patterns, states


def analytic_pn(r, n_max):
    gammaln = np.vectorize(math.lgamma, otypes=[float])
    p = np.zeros(n_max + 1)
    k = np.arange((n_max // 2) + 1)
    logp = gammaln(2 * k + 1) - 2 * (k * np.log(2.0) + gammaln(k + 1)) \
        + 2 * k * np.log(np.tanh(abs(r))) - np.log(np.cosh(r))
    p[2 * k] = np.exp(logp)
    return p


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="squeezed_even_odd_out")
    ap.add_argument("--samples", type=int, default=500_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--r", type=float, default=0.5)
    ap.add_argument("--dim", type=int, default=8)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rho = states.make_state(states.StateSpec("squeezed_vacuum", r=args.r))
    ds = detection.sample_quadratures(
        rho, detection.PhaseSchedule("grid", d=128),
        detection.DetectorModel(), args.samples, args.seed)
    pf = patterns.build_pattern_functions(args.dim)
    rec, err = patterns.rho_from_quadratures(ds, pf)
    p = rec.populations()
    se = np.diag(err)
    formats.write_pn_csv(out / "pn.csv", p, se)
    formats.write_density_matrix(out / "rho.json", rec, errors=err)
    truth = analytic_pn(args.r, args.dim - 1)
    print(" n   p(n)      ±stderr    analytic")
    for n in range(args.dim):
        print(f"{n:2d}  {p[n]:+.5f}  {se[n]:.5f}   {truth[n]:.5f}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
