#!/usr/bin/env python3
"""Reproduce the one-photon negativity threshold around eta = 0.5.

Synthesizes Fock-1 homodyne records at several detection efficiencies,
back-projects each, and reports the reconstructed origin value with its
bootstrap error bar.  Below eta = 0.5 the smoothed state is positive;
above it the origin goes significantly negative.
"""

import argparse
from pathlib import Path

import numpy as np

from ohtlab import detection, formats, radon, states


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fock1_negativity_out")
    ap.add_argument("--samples", type=int, default=500_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--etas", type=float, nargs="+", default=[0.45, 0.5, 0.55, 0.7])
    ap.add_argument("--bootstrap", type=int, default=100)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fock1 = states.make_state(states.StateSpec("fock", n=1, truncation_dim=6))
    sched = detection.PhaseSchedule("grid", d=64)
    rows = []
    for eta in args.etas:
        det = detection.DetectorModel(eta_q=eta)
        ds = detection.sample_quadratures(fock1, sched, det, args.samples, args.seed)
        table = radon.count_table(ds)
        w = radon.filtered_backprojection(table)
        i = int(np.argmin(np.abs(w.q_axis)))
        se = radon.bootstrap_backprojection(table, n_boot=args.bootstrap, seed=args.seed,
                                            pixels=[(i, i)])
        origin, err = float(w.values[i, i]), float(se.values[i, i])
        analytic = -eta * (2 * eta - 1) / np.pi
        rows.append({"eta": eta, "w_origin": origin, "stderr": err,
                     "z": origin / err, "analytic_smoothed": analytic})
        formats.write_wigner_csv(out / f"wigner_eta{eta:.2f}.csv", w)
        print(f"eta={eta:.2f}: W(0,0) = {origin:+.5f} ± {err:.5f} "
              f"(analytic {analytic:+.5f})")
    formats.write_json(out / "summary.json", {"runs": rows})
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
