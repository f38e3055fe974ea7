#!/usr/bin/env python3
"""Array-detector mode optimization and the efficiency advantage.

Plants a coherent signal in a linear-ramp spatial mode, recovers the mode
from the pixel correlation matrix, and contrasts the recovered photon
number against a mode-mismatched single-detector measurement of the same
signal.
"""

import argparse
from pathlib import Path

import numpy as np

from ohtlab import arrays, detection, formats, moments, states


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="array_recovery_out")
    ap.add_argument("--pulses", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--nbar", type=float, default=5.0)
    ap.add_argument("--eta-q", type=float, default=0.8, dest="eta_q")
    ap.add_argument("--eta-ls", type=float, default=0.5, dest="eta_ls")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = arrays.PixelGrid()
    det = detection.DetectorModel(eta_q=args.eta_q, lo_mean_photons=1e6)
    planted = arrays.ramp_mode(grid)
    spec = states.StateSpec("coherent", alpha=np.sqrt(args.nbar))

    frames = arrays.simulate_array_frames(
        [(planted, spec)], det, grid,
        detection.PhaseSchedule("uniform_random"), args.pulses, args.seed)
    M = arrays.difference_correlation_matrix(frames)
    w_opt, n_opt = arrays.optimal_mode(M, det, grid)
    overlap = abs(grid.pixel_area * np.dot(w_opt.w, planted.w))

    n_array, _ = moments.mean_photon(arrays.project_mode_quadrature(frames, planted))

    # same physics through a single detector whose LO overlaps the signal
    # mode by eta_ls only; the analysis can rescale by eta_q but not by the
    # unknown overlap
    single = detection.sample_quadratures(
        states.make_state(spec), detection.PhaseSchedule("uniform_random"),
        detection.DetectorModel(eta_q=args.eta_q, eta_ls=args.eta_ls),
        20 * args.pulses, args.seed + 1)
    penalized = detection.QuadratureDataset(
        thetas=single.thetas, qs=single.qs * args.eta_ls, meta=single.meta)
    n_single, _ = moments.mean_photon(penalized)

    formats.write_csv(out / "optimal_mode.csv", "pixel,x,w_opt,w_planted", range(grid.n_pixels),
                      grid.coordinates, w_opt.w, planted.w)
    report = {
        "mode_overlap_recovered": overlap,
        "photons_array": n_array,
        "photons_array_eigenmode": n_opt,
        "photons_single_detector": n_single,
        "advantage_ratio": n_array / n_single,
        "planted_photons": args.nbar,
    }
    formats.write_json(out / "report.json", report)
    print(f"recovered mode overlap: {overlap:.4f}")
    print(f"array photons: {n_array:.2f}  (eigenmode estimate {n_opt:.2f})")
    print(f"single-detector photons at eta_ls={args.eta_ls}: {n_single:.2f}")
    print(f"advantage ratio: {n_array / n_single:.1f}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
