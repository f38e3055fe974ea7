"""Command-line pipelines: simulate → reconstruct → reports.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.  Every run is reproducible: (config, seed) fixes all artifacts
byte-for-byte.  Each subcommand takes only the flags it reads.  A config
is read into the dataclasses below: `_config` checks its keys and value
types, and the classes and the functions that use the values refuse
out-of-range ones with a ConfigError; `main` maps error types to exit
codes.  Artifacts are written by `formats` into a directory made only
once everything is computed, so a refused run writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import arrays, detection, formats, moments, patterns, radon, states, temporal, twomode
from ._config import FromDict
from .errors import (AliasingError, ConfigError, CoverageError, DataFormatError,
                     GramConditionError, NearVacuumError, OhtlabError, TruncationError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class Outputs(FromDict):
    dir: str = ""


@dataclass(frozen=True, kw_only=True)
class SeededConfig(FromDict):
    """The fields of every config but `sample`'s, besides its own.  A
    detector field not in DETECTOR_FIELDS must keep its default."""

    seed: int
    detector: detection.DetectorModel = detection.DetectorModel()
    outputs: Outputs = Outputs()

    #: the detector fields the command reads; simulate and twomode read every
    #: one but gain, which only calibrate reads
    DETECTOR_FIELDS = ("eta_q", "eta_ls", "lo_mean_photons", "sigma_e", "balance_imbalance")

    def __post_init__(self):
        default = detection.DetectorModel().to_dict()
        for name, value in self.detector.to_dict().items():
            if name not in self.DETECTOR_FIELDS and value != default[name]:
                raise ConfigError(f"this command does not read detector/{name}; leave it out")


@dataclass(frozen=True, kw_only=True)
class SimulateConfig(SeededConfig):
    state: states.StateSpec
    schedule: detection.PhaseSchedule
    n_samples: int


@dataclass(frozen=True, kw_only=True)
class TwoModeConfig(SeededConfig):
    source: twomode.NumberLaw
    n_samples: int


@dataclass(frozen=True)
class ArrayMode(FromDict):
    shape: str | list[float]
    state: states.StateSpec

    SHAPES = {"uniform": arrays.uniform_mode, "ramp": arrays.ramp_mode}

    def __post_init__(self):
        if isinstance(self.shape, str) and self.shape not in self.SHAPES:
            raise ConfigError(f"unknown mode shape {self.shape!r}")

    def vector(self, grid: arrays.PixelGrid) -> arrays.ModeVector:
        if isinstance(self.shape, str):
            return self.SHAPES[self.shape](grid)
        return arrays.ModeVector.normalized(self.shape, grid)


@dataclass(frozen=True, kw_only=True)
class ArrayConfig(SeededConfig):
    n_pulses: int
    n_pixels: int = 64
    pixel_area: float | None = None     # default: 1 / n_pixels
    schedule: detection.PhaseSchedule = detection.PhaseSchedule("uniform_random")
    modes: list[ArrayMode] = field(default_factory=list)

    DETECTOR_FIELDS = ("eta_q", "lo_mean_photons", "sigma_e")


@dataclass(frozen=True)
class SampleSignal(FromDict):
    nu: float
    bandwidth: float
    band_fill: float = 0.9
    span: float = 160.0
    points: int = 16384
    chirp: float = 8.0


@dataclass(frozen=True)
class SampleConfig(FromDict):
    signal: SampleSignal
    tau_span: float | None = None       # default: signal.span / 5
    tau_step_grid_units: int = 16
    outputs: Outputs = Outputs()


@dataclass(frozen=True, kw_only=True)
class CalibrateConfig(SeededConfig):
    lo_levels: list[float]
    pulses_per_level: int

    #: each level sets its own LO, and the vacuum signal leaves eta_ls no beat to scale
    DETECTOR_FIELDS = ("eta_q", "sigma_e", "gain", "balance_imbalance")


def load_config(path, cls):
    """The config file at path, as its raw JSON document and as cls."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(formats.decode_error(path)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return doc, cls.from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _outdir(args, outputs: Outputs = Outputs()) -> Path:
    """The output directory, made once a command has computed everything."""
    path = Path(args.out or outputs.dir or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_record(path):
    """The quadrature record at path, single-mode or dual; DataFormatError
    naming the file for a q that is not finite or a phase outside [0, 2π),
    NaN included, which `formats` reads back as written."""
    ds = formats.read_quadrature_dataset(path)
    if not np.isfinite(ds.qs).all():
        raise DataFormatError(f"{path}: quadratures must be finite numbers")
    for phases in (ds.thetas, ds.zetas):
        if phases is not None and not ((0 <= phases) & (phases < 2 * np.pi)).all():
            raise DataFormatError(f"{path}: phases must lie in [0, 2π)")
    return ds


def cmd_simulate(args) -> int:
    doc, cfg = load_config(args.config, SimulateConfig)
    rho = states.make_state(cfg.state)
    ds = detection.sample_quadratures(rho, cfg.schedule, cfg.detector, cfg.n_samples, cfg.seed)
    out = _outdir(args, cfg.outputs)
    ds_path = out / "dataset.jsonl"
    formats.write_quadrature_dataset(ds_path, ds)
    formats.write_manifest(out / "manifest.json", cfg.seed, doc, {"dataset.jsonl": ds_path})
    print(f"wrote {ds_path} ({cfg.n_samples} samples)")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    # flags are checked before the dataset is read; the pattern table is
    # built after the FBP so it is not held through the bootstrap
    radon.check_cutoff(args.k_c)
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise ConfigError("--bootstrap takes 0 (off) or at least 2 replicates")
    patterns.check_dim(args.dim)
    ds = _read_record(args.input)
    if ds.zetas is not None:
        raise DataFormatError("reconstruction expects a single-mode dataset")
    report = {"input": str(args.input), "n_samples": len(ds),
              "eta_eff": ds.meta.detector.eta_eff}
    w = rho = None
    if args.method in ("radon", "both"):
        table = radon.count_table(ds)
        w = radon.filtered_backprojection(table, args.k_c)
        i0 = int(np.argmin(np.abs(w.q_axis)))
        j0 = int(np.argmin(np.abs(w.p_axis)))
        origin = float(w.values[i0, j0])
        report["radon"] = {
            "k_c": args.k_c, "kernel": radon.KERNEL,
            "bin_counts": w.meta["bin_counts"],
            "raw_integral": w.meta["raw_integral"], "w_origin": origin,
        }
        if args.bootstrap:
            se = radon.bootstrap_backprojection(table, args.k_c, n_boot=args.bootstrap,
                                                seed=ds.meta.seed, pixels=[(i0, j0)])
            s0 = float(se.values[i0, j0])
            report["radon"]["bootstrap"] = {
                "n_boot": args.bootstrap,
                "w_origin_stderr": s0,
                "origin_negative_3sigma": bool(origin < -3.0 * s0),
            }
    if args.method in ("pattern", "both"):
        pf = patterns.build_pattern_functions(args.dim)
        rho, err = patterns.rho_from_quadratures(ds, pf)
        pops = rho.populations()
        report["pattern"] = {
            "dim": args.dim,
            "d_phases": rho.meta["d_phases"],
            "populations": [float(x) for x in pops],
            "population_stderr": [float(x) for x in np.diag(err)],
            "gram_condition_numbers": pf.condition_numbers,
        }
    out = _outdir(args)
    if w is not None:
        formats.write_wigner_csv(out / "wigner.csv", w)
    if rho is not None:
        formats.write_density_matrix(out / "rho.json", rho, errors=err)
        formats.write_pn_csv(out / "pn.csv", pops, np.diag(err))
    formats.write_json(out / "report.json", report)
    print(f"report: {out / 'report.json'}")
    return EXIT_OK


def cmd_moments(args) -> int:
    rep = moments.moment_report(_read_record(args.input))
    out = _outdir(args)
    formats.write_json(out / "moments.json", rep.to_dict())
    if args.format == "csv":
        rows = [("mean_n", rep.mean_n, rep.mean_n_stderr)]
        if rep.g2 is not None:
            rows.append(("g2", rep.g2, rep.g2_stderr))
        rows += [(f"factorial_{r}", v, se) for r, (v, se) in rep.factorial_moments.items()]
        formats.write_csv(out / "moments.csv", "quantity,value,stderr", *zip(*rows))
    print(formats.dumps_canonical(rep.to_dict()))
    return EXIT_OK


def cmd_twomode(args) -> int:
    doc, cfg = load_config(args.config, TwoModeConfig)
    rand = detection.PhaseSchedule("uniform_random")
    # run i draws at seed 3·seed + i, so no two configs' seeds share a run
    runs = [twomode.combined_quadrature_samples(cfg.source, alpha, cfg.detector, cfg.n_samples,
                                                3 * cfg.seed + i, rand, rand)
            for i, alpha in enumerate((0.0, np.pi / 4, np.pi / 2))]
    g2, se = twomode.two_time_g2(*runs)
    report = {"g2": g2, "g2_stderr": se, "source": doc["source"], "n_samples": cfg.n_samples}
    out = _outdir(args, cfg.outputs)
    for i, ds in enumerate(runs):
        formats.write_quadrature_dataset(out / f"dual_alpha{i}.jsonl", ds)
    formats.write_json(out / "twomode_report.json", report)
    print(formats.dumps_canonical(report))
    return EXIT_OK


def cmd_array(args) -> int:
    _, cfg = load_config(args.config, ArrayConfig)
    area = cfg.pixel_area if cfg.pixel_area is not None else 1.0 / cfg.n_pixels
    grid = arrays.PixelGrid(n_pixels=cfg.n_pixels, pixel_area=area)
    planted = [(m.vector(grid), m.state) for m in cfg.modes]
    frames = arrays.simulate_array_frames(planted, cfg.detector, grid, cfg.schedule,
                                          cfg.n_pulses, cfg.seed)
    M = arrays.difference_correlation_matrix(frames)
    w_opt, n_est = arrays.optimal_mode(M, cfg.detector, grid)
    report = {"photon_estimate": n_est, "n_pulses": cfg.n_pulses, "n_pixels": grid.n_pixels}
    out = _outdir(args, cfg.outputs)
    formats.write_array_frames(out / "frames.jsonl", frames)
    formats.write_csv(out / "optimal_mode.csv", "pixel,x,w", range(grid.n_pixels),
                      grid.coordinates, w_opt.w)
    formats.write_json(out / "array_report.json", report)
    print(formats.dumps_canonical(report))
    return EXIT_OK


def cmd_sample(args) -> int:
    _, cfg = load_config(args.config, SampleConfig)
    sc = cfg.signal
    sig = temporal.bandlimited_chirp(**asdict(sc))
    t, phi = sig.t_axis, sig.phi
    tau_span = cfg.tau_span if cfg.tau_span is not None else sc.span / 5
    if cfg.tau_step_grid_units < 1 or not np.any(np.abs(t) < tau_span):
        raise ConfigError("tau_step_grid_units must be at least 1 and tau_span hold a delay")
    tau = t[(t > -tau_span) & (t < tau_span)][::cfg.tau_step_grid_units]
    rec = temporal.bandlimited_exact_recovery(sig, sc.bandwidth, sc.nu, tau)
    truth = np.interp(tau, t, phi.real) + 1j * np.interp(tau, t, phi.imag)
    rel_rms = float(np.sqrt(np.mean(np.abs(rec - truth) ** 2) / np.mean(np.abs(truth) ** 2)))
    report = {"relative_rms_error": rel_rms, "bandwidth": sc.bandwidth, "band_fill": sc.band_fill}
    out = _outdir(args, cfg.outputs)
    formats.write_signal_csv(out / "signal.csv", t, phi)
    formats.write_signal_csv(out / "recovered.csv", tau, rec)
    formats.write_json(out / "sampling_report.json", report)
    print(formats.dumps_canonical(report))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _, cfg = load_config(args.config, CalibrateConfig)
    cal = detection.calibration_curve(cfg.detector, cfg.lo_levels, cfg.pulses_per_level,
                                      cfg.seed)
    report = {
        "gain_estimate": cal.gain_estimate,
        "sigma_e_estimate": cal.sigma_e_estimate,
        "intercept": cal.intercept,
        "intercept_stderr": cal.intercept_stderr,
        "nonlinearity_flag": cal.nonlinearity_flag,
        "reduced_residual": cal.reduced_residual,
        "table": {"mean_v_plus": cal.mean_v_plus.tolist(),
                  "var_v_minus": cal.var_v_minus.tolist()},
    }
    out = _outdir(args, cfg.outputs)
    formats.write_json(out / "calibration.json", report)
    print(formats.dumps_canonical(report))
    return EXIT_OK


def cmd_validate(args) -> int:
    issues = []
    path = Path(args.input)
    try:
        if not path.is_file():
            raise DataFormatError(f"{path}: no such file")
        if path.suffix == ".jsonl":
            with path.open() as f:
                head = formats.json_object(path, f.readline(), "header line")
            fmt = head.get("format")
            if fmt == formats.FORMAT_VERSION:
                ds = _read_record(path)
                var = float(np.var(ds.qs))
                if not (1e-3 < var < 1e3):
                    issues.append(f"sample variance {var:.3g} outside sanity bounds")
            elif fmt == formats.ARRAY_FORMAT:
                formats.read_array_frames(path)
            else:
                raise DataFormatError(f"{path}: unknown format tag {json.dumps(fmt)}")
        elif path.suffix == ".json":
            doc = formats.json_object(path, path.read_text(), "document")
            if doc.get("format") == formats.MANIFEST_FORMAT:
                if not isinstance(doc["files"], dict):
                    raise DataFormatError(f"{path}: manifest files is not a JSON object")
                for name, digest in doc["files"].items():
                    fpath = path.parent / name
                    if not fpath.exists():
                        issues.append(f"manifest file missing: {name}")
                    elif formats.sha256_file(fpath) != digest:
                        issues.append(f"checksum mismatch: {name}")
            elif "re" in doc and "im" in doc:
                formats.read_density_matrix(path)
            else:
                raise DataFormatError(f"{path}: unrecognized JSON document")
        else:
            raise DataFormatError(f"{path}: unknown artifact type")
    except UnicodeDecodeError as exc:
        raise DataFormatError(formats.decode_error(path)) from exc
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    report = {"input": str(path), "issues": issues, "ok": not issues}
    print(formats.dumps_canonical(report))
    if issues and not args.report:
        return EXIT_DATA
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ohtlab",
                                description="homodyne tomography laboratory pipelines")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, source, out=True):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument(source, required=True)
        if out:
            sp.add_argument("--out", default=None, help="output directory")
        sp.set_defaults(func=func)
        return sp

    command("simulate", cmd_simulate, "synthesize a quadrature dataset", "--config")

    sp = command("reconstruct", cmd_reconstruct, "invert a dataset to W and/or rho", "--input")
    sp.add_argument("--method", choices=["radon", "pattern", "both"], default="both")
    sp.add_argument("--dim", type=int, default=8, help="pattern reconstruction size")
    sp.add_argument("--k-c", type=float, default=5.0, dest="k_c")
    sp.add_argument("--bootstrap", type=int, default=0)

    sp = command("moments", cmd_moments, "photon statistics straight from a dataset", "--input")
    sp.add_argument("--format", choices=["csv", "json"], default="json")

    command("twomode", cmd_twomode, "dual-LO three-angle g2 pipeline", "--config")
    command("array", cmd_array, "array-detector frames and mode recovery", "--config")
    command("sample", cmd_sample, "band-limited linear optical sampling demo", "--config")
    command("calibrate", cmd_calibrate, "detector gain/noise calibration run", "--config")

    sp = command("validate", cmd_validate, "check an artifact file", "--input", out=False)
    sp.add_argument("--report", action="store_true",
                    help="list issues without a failing exit code")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AliasingError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        print("hint: a state holding at most ñ photons needs ñ+1 equally spaced "
              "LO phases; rerun the simulation with more phases or lower --dim",
              file=sys.stderr)
        return EXIT_DATA
    except (DataFormatError, CoverageError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (GramConditionError, TruncationError, NearVacuumError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OhtlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
