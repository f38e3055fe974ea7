"""Array-detector homodyne simulation and analysis.

Balanced array detection with a plane-wave LO records a per-pixel
difference count; projecting corrected frames onto any normalized real
software mode yields that mode's quadrature without a mode-overlap
efficiency penalty.  The phase-averaged pixel correlation matrix exposes
the dominant signal mode as its top eigenvector.  The unbalanced variant
measures spectral-plane counts and Fourier-transforms them into
simultaneous (q, p) pairs, i.e. samples of the Q function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._config import FromDict
from ._rng import stream
from .detection import (COUNT_BLOCK, DatasetMeta, DetectorModel, PhaseSchedule,
                        QuadratureDataset, photodiode_counts, require_circle_span)
from .errors import ConfigError, CoverageError, UnsupportedStateError
from .states import StateSpec

#: planted per-pixel balancing offsets reach up to this fraction of the LO level
IMBALANCE_SCALE = 0.01
#: pulses in the blocked-signal run that measures the vacuum offsets
N_CALIBRATION = 4000


@dataclass(frozen=True)
class PixelGrid(FromDict):
    """Uniform 1D pixel array; 2D sensors are handled flattened."""

    n_pixels: int = 64
    pixel_area: float = 1.0 / 64.0

    def __post_init__(self):
        if self.n_pixels < 2 or self.pixel_area <= 0:
            raise ConfigError("need at least 2 pixels of positive area")

    @property
    def array_area(self) -> float:
        return self.n_pixels * self.pixel_area

    @property
    def coordinates(self) -> np.ndarray:
        # pixel centers, symmetric about 0, spacing = pixel_area (1D width)
        return (np.arange(self.n_pixels) - (self.n_pixels - 1) / 2.0) * self.pixel_area


@dataclass
class ModeVector:
    """Real software mode on the pixel grid, normalized A_p·Σ w² = 1."""

    w: np.ndarray
    grid: PixelGrid

    def __post_init__(self):
        self.w = np.asarray(self.w)
        if np.iscomplexobj(self.w):
            if np.max(np.abs(self.w.imag)) > 0:
                raise ValueError("measured array modes must be real (constant phase)")
            self.w = self.w.real
        self.w = self.w.astype(float)
        norm = self.grid.pixel_area * np.sum(self.w**2)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"mode not normalized: A_p Σw² = {norm:.2e}")

    @classmethod
    def normalized(cls, values, grid: PixelGrid) -> "ModeVector":
        """The mode of this shape at unit norm; one value per pixel, not all zero."""
        v = np.asarray(values, float)
        if v.shape != (grid.n_pixels,) or not v.any():
            raise ConfigError(f"mode shape needs {grid.n_pixels} values, not all zero")
        return cls(w=v / np.sqrt(grid.pixel_area * np.sum(v**2)), grid=grid)


def uniform_mode(grid: PixelGrid) -> ModeVector:
    return ModeVector.normalized(np.ones(grid.n_pixels), grid)


def ramp_mode(grid: PixelGrid) -> ModeVector:
    return ModeVector.normalized(grid.coordinates, grid)


@dataclass
class ArrayFrameSet:
    """Per-pulse difference-count vectors with LO phase tags and the
    blocked-signal calibration offsets."""

    frames: np.ndarray
    thetas: np.ndarray
    vacuum_offsets: np.ndarray
    grid: PixelGrid
    detector: DetectorModel
    schedule: PhaseSchedule
    seed: int
    planted: list = field(default_factory=list)

    def corrected(self) -> np.ndarray:
        return self.frames - self.vacuum_offsets[None, :]


def _amplitude_draws(spec: StateSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-pulse classical amplitudes reproducing the state's photostatistics.

    Valid for states with a nonnegative P function: coherent (fixed
    amplitude) and thermal (circular complex Gaussian).  Other kinds have
    no classical-equivalent amplitude and are refused.
    """
    if spec.kind == "vacuum":
        return np.zeros(n, complex)
    if spec.kind == "coherent":
        return np.full(n, complex(spec.alpha))
    if spec.kind == "thermal":
        sigma = np.sqrt(spec.nbar / 2.0)
        return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    raise UnsupportedStateError(
        f"array simulation supports coherent/thermal/vacuum signals, not {spec.kind}"
    )


def simulate_array_frames(signal, det: DetectorModel, grid: PixelGrid,
                          sched: PhaseSchedule, n_pulses: int, seed: int) -> ArrayFrameSet:
    """Balanced array frames for planted signal modes.

    `signal` is a list of (ModeVector, StateSpec) pairs.  The LO is a
    plane-wave coherent state; per-pixel counts on the two arrays are
    independent Poisson draws around the interference means, which field
    and beat give a block of pulses at a time for
    `detection.photodiode_counts`, plus planted per-pixel balancing offsets
    (up to IMBALANCE_SCALE of the LO level) and electronic noise.  A
    companion blocked-signal run of N_CALIBRATION pulses measures the
    vacuum offsets.
    """
    if n_pulses < 1:
        raise ConfigError("n_pulses must be >= 1")
    per_pixel_lo = det.lo_mean_photons / (2.0 * grid.n_pixels)
    if per_pixel_lo < 1e3:
        raise ConfigError(
            f"per-pixel LO count {per_pixel_lo:.0f} < 1e3; the strong-LO pixel model needs more"
        )
    lo_photons = det.lo_mean_photons
    thetas = sched.phases(n_pulses, stream(seed, "array-theta"))
    base = det.eta_q * lo_photons / (2.0 * grid.n_pixels)
    beat_scale = det.eta_q * np.sqrt(lo_photons) * (grid.pixel_area / np.sqrt(grid.array_area)) * 2.0
    imb = IMBALANCE_SCALE * (2.0 * stream(seed, "pixel-imbalance").random(grid.n_pixels) - 1.0)

    modes = []
    for mv, spec in signal:
        if mv.grid.n_pixels != grid.n_pixels:
            raise ValueError("mode vector does not match the pixel grid")
        modes.append((mv.w, spec))
    overlaps = [(i, j, float(grid.pixel_area * np.dot(modes[i][0], modes[j][0])))
                for i in range(len(modes)) for j in range(i + 1, len(modes))]
    overlap_warned = [o for o in overlaps if abs(o[2]) > 1e-9]
    if overlap_warned:
        import warnings
        warnings.warn(f"planted modes not orthogonal: {overlap_warned}; projections will mix")

    def run(n, tag, theta_arr, run_modes):
        rng = stream(seed, tag)
        amps = [(_amplitude_draws(spec, n, stream(seed, f"{tag}-amp-{k}")), w)
                for k, (w, spec) in enumerate(run_modes)]

        def rates(lo, hi):
            field_j = np.zeros((hi - lo, grid.n_pixels), complex)
            for a, w in amps:
                field_j += a[lo:hi, None] * w[None, :]
            beat = beat_scale * np.real(field_j * np.exp(-1j * theta_arr[lo:hi])[:, None])
            return (base * (1.0 + imb)[None, :] + beat / 2.0,
                    base * np.ones(grid.n_pixels)[None, :] - beat / 2.0)

        n1, n2 = photodiode_counts(rates, (n, grid.n_pixels), det.sigma_e, rng)
        return np.subtract(n1, n2, out=n1)

    cal_thetas = PhaseSchedule("uniform_random").phases(N_CALIBRATION, stream(seed, "cal-theta"))
    offsets = run(N_CALIBRATION, "calibration", cal_thetas, []).mean(axis=0)
    frames = run(n_pulses, "frames", thetas, modes)
    planted = [({"kind": "mode", "values": mv.w.tolist()}, spec.to_dict()) for mv, spec in signal]
    return ArrayFrameSet(frames=frames, thetas=thetas, vacuum_offsets=offsets,
                         grid=grid, detector=det, schedule=sched, seed=seed,
                         planted=planted)


def project_mode_quadrature(frames: ArrayFrameSet, mode: ModeVector) -> QuadratureDataset:
    """Per-pulse quadrature of the chosen software mode:
    q_θ = (A_a/2)^{1/2} Σ_j ΔN_j w(x_j) / (η_q |α_L|).

    The 1/η_q rescale references the quadrature to the incident LO
    amplitude so vacuum projections carry variance 1/(2η_q); no mode-overlap
    factor appears; that is the point of array detection.
    """
    det = frames.detector
    scale = np.sqrt(frames.grid.array_area / 2.0) / (det.eta_q * np.sqrt(det.lo_mean_photons))
    qs = scale * frames.corrected() @ mode.w
    meta = DatasetMeta(
        detector=DetectorModel(eta_q=det.eta_q, eta_ls=1.0,
                               lo_mean_photons=det.lo_mean_photons, sigma_e=det.sigma_e,
                               gain=det.gain),
        schedule=frames.schedule, seed=frames.seed,
        extra={"projection": "array-mode"})
    return QuadratureDataset(thetas=frames.thetas, qs=qs, meta=meta)


def difference_correlation_matrix(frames: ArrayFrameSet) -> np.ndarray:
    """Phase-averaged pixel correlation matrix M_ij = ⟨ΔN_i ΔN_j⟩ of the
    corrected difference counts, summed over blocks of about COUNT_BLOCK
    counts, so no corrected copy of the whole frame set is made."""
    sched = frames.schedule
    if sched.kind == "grid" and sched.d < 4:
        raise CoverageError("correlation matrix needs uniform phase coverage over 2π")
    require_circle_span(sched)
    n, n_pixels = frames.frames.shape
    rows = max(1, COUNT_BLOCK // n_pixels)
    M = np.zeros((n_pixels, n_pixels))
    for lo in range(0, n, rows):
        c = frames.frames[lo:lo + rows] - frames.vacuum_offsets[None, :]
        M += c.T @ c
    return M / n


def optimal_mode(M: np.ndarray, det: DetectorModel, grid: PixelGrid):
    """Mode maximizing the detected photon number: the top eigenvector of M.

    Returns (ModeVector, photon-number estimate).  Ties within 1e-9 relative
    eigenvalue break deterministically toward the eigenvector whose largest
    |component| has the smallest pixel index; sign is fixed so that component
    is positive.  The photon estimate subtracts the full detection-noise
    floor, so a vacuum input reads 0:
    ⟨N̂⟩ = A_a/(2 η_q² N_LO) wᵀMw − 1/(2 η_q).
    """
    M = np.asarray(M, float)
    if np.max(np.abs(M - M.T)) > 1e-9 * max(1.0, np.max(np.abs(M))):
        raise ValueError("correlation matrix must be symmetric")
    evals, evecs = np.linalg.eigh(M)
    top = evals[-1]
    cand = np.nonzero(evals >= top - 1e-9 * abs(top))[0]
    best = None
    best_key = None
    for i in cand:
        v = evecs[:, i]
        key = int(np.argmax(np.abs(v)))
        if best_key is None or key < best_key:
            best_key = key
            best = v
    if best[best_key] < 0:
        best = -best
    w = ModeVector.normalized(best, grid)
    quad2 = grid.array_area / (2.0 * det.eta_q**2 * det.lo_mean_photons) * float(w.w @ M @ w.w)
    photons = quad2 - 1.0 / (2.0 * det.eta_q)
    return w, photons


@dataclass
class SpectralKRecords:
    """Per-pulse complex K_l records from unbalanced spectral detection."""

    l_values: np.ndarray
    K: np.ndarray
    lo_photons: float

    def quadrature_pairs(self, l: int):
        """Scaled (q_l, p_l) samples; vacuum gives unit variance per axis."""
        idx = int(np.nonzero(self.l_values == l)[0][0])
        scale = np.sqrt(2.0) / np.sqrt(self.lo_photons)
        k = self.K[:, idx]
        return scale * k.real, scale * k.imag


def unbalanced_spectral_sim(signal_modes, lo_amplitudes, window: int,
                            n_pulses: int, seed: int,
                            common_random_phase: bool = False) -> SpectralKRecords:
    """Single-array spectral detection of temporal modes by an ideal array.

    Temporal window k ∈ [−M, M] with the LO on k ∈ [−J, J] (amplitudes
    `lo_amplitudes`, length 2J+1) and signals on k ∈ (J, M].  Spectral-plane
    counts N_j are Poisson draws of the transformed intensities; the records
    K_l = Σ_j e^{−2πi l j/(2M+1)} N_j are kept for l ∈ (2J, M], where LO
    self-terms (the part balanced detection would subtract) cannot reach.
    `detection.photodiode_counts` draws N_j (one array, σ_e = 0)."""
    M = int(window)
    beta = np.asarray(lo_amplitudes, complex)
    if beta.size % 2 != 1:
        raise ValueError("lo_amplitudes must cover k in [-J, J] (odd length)")
    J = beta.size // 2
    L = 2 * M + 1
    k_axis = np.arange(-M, M + 1)
    lo_photons = float(np.sum(np.abs(beta) ** 2))

    specs = {}
    for k, spec in signal_modes:
        if not (J < k <= M):
            raise ValueError(f"signal mode index {k} outside (J, M] = ({J}, {M}]")
        specs[int(k)] = spec
    max_sig = max((s.nbar if s.kind == "thermal" else abs(s.alpha or 0) ** 2)
                  for _, s in signal_modes) if signal_modes else 0.0
    if max_sig > 0 and lo_photons < 1e3 * max_sig:
        raise ValueError(
            "LO too weak: quadratic signal terms are not negligible below a "
            "10³ photon-number dominance"
        )

    b = np.zeros((n_pulses, L), complex)
    b[:, (k_axis >= -J) & (k_axis <= J)] = beta[None, :]
    phases = (np.exp(2j * np.pi * stream(seed, "spectral-common").random(n_pulses))
              if common_random_phase else np.ones(n_pulses))
    for k, spec in specs.items():
        amps = _amplitude_draws(spec, n_pulses, stream(seed, f"spectral-amp-{k}"))
        b[:, k + M] = phases * amps

    # spectral amplitudes A_j = (1/√L) Σ_k e^{2πi j k/L} b_k
    j_axis = np.arange(-M, M + 1)
    F = np.exp(2j * np.pi * np.outer(j_axis, k_axis) / L) / np.sqrt(L)
    A = b @ F.T
    counts, = photodiode_counts(lambda lo, hi: (np.abs(A[lo:hi]) ** 2,), A.shape, 0.0,
                                stream(seed, "spectral-counts"))

    l_values = np.arange(2 * J + 1, M + 1)
    G = np.exp(-2j * np.pi * np.outer(j_axis, l_values) / L)
    K = counts @ G
    return SpectralKRecords(l_values=l_values, K=K, lo_photons=lo_photons)
