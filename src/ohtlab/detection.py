"""Monte Carlo balanced-homodyne detection.

The measurement chain: an ideal quadrature value is drawn from the state's
Pr(q, θ), detection losses smear it with a Gaussian of variance
(1/η_eff − 1)/2 (η_eff = η_q·η_LS), electronic noise adds
σ_e·√2/(η_eff·√(2·N_LO)) in quadrature units (two channels combined), and a
balance imbalance b adds the offset b·η_q·√N_LO/(√2·η_eff): the steps of
`add_detection_noise`, for single-mode and dual-LO records.  The
count-space route (`detector_counts`) models the two photodiodes
explicitly for classical (coherent mean-field) signals, where independent
Poisson statistics are exact; `photodiode_counts` draws them in blocks of
rows, each block from its own stream, so memory is flat in the pulses.

Single-mode sampling, dual-LO two-mode records, array frames and both
reconstructions share one implementation of each step: `fold_phases`,
`phase_keys` (which phases count as one), `distinct` (how distinct values
are counted), `draw_state_quadratures`/`draw_fock_quadratures` (one
inverse-CDF draw, tabulated PHASE_BLOCK phases at a time: whatever the
number of phases, its pdf and CDF tables stay under 3 MB),
`add_detection_noise` and `photodiode_counts`.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._config import FromDict
from ._rng import stream
from .errors import ConfigError, CoverageError
from .states import DensityMatrix, check_pdf_floor, hermite_psi_all

FORMAT_VERSION = "ohtlab-quad-v1"

#: tabulation grid for inverse-CDF sampling
PDF_POINTS = 4096
PDF_SPAN = 8.0

#: continuous phase schedules are snapped to this many equispaced values so
#: per-phase pdf tables stay affordable; phase averages of harmonics below
#: this order are exact, and the recorded theta is the actual sampling phase
PHASE_SNAP = 1024

#: distinct phases the sampler tabulates and integrates at a time.  A block
#: has at most PHASE_BLOCK + 1 rows of PDF_POINTS: its float pdf table and
#: the CDF table its trapezoid areas are summed into in place (0.56 MB
#: each), and while pdf_table builds the next block's table, one complex
#: product (1.1 MB) beside it and the last block's two tables: under 3 MB
#: whatever the number of phases
PHASE_BLOCK = 16

#: counts photodiode_counts evaluates rates for and draws at a time, in
#: whole rows: 256 pulses of a 64-pixel array, 16384 of a single diode pair
COUNT_BLOCK = 16384

#: the largest mean numpy's Poisson draw accepts, as numpy computes it
POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)

#: folded phases that agree to this many decimals are one phase; the fold's
#: θ − π leaves a grid phase an ulp from its partner, far below this
PHASE_DECIMALS = 10


@dataclass(frozen=True)
class DetectorModel(FromDict):
    """Balanced-homodyne detector parameters."""

    eta_q: float = 1.0
    eta_ls: float = 1.0
    lo_mean_photons: float = 1e6
    sigma_e: float = 0.0
    gain: float = 1e6
    balance_imbalance: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta_q <= 1.0:
            raise ConfigError("eta_q must be in (0, 1]")
        if not 0.0 <= self.eta_ls <= 1.0:
            raise ConfigError("eta_ls must be in [0, 1]")
        if self.lo_mean_photons < 0 or self.sigma_e < 0:
            raise ConfigError("lo_mean_photons and sigma_e must be >= 0")
        if self.gain <= 0:
            raise ConfigError("gain must be positive")

    @property
    def eta_eff(self) -> float:
        return self.eta_q * self.eta_ls

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PhaseSchedule(FromDict):
    """LO phase program: equally spaced grid, uniform random, or linear sweep.
    Only a grid reads d and span; the other kinds refuse them."""

    kind: str
    d: int | None = None
    span: tuple[float, float] = (0.0, 2.0 * np.pi)

    KINDS = ("grid", "uniform_random", "swept_linear")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "grid":
            if self.d is None or self.d < 1:
                raise ConfigError("grid schedule needs d >= 1")
            ends = self.grid_phases(np.array([0, self.d - 1]))
            if ends.min() < 0 or ends.max() >= 2.0 * np.pi:
                raise ConfigError(f"grid span {list(self.span)} puts phases outside [0, 2π)")
        elif self.d is not None or tuple(self.span) != (0.0, 2.0 * np.pi):
            raise ConfigError(f"a {self.kind} schedule takes neither d nor span")

    def grid_phases(self, k=None) -> np.ndarray:
        lo, hi = self.span
        return lo + (hi - lo) * (np.arange(self.d) if k is None else k) / self.d

    def phases(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Per-sample θ values in [0, 2π), deterministic given the generator."""
        if self.kind == "grid":
            return np.resize(self.grid_phases(), n)
        snap = 2.0 * np.pi / PHASE_SNAP
        if self.kind == "uniform_random":
            theta = rng.random(n) * 2.0 * np.pi
        else:  # swept_linear
            theta = 2.0 * np.pi * np.arange(n) / n
        return np.floor(theta / snap) * snap

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.d is not None:
            d["d"] = self.d
        if tuple(self.span) != (0.0, 2.0 * np.pi):
            d["span"] = list(self.span)
        return d


@dataclass
class DatasetMeta:
    detector: DetectorModel
    schedule: PhaseSchedule
    seed: int
    source: dict | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class QuadratureDataset:
    """Measurement record: ordered (θ, q) samples plus detector metadata.

    A dual-LO record (`twomode`) also tags each pulse with its second LO
    phase ζ; its q is then the combined quadrature at the mixing angle
    meta.extra["alpha"].
    """

    thetas: np.ndarray
    qs: np.ndarray
    meta: DatasetMeta
    zetas: np.ndarray | None = None

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, float)
        self.qs = np.asarray(self.qs, float)
        if self.zetas is not None:
            self.zetas = np.asarray(self.zetas, float)
        if self.thetas.shape != self.qs.shape or (self.zetas is not None
                                                  and self.zetas.shape != self.qs.shape):
            raise ValueError("thetas, qs and zetas must have equal length")
        if self.thetas.size and (self.thetas.min() < 0 or self.thetas.max() >= 2 * np.pi):
            raise ValueError("phases must lie in [0, 2π)")

    def __len__(self):
        return self.qs.size


def harmonic_bands(rho: DensityMatrix, q_grid: np.ndarray) -> np.ndarray:
    """c_k(q) = Σ_μ ρ_{μ,μ+k} ψ_μ(q) ψ_{μ+k}(q) for k = 0 … dim − 1."""
    dim = rho.dim
    psi = hermite_psi_all(dim - 1, q_grid)
    bands = np.zeros((dim, q_grid.size), complex)
    for k in range(dim):
        mu = np.arange(dim - k)
        coeff = rho.elements[mu, mu + k]
        bands[k] = np.einsum("m,mq,mq->q", coeff, psi[mu], psi[mu + k])
    return bands


def pdf_table(rho: DensityMatrix, thetas: np.ndarray, q_grid: np.ndarray,
              bands: np.ndarray | None = None) -> np.ndarray:
    """Pr(q, θ) rows for each θ via the harmonic-band decomposition.

    Pr(q,θ) = c_0(q) + 2 Re Σ_{k≥1} e^{ikθ} c_k(q); cost is one
    harmonic_bands table (pass it as bands to tabulate phases block by
    block) plus a (n_θ × bands) × (bands × n_q) product.  Negatives are
    clipped to 0, or refused below states.PDF_FLOOR as quadrature_pdf does.
    """
    bands = harmonic_bands(rho, q_grid) if bands is None else bands
    phase = np.exp(1j * np.outer(thetas, np.arange(bands.shape[0])))
    table = 2.0 * np.real(phase[:, 1:] @ bands[1:])
    table += np.real(phase[:, :1] * bands[:1])   # addition commutes: c_0 second, same bits
    check_pdf_floor(table)
    return np.clip(table, 0.0, None, out=table)


def _inverse_cdf_draw(pdf_rows, q_grid: np.ndarray, group_idx: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Draw one quadrature per sample: sample i uses pdf row group_idx[i].

    pdf_rows is the row table or a function (lo, hi) -> rows lo … hi − 1.
    Rows are taken PHASE_BLOCK at a time, so one block's pdf and CDF tables
    are alive at once. One stable sort lines the samples up group by group,
    so each group is a contiguous slice of the order; the group indices are
    sorted in the smallest type that holds them, where numpy's stable sort
    is a radix sort up to 65,536 groups.
    """
    rows_of = pdf_rows if callable(pdf_rows) else lambda lo, hi: pdf_rows[lo:hi]
    dq = q_grid[1] - q_grid[0]
    out = np.empty(u.size, float)
    counts = np.bincount(group_idx)
    keys = group_idx.astype(np.min_scalar_type(counts.size - 1))
    slices = np.split(np.argsort(keys, kind="stable"), np.cumsum(counts)[:-1])
    # a lone last row joins the block before it: a one-row table goes through
    # BLAS matrix-vector code, which rounds differently from the full product
    edges = [*range(0, max(counts.size - 1, 1), PHASE_BLOCK), counts.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = rows_of(lo, hi)
        # the trapezoid areas (rows[:, 1:] + rows[:, :-1]) * 0.5 * dq and their
        # running sum, each step written in place into the CDF table
        cdf = np.zeros((hi - lo, q_grid.size))
        area = cdf[:, 1:]
        np.add(rows[:, 1:], rows[:, :-1], out=area)
        np.multiply(area, 0.5, out=area)
        np.multiply(area, dq, out=area)
        np.cumsum(area, axis=1, out=area)
        cdf /= cdf[:, -1:]
        for g in range(lo, hi):
            sel = slices[g]
            if sel.size:
                out[sel] = np.interp(u[sel], cdf[g - lo], q_grid)
    return out


def draw_state_quadratures(rho: DensityMatrix, thetas: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Ideal quadratures q_θ ~ Pr(q, θ) of a state, one per phase in thetas.

    The distinct phases are tabulated, integrated and drawn PHASE_BLOCK at a
    time from one harmonic_bands table, so the tables' memory is set by the
    block and the state's dimension, not by the number of distinct phases.
    """
    distinct, group = np.unique(thetas, return_inverse=True)
    q_grid = np.linspace(-PDF_SPAN, PDF_SPAN, PDF_POINTS)
    bands = harmonic_bands(rho, q_grid)
    return _inverse_cdf_draw(lambda lo, hi: pdf_table(rho, distinct[lo:hi], q_grid, bands),
                             q_grid, group, rng.random(thetas.size))


def draw_fock_quadratures(ns: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Quadratures of Fock states |n_i⟩: q_i ~ ψ_{n_i}(q)² (phase independent)."""
    levels, group = np.unique(ns, return_inverse=True)
    q_grid = np.linspace(-PDF_SPAN, PDF_SPAN, PDF_POINTS)
    psi = hermite_psi_all(int(levels.max(initial=0)), q_grid)
    return _inverse_cdf_draw(psi[levels] ** 2, q_grid, group, rng.random(ns.size))


def fold_phases(thetas: np.ndarray, qs: np.ndarray, lower: float = 0.0):
    """Map samples with θ in [lower, lower + 2π) onto [lower, lower + π).

    Uses Pr(q, θ + π) = Pr(−q, θ): a phase at or above lower + π moves down
    by π and its quadrature changes sign.
    """
    wrap = thetas >= lower + np.pi
    return np.where(wrap, thetas - np.pi, thetas), np.where(wrap, -qs, qs)


def phase_keys(thetas: np.ndarray) -> np.ndarray:
    """Phases rounded to PHASE_DECIMALS: samples with equal keys were taken
    at one phase, the rule every reconstruction counts distinct phases by."""
    return np.round(thetas, PHASE_DECIMALS)


def distinct(values) -> np.ndarray:
    """The sorted distinct values, found as np.unique's sort path finds them:
    numpy 2.4's plain np.unique imports numpy.ma (~18 ms in a fresh process)."""
    s = np.sort(np.ravel(values))
    return s[np.r_[True, s[1:] != s[:-1]]] if s.size else s


def add_detection_noise(qs: np.ndarray, det: DetectorModel, seed: int) -> np.ndarray:
    """Ideal quadratures as detected: η_eff loss smearing, electronic noise,
    then the balance-imbalance offset; warns of a weak LO.

    The electronic term maps σ_e to quadrature units with both channels
    combined, a shortcut valid while σ_e is well below the shot noise.
    """
    if det.lo_mean_photons < 1e4:
        warnings.warn("lo_mean_photons < 1e4: strong-LO Gaussian model is marginal")
    if det.eta_eff < 1.0:
        sig = np.sqrt((1.0 / det.eta_eff - 1.0) / 2.0)
        qs = qs + sig * stream(seed, "efficiency").standard_normal(qs.size)
    if det.sigma_e > 0:
        sig_e = det.sigma_e * np.sqrt(2.0) / (det.eta_eff * np.sqrt(2.0 * det.lo_mean_photons))
        qs = qs + sig_e * stream(seed, "electronic").standard_normal(qs.size)
    if det.balance_imbalance != 0.0:
        # leading-order effect of imperfect 50/50 splitting: the unsubtracted
        # LO leaves a DC offset on the scaled difference
        qs = qs + det.balance_imbalance * det.eta_q * np.sqrt(det.lo_mean_photons) \
            / (np.sqrt(2.0) * det.eta_eff)
    return qs


def check_sampling(det: DetectorModel, n_samples: int) -> None:
    """Raise ConfigError unless quadrature sampling can draw n_samples with det."""
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if det.eta_eff <= 0:
        raise ConfigError("eta_eff must be positive")
    if det.lo_mean_photons <= 0:
        raise ConfigError("quadrature sampling needs a nonzero LO")


def sample_quadratures(rho: DensityMatrix, sched: PhaseSchedule, det: DetectorModel,
                       n_samples: int, seed: int) -> QuadratureDataset:
    """Synthesize a balanced-homodyne measurement record from a state."""
    check_sampling(det, n_samples)
    thetas = sched.phases(n_samples, stream(seed, "theta"))
    qs = draw_state_quadratures(rho, thetas, stream(seed, "quadrature"))
    qs = add_detection_noise(qs, det, seed)
    meta = DatasetMeta(detector=det, schedule=sched, seed=seed,
                       source=rho.meta.get("spec"))
    return QuadratureDataset(thetas=thetas, qs=qs, meta=meta)


def detector_counts(q_ideal, det: DetectorModel, rng: np.random.Generator):
    """Raw photoelectron numbers (n1, n2) at the two diodes, one per pulse.

    Models a classical (mean-field) signal with quadrature displacement
    q_ideal: each diode sees the split LO plus the antisymmetric signal beat
    η_eff·|α_L|·q/√2, Poisson photostatistics, and rounded Gaussian
    electronic noise per channel.  The scaled difference
    n_−/(√2·η_eff·|α_L|) recovers q within the shot-noise spread; Poisson
    statistics make this chain exact for coherent signals.
    """
    q_ideal = np.asarray(q_ideal, float)
    lo_det = det.eta_q * det.lo_mean_photons

    def rates(lo, hi):   # per block, the whole-array arithmetic
        beat = det.eta_eff * np.sqrt(det.lo_mean_photons) * q_ideal[lo:hi] / np.sqrt(2.0)
        return (lo_det * (1.0 + det.balance_imbalance) / 2.0 + beat,
                lo_det * (1.0 - det.balance_imbalance) / 2.0 - beat)

    return photodiode_counts(rates, q_ideal.shape, det.sigma_e, rng)


def photodiode_counts(rates, shape: tuple, sigma_e: float, rng: np.random.Generator):
    """Photoelectron counts of two diodes, arrays of the given shape, where
    rates(lo, hi) gives their mean rates (mu1, mu2) for rows lo … hi − 1.

    Rows go a block of about COUNT_BLOCK counts at a time. Every block's
    rates are checked before any draw (ConfigError if one is negative or
    above POISSON_MAX) and staged in the memory their counts then
    overwrite. Block k draws from its own stream,
    `Philox(key).jumped(k)`, where key is one draw of two uint64 from rng:
    diode-1 Poisson, diode-2 Poisson, then rounded Gaussian electronic noise
    of std sigma_e on diode 1, then on diode 2. The blocks are drawn in
    order on the calling thread (numpy's Poisson and normal draws hold the
    GIL, so threads gain nothing), and beyond the count arrays only one
    block of temporaries lives.
    """
    rows = max(1, COUNT_BLOCK // int(np.prod(shape[1:])))
    blocks = [(lo, min(lo + rows, shape[0])) for lo in range(0, shape[0], rows)]
    staged = [np.empty(shape), np.empty(shape)]
    for lo, hi in blocks:
        mu = rates(lo, hi)
        if np.any(mu[0] < 0) or np.any(mu[1] < 0):
            raise ConfigError("negative mean photoelectron rate; LO too weak for this signal")
        if max(np.max(mu[0]), np.max(mu[1])) > POISSON_MAX:
            raise ConfigError(f"mean photoelectron rate above {POISSON_MAX:.4g}, the largest "
                              "a Poisson draw takes")
        staged[0][lo:hi], staged[1][lo:hi] = mu
    counts = [s.view(np.int64) for s in staged]
    key = rng.integers(0, 2**64, size=2, dtype=np.uint64)
    noise = np.empty((rows, *shape[1:])) if sigma_e > 0 else None
    for k, (lo, hi) in enumerate(blocks):
        # Philox(key).jumped(k), built directly: jumped() would first seed a
        # throwaway generator from OS entropy
        gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, k, 0]))
        for s, n in zip(staged, counts):
            n[lo:hi] = gen.poisson(s[lo:hi])
        for n in counts if sigma_e > 0 else []:
            e = gen.standard_normal(out=noise[:hi - lo])
            np.rint(np.multiply(e, sigma_e, out=e), out=e)
            np.add(n[lo:hi], e, out=n[lo:hi], casting="unsafe")
    return tuple(counts)


@dataclass
class CalibrationResult:
    gain_estimate: float
    sigma_e_estimate: float
    slope: float
    intercept: float
    intercept_stderr: float
    mean_v_plus: np.ndarray
    var_v_minus: np.ndarray
    nonlinearity_flag: bool
    reduced_residual: float


def calibration_curve(det: DetectorModel, lo_levels, pulses_per_level: int,
                      seed: int) -> CalibrationResult:
    """Shot-noise calibration: fit Var(V_−) = (1/g)·<V_+> + 2σ_e²/g².

    Simulates vacuum-signal voltage pairs V_i = N_i/g over several LO pulse
    energies and recovers gain and per-channel electronic noise from the
    straight-line fit; a reduced residual well above 1 flags deviation from
    shot-noise-limited response.
    """
    levels = np.asarray(lo_levels, float)
    if distinct(levels).size < 3 or levels.min() <= 0 or pulses_per_level < 2:
        raise ConfigError("need at least 3 distinct positive LO levels and 2 pulses per level")
    rng = stream(seed, "calibration")
    mean_vp = np.empty(levels.size)
    var_vm = np.empty(levels.size)
    for i, energy in enumerate(levels):
        level_det = replace(det, lo_mean_photons=float(energy))
        n1, n2 = detector_counts(np.zeros(pulses_per_level), level_det, rng)
        v1, v2 = n1 / det.gain, n2 / det.gain
        mean_vp[i] = np.mean(v1 + v2)
        var_vm[i] = np.var(v1 - v2, ddof=1)
    # weighted least squares: Var(sample variance) ~ 2 Var²/(n−1), so the
    # high-energy points carry much larger absolute scatter
    x, y = mean_vp, var_vm
    sigma_y = y * np.sqrt(2.0 / (pulses_per_level - 1))
    A = np.vstack([x, np.ones_like(x)]).T / sigma_y[:, None]
    b = y / sigma_y
    coeff, res, *_ = np.linalg.lstsq(A, b, rcond=None)
    slope, intercept = float(coeff[0]), float(coeff[1])
    fit = (np.vstack([x, np.ones_like(x)]).T) @ coeff
    cov = np.linalg.inv(A.T @ A)
    intercept_se = float(np.sqrt(cov[1, 1]))
    gain_est = 1.0 / slope
    sigma_e_est = gain_est * np.sqrt(max(intercept, 0.0) / 2.0)
    red = float(np.mean(((y - fit) / sigma_y) ** 2))
    return CalibrationResult(
        gain_estimate=gain_est, sigma_e_estimate=sigma_e_est,
        slope=slope, intercept=intercept, intercept_stderr=intercept_se,
        mean_v_plus=mean_vp, var_v_minus=var_vm,
        nonlinearity_flag=red > 5.0, reduced_residual=red,
    )


def gain_balancing_sim(n_tot: float, n_diff1: float, n_diff2: float) -> float:
    """Achievable gain-matching precision from the iterated swap procedure.

    With residual difference numbers n_diff1, n_diff2 in the two connection
    configurations and n_tot total photoelectrons, the two channel gains are
    equal to within (n_diff1 + n_diff2)/n_tot.
    """
    if n_tot <= 0:
        raise ValueError("n_tot must be positive")
    return (n_diff1 + n_diff2) / n_tot


def require_circle_span(sched: PhaseSchedule) -> None:
    """Raise CoverageError for a grid whose span is neither π nor 2π, over
    which even harmonics do not average out; other schedules cover 2π."""
    width = sched.span[1] - sched.span[0]
    if sched.kind == "grid" and min(abs(width - np.pi), abs(width - 2.0 * np.pi)) > 1e-9:
        raise CoverageError(f"grid span {list(sched.span)} covers neither π nor 2π; "
                            "its phase averages would be biased")


def require_full_coverage(ds: QuadratureDataset, *min_harmonics: int):
    """Raise CoverageError unless phase averages up to each trigonometric
    order given are unbiased for this dataset, checked in turn over one
    count of the phases: random and swept schedules cover the circle, a
    grid needs more than one phase, a span of π or 2π, and more phases than
    the order."""
    if ds.meta.schedule.kind != "grid":
        return
    d = distinct(ds.thetas).size
    if d == 1:
        raise CoverageError("fixed-phase dataset cannot be phase-averaged")
    require_circle_span(ds.meta.schedule)
    for min_harmonic in min_harmonics:
        if d <= min_harmonic:
            raise CoverageError(
                f"grid of {d} phases aliases harmonics up to order {min_harmonic}; "
                f"need more than {min_harmonic} equally spaced phases"
            )
