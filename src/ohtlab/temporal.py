"""Time-domain LO gating: linear optical sampling and band-limited recovery.

Classical-amplitude demonstrations of what a gated balanced detector
measures: the windowed inner product ∫ f_L*(t − τ) φ_S(t) dt.  A gate whose
spectrum is flat across a band-limited signal's support recovers the signal
envelope exactly, with resolution set by the signal bandwidth rather than
the gate duration.  Frequencies are angular throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

#: sinc gates are truncated at this many main-lobe widths and tapered with a
#: raised cosine over the final 25%; the residual ringing stays inside the
#: 1e-3 relative-RMS recovery budget
SINC_TRUNCATION_LOBES = 40


@dataclass
class TemporalSignal:
    """Complex envelope on a uniform time grid with declared band limits."""

    t_axis: np.ndarray
    phi: np.ndarray
    nu: float
    bandwidth: float

    def __post_init__(self):
        self.t_axis = np.asarray(self.t_axis, float)
        self.phi = np.asarray(self.phi, complex)
        if self.t_axis.shape != self.phi.shape:
            raise ValueError("t_axis and phi must have the same shape")
        dt = np.diff(self.t_axis)
        if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
            raise ValueError("time grid must be uniform")

    @property
    def dt(self) -> float:
        return float(self.t_axis[1] - self.t_axis[0])

    def spectrum(self):
        """(ω axis, φ̃(ω)) with φ̃(ω) = ∫ φ(t) e^{iωt} dt."""
        n = self.t_axis.size
        omega = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dt)
        spec = np.fft.ifft(self.phi) * n * self.dt
        # ifft(x)*n = Σ x_k e^{+2πi jk/n}; anchor the phase at t_axis[0]
        spec = spec * np.exp(1j * omega * self.t_axis[0])
        return np.fft.fftshift(omega), np.fft.fftshift(spec)

    def band_energy_fraction_outside(self) -> float:
        omega, spec = self.spectrum()
        power = np.abs(spec) ** 2
        inside = (omega >= self.nu - self.bandwidth / 2) & (omega <= self.nu + self.bandwidth / 2)
        total = power.sum()
        return float(power[~inside].sum() / total) if total > 0 else 0.0

    def assert_band_limited(self, tol: float = 1e-10):
        frac = self.band_energy_fraction_outside()
        if frac > tol:
            raise ConfigError(f"signal not band-limited: {frac:.2e} of its energy is out of band")


def bandlimited_chirp(nu: float, bandwidth: float, band_fill: float, span: float, points: int,
                      chirp: float) -> TemporalSignal:
    """A unit-norm chirped envelope on `points` times over [−span, span),
    exactly band-limited: the sum of the grid's tones within band_fill·B/2
    of ν, each with Gaussian amplitude and quadratic spectral phase."""
    if min(bandwidth, span) <= 0 or points < 2:
        raise ConfigError("signal bandwidth and span must be positive and points at least 2")
    t = np.linspace(-span, span, points, endpoint=False)
    dt = t[1] - t[0]
    omega = 2 * np.pi * np.fft.fftfreq(points, d=dt)
    inside = np.abs(omega - nu) <= band_fill * bandwidth / 2.0
    if not inside.any():
        raise ConfigError(f"signal.band_fill {band_fill} leaves no grid frequency in the band")
    phi = np.zeros(points, complex)
    for w in omega[inside]:
        amp = np.exp(-(((w - nu) / (0.3 * bandwidth)) ** 2)) * np.exp(1j * chirp * (w - nu) ** 2)
        phi += amp * np.exp(-1j * w * t)
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * dt)
    return TemporalSignal(t, phi, nu, bandwidth)


@dataclass
class GateFunction:
    """LO temporal gate f_L(t) = e^{−iω_L t} h_L(t − delay), unit L² norm."""

    kind: str
    omega_L: float = 0.0
    delay: float = 0.0
    sigma: float = 1.0          # gaussian width
    bandwidth: float = 1.0      # sinc band
    gamma: float = 1.0          # one-sided exponential decay rate

    KINDS = ("gaussian", "sinc_bandlimited", "one_sided_exponential")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    def envelope(self, t: np.ndarray) -> np.ndarray:
        """Real gate envelope h_L(t) (peak at t = 0), before normalization."""
        t = np.asarray(t, float)
        if self.kind == "gaussian":
            return np.exp(-(t**2) / (2.0 * self.sigma**2))
        if self.kind == "one_sided_exponential":
            return np.where(t < 0, np.exp(self.gamma * t), 0.0)
        # sinc: flat spectrum over [−B/2, B/2], truncated and tapered
        B = self.bandwidth
        lobe = 2.0 * np.pi / B
        t_max = SINC_TRUNCATION_LOBES * lobe
        core = np.where(t == 0, B / 2.0, np.sin(B * t / 2.0) / np.where(t == 0, 1.0, t))
        taper = np.ones_like(t)
        ramp = np.abs(t) > 0.75 * t_max
        taper[ramp] = 0.5 * (1 + np.cos(np.pi * (np.abs(t[ramp]) - 0.75 * t_max) / (0.25 * t_max)))
        taper[np.abs(t) > t_max] = 0.0
        return core * taper

    def sampled(self, t: np.ndarray) -> np.ndarray:
        """f_L(t) on a grid, L²-normalized on that grid."""
        t = np.asarray(t, float)
        vals = self.envelope(t - self.delay) * np.exp(-1j * self.omega_L * t)
        dt = t[1] - t[0]
        norm = np.sqrt(np.sum(np.abs(vals) ** 2) * dt)
        if norm == 0:
            raise ValueError("gate vanishes on this grid")
        return vals / norm


def _check_resolution(sig: TemporalSignal, extra_bandwidth: float = 0.0):
    # need >= 8 samples per 1/B-scale oscillation of the fastest content
    omega_max = abs(sig.nu) + sig.bandwidth / 2.0 + extra_bandwidth
    if omega_max > 0 and sig.dt > 2.0 * np.pi / (8.0 * omega_max):
        raise ConfigError(
            f"time grid too coarse: dt = {sig.dt:.3g} but the signal reaches "
            f"angular frequency {omega_max:.3g}; refine below {2*np.pi/(8*omega_max):.3g}"
        )


def linear_optical_sampling(sig: TemporalSignal, gate: GateFunction, tau_grid) -> np.ndarray:
    """Windowed inner product S(τ) = ∫ f_L*(t − τ) φ_S(t) dt per delay, as a
    direct shifted sum.  Delays must sit on the signal's time raster.
    """
    _check_resolution(sig, extra_bandwidth=abs(gate.omega_L - sig.nu))
    tau_grid = np.asarray(tau_grid, float)
    t = sig.t_axis
    dt = sig.dt
    n = t.size
    shifts = tau_grid / dt
    if np.max(np.abs(shifts - np.rint(shifts))) > 1e-6:
        raise ValueError("tau values must be multiples of the grid spacing")
    shifts = np.rint(shifts).astype(int)

    g0 = replace(gate, delay=0.0).sampled(t)
    out = np.empty(tau_grid.size, complex)
    for i, s in enumerate(shifts):
        if s >= 0:
            out[i] = np.dot(np.conj(g0[: n - s]), sig.phi[s:]) * dt
        else:
            out[i] = np.dot(np.conj(g0[-s:]), sig.phi[: n + s]) * dt
    return out


def bandlimited_exact_recovery(sig: TemporalSignal, B: float, nu: float,
                               tau_grid) -> np.ndarray:
    """Recover a band-limited envelope exactly with a flat-spectrum gate.

    Uses the sinc gate whose spectrum is constant over [ν − B/2, ν + B/2];
    the sampled output equals φ_S(τ) up to the gate's in-band spectral
    amplitude, which is divided out.  Fails loudly on signals with
    out-of-band energy.
    """
    sig.assert_band_limited()
    gate = GateFunction(kind="sinc_bandlimited", omega_L=nu, bandwidth=B)
    tau_grid = np.asarray(tau_grid, float)
    gate_extent = SINC_TRUNCATION_LOBES * 2.0 * np.pi / B
    if (np.max(tau_grid) + gate_extent > sig.t_axis[-1]
            or np.min(tau_grid) - gate_extent < sig.t_axis[0]):
        raise ConfigError(
            "time grid too short: the truncated sinc gate extends "
            f"±{gate_extent:.1f} around each delay and would be clipped"
        )
    raw = linear_optical_sampling(sig, gate, tau_grid)
    t = sig.t_axis
    g = gate.sampled(t)
    spec_at_nu = np.sum(g * np.exp(1j * nu * t)) * sig.dt
    return raw / np.conj(spec_at_nu)
