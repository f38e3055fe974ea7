from dataclasses import replace

import numpy as np
import pytest

from ohtlab import temporal
from ohtlab.errors import ConfigError


def bandlimited_signal(nu=12.0, B=2.0, fill=0.9, span=160.0, n=16384, chirp=8.0):
    """The `sample` command's exactly band-limited chirped envelope: the
    tones inside [ν − fill·B/2, ν + fill·B/2]."""
    return temporal.bandlimited_chirp(nu, B, fill, span, n, chirp)


@pytest.fixture(scope="module")
def chirp_signal():
    return bandlimited_signal()


def spectral_sampling(sig, gate, tau_grid):
    """Oracle of the shifted sum: the same discrete correlation as a product
    of zero-padded spectra, so the circular transform does not wrap."""
    t, dt, n = sig.t_axis, sig.dt, sig.t_axis.size
    shifts = np.rint(np.asarray(tau_grid, float) / dt).astype(int)
    g0 = replace(gate, delay=0.0).sampled(t)
    G = np.fft.fft(np.conj(g0[::-1]), 2 * n)   # correlation as convolution
    corr = np.fft.ifft(G * np.fft.fft(sig.phi, 2 * n)) * dt
    # corr[k] = Σ_j conj(g[j − (k − (n−1))]) φ[j] dt
    return corr[(n - 1) + shifts]


class TestLinearOpticalSampling:
    def test_paths_agree(self, chirp_signal):
        tau = chirp_signal.t_axis[::512][2:-2]
        for gate in (temporal.GateFunction("gaussian", omega_L=12.0, sigma=2.0),
                     temporal.GateFunction("one_sided_exponential", omega_L=12.0, gamma=0.5),
                     temporal.GateFunction("sinc_bandlimited", omega_L=12.0, bandwidth=2.0)):
            a = temporal.linear_optical_sampling(chirp_signal, gate, tau)
            b = spectral_sampling(chirp_signal, gate, tau)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a) + 1e-30)

    def test_delta_like_gate_reads_envelope(self, chirp_signal):
        # gate much shorter than signal features: output tracks φ_S(τ)
        gate = temporal.GateFunction("gaussian", omega_L=12.0, sigma=0.08)
        tau = chirp_signal.t_axis[::256]
        out = temporal.linear_optical_sampling(chirp_signal, gate, tau)
        truth = chirp_signal.phi[::256]
        scale = np.vdot(out, truth) / np.vdot(out, out)
        resid = np.abs(scale * out - truth)
        assert np.max(resid) < 0.05 * np.max(np.abs(truth))

    def test_disjoint_spectra_give_zero(self, chirp_signal):
        gate = temporal.GateFunction("sinc_bandlimited", omega_L=30.0, bandwidth=2.0)
        tau = np.array([0.0])
        out = temporal.linear_optical_sampling(chirp_signal, gate, tau)
        assert np.abs(out)[0] < 1e-10

    def test_coarse_grid_rejected(self):
        t = np.linspace(-50, 50, 128, endpoint=False)
        sig = temporal.TemporalSignal(t, np.exp(-(t**2)), 12.0, 2.0)
        gate = temporal.GateFunction("gaussian", omega_L=12.0, sigma=1.0)
        with pytest.raises(ValueError):
            temporal.linear_optical_sampling(sig, gate, np.array([0.0]))

    def test_off_raster_tau_rejected(self, chirp_signal):
        gate = temporal.GateFunction("gaussian", omega_L=12.0, sigma=1.0)
        with pytest.raises(ValueError):
            temporal.linear_optical_sampling(chirp_signal, gate,
                                             np.array([0.5 * chirp_signal.dt]))


class TestBandlimitedRecovery:
    def test_single_tone(self):
        nu, B = 10.0, 2.0
        n = 8192
        t = np.linspace(-160, 160, n, endpoint=False)
        dt = t[1] - t[0]
        omega = 2 * np.pi * np.fft.fftfreq(n, d=dt)
        k = np.argmin(np.abs(omega - nu))
        phi = np.exp(-1j * omega[k] * t)
        phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * dt)
        sig = temporal.TemporalSignal(t, phi, nu, B)
        tau = t[(np.abs(t) < 15)][::8]
        rec = temporal.bandlimited_exact_recovery(sig, B, nu, tau)
        truth = np.interp(tau, t, phi.real) + 1j * np.interp(tau, t, phi.imag)
        assert np.max(np.abs(rec - truth)) < 1e-3

    def test_chirp_inside_band(self, chirp_signal):
        t = chirp_signal.t_axis
        tau = t[(np.abs(t) < 30)][::16]
        rec = temporal.bandlimited_exact_recovery(chirp_signal, 2.0, 12.0, tau)
        truth = (np.interp(tau, t, chirp_signal.phi.real)
                 + 1j * np.interp(tau, t, chirp_signal.phi.imag))
        rel = np.sqrt(np.mean(np.abs(rec - truth) ** 2) / np.mean(np.abs(truth) ** 2))
        assert rel <= 1e-3

    def test_out_of_band_rejected(self):
        # energy-leak oracle: plant ~8% of the energy beyond the band edge
        base = bandlimited_signal()
        t = base.t_axis
        rogue = 0.3 * np.exp(-1j * (12.0 + 0.8 * 2.0) * t) * np.sqrt(
            np.mean(np.abs(base.phi) ** 2))
        leaked = temporal.TemporalSignal(t, base.phi + rogue, 12.0, 2.0)
        frac = leaked.band_energy_fraction_outside()
        assert frac > 0.05
        with pytest.raises(ValueError):
            leaked.assert_band_limited()
        with pytest.raises(ValueError):
            temporal.bandlimited_exact_recovery(leaked, 2.0, 12.0,
                                                t[np.abs(t) < 10][::64])

    def test_short_grid_rejected(self):
        sig = bandlimited_signal(span=60.0, n=8192)
        with pytest.raises(ValueError):
            temporal.bandlimited_exact_recovery(sig, 2.0, 12.0, np.array([0.0]))


class TestSpectrum:
    def test_parseval(self, chirp_signal):
        # ∫|φ|² dt = (1/2π) ∫|φ̃|² dω on the grid, for the unit-norm chirp
        omega, spec = chirp_signal.spectrum()
        dw = omega[1] - omega[0]
        assert np.sum(np.abs(spec) ** 2) * dw / (2 * np.pi) == pytest.approx(1.0, rel=1e-12)

    def test_tone_peaks_at_its_frequency(self):
        # φ̃(ω) = ∫ φ(t) e^{iωt} dt puts e^{−iνt} at ω = +ν
        t = np.linspace(-40, 40, 4096, endpoint=False)
        nu = 2 * np.pi * 117 / (t.size * (t[1] - t[0]))     # a grid frequency
        omega, spec = temporal.TemporalSignal(t, np.exp(-1j * nu * t), nu, 0.5).spectrum()
        assert omega[np.argmax(np.abs(spec))] == pytest.approx(nu, rel=1e-12)

    def test_chirp_spectrum_is_gaussian_with_quadratic_phase(self, chirp_signal):
        # bandlimited_chirp's tones: amplitude exp(−((ω−ν)/(0.3B))²), phase chirp·(ω−ν)²
        omega, spec = chirp_signal.spectrum()
        inside = np.abs(omega - 12.0) <= 0.9 * 2.0 / 2.0
        x = omega[inside] - 12.0
        amp, gauss = np.abs(spec[inside]), np.exp(-((x / 0.6) ** 2))
        assert np.allclose(amp / amp.max(), gauss / gauss.max(), rtol=0.0, atol=1e-9)
        coef = np.polyfit(x, np.unwrap(np.angle(spec[inside])), 2)
        assert coef[0] == pytest.approx(8.0, rel=1e-9)
        assert coef[1] == pytest.approx(0.0, abs=1e-7)

    def test_out_of_band_share_is_reported_exactly(self):
        # equal-power tones inside and 3B outside the band: half the energy is out
        t = np.linspace(-40, 40, 4096, endpoint=False)
        dw = 2 * np.pi / (t.size * (t[1] - t[0]))
        nu = 100 * dw
        phi = np.exp(-1j * nu * t) + np.exp(-1j * (nu + 3 * 2.0) * t)
        sig = temporal.TemporalSignal(t, phi, nu, 2.0)
        assert sig.band_energy_fraction_outside() == pytest.approx(0.5, abs=0.02)
        assert bandlimited_signal().band_energy_fraction_outside() < 1e-20

    def test_gaussian_gate_is_transform_limited(self):
        # a Gaussian gate meets Δt·Δω = 1/2, the time-frequency uncertainty floor
        t = np.linspace(-40, 40, 8192, endpoint=False)
        g = temporal.GateFunction("gaussian", sigma=2.0).sampled(t)
        omega, spec = temporal.TemporalSignal(t, g, 0.0, 1.0).spectrum()
        pt, pw = np.abs(g) ** 2, np.abs(spec) ** 2
        width_t = np.sqrt(np.sum(t**2 * pt) / pt.sum())
        width_w = np.sqrt(np.sum(omega**2 * pw) / pw.sum())
        assert width_t == pytest.approx(2.0 / np.sqrt(2), rel=1e-9)
        assert width_t * width_w == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"bandwidth": 0.0}, {"span": -1.0}, {"points": 1}, {"band_fill": 1e-6},
    ])
    def test_chirp_parameters_validated(self, kwargs):
        args = dict(nu=12.0, bandwidth=2.0, band_fill=0.9, span=160.0, points=1024, chirp=8.0)
        with pytest.raises(ConfigError):
            temporal.bandlimited_chirp(**{**args, **kwargs})


class TestTypes:
    def test_uniform_grid_required(self):
        t = np.array([0.0, 1.0, 2.5])
        with pytest.raises(ValueError):
            temporal.TemporalSignal(t, np.zeros(3, complex), 1.0, 1.0)

    def test_gate_kind_validated(self):
        with pytest.raises(ValueError):
            temporal.GateFunction("boxcar")

    def test_gate_normalization(self):
        t = np.linspace(-50, 50, 4096, endpoint=False)
        for gate in (temporal.GateFunction("gaussian", sigma=1.5),
                     temporal.GateFunction("one_sided_exponential", gamma=0.7),
                     temporal.GateFunction("sinc_bandlimited", bandwidth=3.0)):
            g = gate.sampled(t)
            assert np.sum(np.abs(g) ** 2) * (t[1] - t[0]) == pytest.approx(1.0, rel=1e-12)
