from dataclasses import replace

import numpy as np
import pytest

from ohtlab import temporal


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


class TestTimeFrequencyMap:
    def _chirped_pulse(self, a=6.0, c=0.3, w0=10.0, span=40.0, n=4096):
        t = np.linspace(-span, span, n, endpoint=False)
        phi = np.exp(-(t**2) / (2 * a**2)) * np.exp(-1j * (w0 * t + 0.5 * c * t**2))
        phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * (t[1] - t[0]))
        return temporal.TemporalSignal(t, phi, w0, 6.0 * c * a)

    def test_monochromatic_ridge(self):
        n = 4096
        t = np.linspace(-40, 40, n, endpoint=False)
        w0 = 9.0
        phi = np.exp(-1j * w0 * t)
        sig = temporal.TemporalSignal(t, phi / np.sqrt(np.sum(np.abs(phi) ** 2) * (t[1] - t[0])),
                                      w0, 0.5)
        gate = temporal.GateFunction("gaussian", sigma=3.0)
        om = np.linspace(6, 12, 61)
        tg = np.linspace(-5, 5, 5)
        m = temporal.time_frequency_map([sig], gate, om, tg)
        for j in range(tg.size):
            assert om[np.argmax(m[:, j])] == pytest.approx(w0, abs=0.1)
        assert np.all(m >= 0)

    def test_chirp_ridge_slope(self):
        # instantaneous-frequency oracle: for Gaussian envelope a and gate g,
        # the windowed centroid sits at t* = t_L a²/(a²+g²), so the measured
        # ridge slope is c·a²/(a²+g²)
        a, c, g = 6.0, 0.3, 2.0
        sig = self._chirped_pulse(a=a, c=c)
        gate = temporal.GateFunction("gaussian", sigma=g)
        om = np.linspace(6, 14, 161)
        tg = np.linspace(-6, 6, 13)
        m = temporal.time_frequency_map([sig], gate, om, tg)
        centroids = (om[:, None] * m).sum(axis=0) / m.sum(axis=0)
        slope = np.polyfit(tg, centroids, 1)[0]
        assert slope == pytest.approx(c * a**2 / (a**2 + g**2), abs=0.02)

    def test_parseval_column_sums(self):
        # Σ_ω N̄ Δω at fixed t equals 2π ∫ |h(t−t_L)|² |φ(t)|² dt exactly
        sig = self._chirped_pulse()
        gate = temporal.GateFunction("gaussian", sigma=2.0)
        t = sig.t_axis
        dt = sig.dt
        n = t.size
        om = 2 * np.pi * np.fft.fftfreq(n, d=dt)
        tg = np.array([-3.0, 0.0, 2.5])
        m = temporal.time_frequency_map([sig], gate, om, tg)
        dw = 2 * np.pi / (n * dt)
        for j, tl in enumerate(tg):
            lhs = m[:, j].sum() * dw
            rhs = 2 * np.pi * np.sum(gate.envelope(t - tl) ** 2 * np.abs(sig.phi) ** 2) * dt
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_time_frequency_uncertainty(self):
        # matched transform-limited pulse and gate: measured widths obey
        # Δt·Δω >= 1/2 within 5%
        a = 3.0
        sig = self._chirped_pulse(a=a, c=0.0, w0=10.0)
        gate = temporal.GateFunction("gaussian", sigma=a)
        om = np.linspace(8, 12, 201)
        tg = np.linspace(-10, 10, 81)
        m = temporal.time_frequency_map([sig], gate, om, tg)
        pt = m.sum(axis=0)
        pw = m.sum(axis=1)
        t_mean = (tg * pt).sum() / pt.sum()
        w_mean = (om * pw).sum() / pw.sum()
        dt_w = np.sqrt(((tg - t_mean) ** 2 * pt).sum() / pt.sum())
        dw_w = np.sqrt(((om - w_mean) ** 2 * pw).sum() / pw.sum())
        assert dt_w * dw_w >= 0.5 * 0.95

    def test_ensemble_averaging(self):
        sigs = [self._chirped_pulse(c=0.0), self._chirped_pulse(c=0.1)]
        gate = temporal.GateFunction("one_sided_exponential", gamma=0.8)
        om = np.linspace(8, 12, 21)
        tg = np.linspace(-4, 4, 5)
        m = temporal.time_frequency_map(sigs, gate, om, tg)
        m0 = temporal.time_frequency_map([sigs[0]], gate, om, tg)
        m1 = temporal.time_frequency_map([sigs[1]], gate, om, tg)
        assert np.allclose(m, 0.5 * (m0 + m1))


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
