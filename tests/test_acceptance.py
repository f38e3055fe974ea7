"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s`); a failure shows
up as an ordinary assertion error naming the criterion.  Statistical
criteria run at fixed seeds, so the whole suite is deterministic.
"""

import math

import numpy as np
import pytest

from conftest import variance_stderr
from oracles import skellam_difference_pdf
from ohtlab import arrays, detection, moments, patterns, radon, states, temporal, twomode
from ohtlab._rng import stream
from ohtlab.errors import AliasingError

DET_IDEAL = detection.DetectorModel()


def _report(num, detail):
    print(f"ACCEPTANCE {num}: PASS: {detail}")


@pytest.fixture(scope="module")
def pf13():
    return patterns.build_pattern_functions(13)


def test_acceptance_01_vacuum_end_to_end(vacuum):
    ds = detection.sample_quadratures(
        vacuum, detection.PhaseSchedule("grid", d=64), DET_IDEAL, 200_000, seed=1001)
    w = radon.filtered_backprojection(ds)
    Q, P = np.meshgrid(w.q_axis, w.p_axis, indexing="ij")
    err = np.max(np.abs(w.values - np.exp(-(Q**2) - P**2) / np.pi))
    assert err <= 0.015
    pf = patterns.build_pattern_functions(8)
    rho, _ = patterns.rho_from_quadratures(ds, pf)
    p00 = rho.elements[0, 0].real
    assert p00 >= 0.98
    _report(1, f"FBP max error {err:.4f} <= 0.015; pattern rho_00 = {p00:.4f} >= 0.98")


def test_acceptance_02_fock1_negativity_threshold(fock1):
    # eta_eff = 0.55: the origin stays negative at >= 3 sigma
    ds55 = detection.sample_quadratures(
        fock1, detection.PhaseSchedule("grid", d=64),
        detection.DetectorModel(eta_q=0.55), 500_000, seed=1002)
    w55 = radon.filtered_backprojection(ds55)
    se55 = radon.bootstrap_backprojection(ds55, n_boot=100, seed=1)
    i = int(np.argmin(np.abs(w55.q_axis)))
    origin = w55.values[i, i]
    z = -origin / se55.values[i, i]
    assert origin < 0 and z >= 3.0

    # eta_eff = 0.45: positive definite within noise, no point below -3 sigma
    # inside the data-supported disk.  (Outside the measured support the ramp
    # filter leaves a deterministic ~ −1/(2π²r²) tail with vanishing
    # statistical error, which no state-dependent test can survive as N→∞.)
    ds45 = detection.sample_quadratures(
        fock1, detection.PhaseSchedule("grid", d=64),
        detection.DetectorModel(eta_q=0.45), 500_000, seed=1003)
    w45 = radon.filtered_backprojection(ds45)
    se45 = radon.bootstrap_backprojection(ds45, n_boot=100, seed=2)
    Q, P = np.meshgrid(w45.q_axis, w45.p_axis, indexing="ij")
    support = np.hypot(Q, P) <= np.quantile(np.abs(ds45.qs), 0.999)
    floor = np.min((w45.values + 3.0 * se45.values)[support])
    assert floor >= 0.0
    _report(2, f"eta=0.55: W(0,0) = {origin:.4f} at {z:.1f} sigma < 0; "
               f"eta=0.45: min(W + 3se) = {floor:.5f} >= 0 on the support disk")


def test_acceptance_03_squeezed_even_odd(squeezed05):
    ds = detection.sample_quadratures(
        squeezed05, detection.PhaseSchedule("grid", d=128), DET_IDEAL,
        500_000, seed=1004)
    pf = patterns.build_pattern_functions(8)
    rho, err = patterns.rho_from_quadratures(ds, pf)
    p = rho.populations()
    se = np.diag(err)
    r = 0.5
    analytic = np.array([math.factorial(2 * k) / (2**k * math.factorial(k)) ** 2
                         * np.tanh(r) ** (2 * k) / np.cosh(r) for k in (0, 1)])
    assert p[1] <= 0.01 and p[3] <= 0.01
    assert abs(p[0] - analytic[0]) <= 3 * se[0]
    assert abs(p[2] - analytic[1]) <= 3 * se[2]
    _report(3, f"p(1) = {p[1]:.4f}, p(3) = {p[3]:.4f} <= 0.01; "
               f"p(0), p(2) within 3 sigma of {analytic.round(4)}")


def test_acceptance_04_coherent_wavefunction():
    alpha = np.sqrt(1.2) * np.exp(1j * np.pi / 5)
    rho_true = states.make_state(states.StateSpec("coherent", alpha=alpha))
    ds = detection.sample_quadratures(
        rho_true, detection.PhaseSchedule("grid", d=16), DET_IDEAL, 400_000, seed=1005)
    pf = patterns.build_pattern_functions(8)
    rho_rec, _ = patterns.rho_from_quadratures(ds, pf)
    normed = states.DensityMatrix(dim=8, elements=rho_rec.elements / rho_rec.trace)
    wf = states.wavefunction_from_rho(normed)   # purity-gated
    expect = np.pi**-0.25 * np.exp(-((wf.q_axis - np.sqrt(2) * alpha.real) ** 2) / 2)
    rms = np.sqrt(np.mean((np.abs(wf.amplitude) - expect) ** 2))
    assert rms <= 0.02

    ds_avg = detection.sample_quadratures(
        rho_true, detection.PhaseSchedule("uniform_random"), DET_IDEAL,
        200_000, seed=1006)
    mn, se = moments.mean_photon(ds_avg)
    assert abs(mn - 1.2) <= 3 * se
    _report(4, f"|psi| RMS error {rms:.4f} <= 0.02 (purity {normed.purity:.3f}); "
               f"mean photon {mn:.3f} ± {se:.3f} vs 1.2")


def test_acceptance_05_g2_estimators(coherent1, thermal1):
    rand = detection.PhaseSchedule("uniform_random")
    ds_c = detection.sample_quadratures(coherent1, rand, DET_IDEAL, 200_000, seed=1007)
    g2_c, _ = moments.g2_single(ds_c)
    assert abs(g2_c - 1.0) <= 0.05
    ds_t = detection.sample_quadratures(thermal1, rand, DET_IDEAL, 200_000, seed=1008)
    g2_t, _ = moments.g2_single(ds_t)
    assert abs(g2_t - 2.0) <= 0.10
    _report(5, f"coherent g2 = {g2_c:.3f} (1.00 ± 0.05); thermal g2 = {g2_t:.3f} (2.00 ± 0.10)")


def test_acceptance_06_pattern_biorthogonality(pf13):
    q = pf13.q_axis
    psi = states.hermite_psi_all(13, q)
    worst = 0.0
    for band in range(13):
        for n in range(13 - band):
            for nu in range(13 - band):
                val = np.trapezoid(pf13.values(n + band, n) * psi[nu + band] * psi[nu], q)
                worst = max(worst, abs(val - (1.0 if n == nu else 0.0)))
    assert worst <= 1e-6
    _report(6, f"band-overlap deviation {worst:.2e} <= 1e-6 for all indices <= 12")


def test_acceptance_07_phase_count_rule():
    amp = np.array([1.0, 0.6, 0.3, 0.2])
    amp /= np.linalg.norm(amp)
    rho = states.DensityMatrix(dim=4, elements=np.outer(amp, amp))
    pf = patterns.build_pattern_functions(4)
    half = lambda d: detection.PhaseSchedule("grid", d=d, span=(0.0, np.pi))
    ds4 = detection.sample_quadratures(rho, half(4), DET_IDEAL, 200_000, seed=1009)
    ds32 = detection.sample_quadratures(rho, half(32), DET_IDEAL, 200_000, seed=1010)
    r4, e4 = patterns.rho_from_quadratures(ds4, pf)
    r32, e32 = patterns.rho_from_quadratures(ds32, pf)
    assert (r4.meta["d_phases"], r32.meta["d_phases"]) == (4, 32)
    worst = np.max(np.abs(r4.elements - r32.elements) / np.sqrt(e4**2 + e32**2))
    assert worst < 3.0
    ds3 = detection.sample_quadratures(rho, half(3), DET_IDEAL, 10_000, seed=1011)
    with pytest.raises(AliasingError):
        patterns.rho_from_quadratures(ds3, pf)
    _report(7, f"d=4 vs d=32 agree (max {worst:.2f} combined sigma < 3); "
               f"d=3 request raises AliasingError")


def test_acceptance_08_skellam_vs_gaussian():
    det = detection.DetectorModel(lo_mean_photons=1e6)
    n_vals, pmf, mu1, mu2 = skellam_difference_pdf(0.0, 0.0, det)
    gauss = np.exp(-((n_vals - (mu1 - mu2)) ** 2) / (2 * (mu1 + mu2)))
    gauss /= np.sqrt(2 * np.pi * (mu1 + mu2))
    tv = 0.5 * np.abs(pmf - gauss).sum()
    assert tv <= 1e-3
    _report(8, f"Skellam vs Gaussian total variation {tv:.2e} <= 1e-3 at LO 1e6")


def test_acceptance_09_detector_calibration():
    det = detection.DetectorModel(gain=1e6, sigma_e=300.0)
    cal = detection.calibration_curve(det, [1e5, 3e5, 6e5, 1e6, 2e6], 250_000, seed=1)
    g_err = abs(cal.gain_estimate / 1e6 - 1)
    s_err = abs(cal.sigma_e_estimate / 300.0 - 1)
    assert g_err <= 0.01 and s_err <= 0.05
    bound = detection.gain_balancing_sim(1e6, 1e2, 1e2)
    assert bound == pytest.approx(2e-4)
    _report(9, f"gain recovered to {100*g_err:.2f}% (<=1%), sigma_e to {100*s_err:.1f}% (<=5%); "
               f"balancing bound 2e-4 = 1 part in 10^4 scale")


def test_acceptance_10_array_mode_recovery():
    grid = arrays.PixelGrid()
    eta_q = 0.8
    det = detection.DetectorModel(eta_q=eta_q, lo_mean_photons=1e6)
    rand = detection.PhaseSchedule("uniform_random")
    planted = arrays.ramp_mode(grid)
    nbar = 5.0
    frames = arrays.simulate_array_frames(
        [(planted, states.StateSpec("coherent", alpha=np.sqrt(nbar)))],
        det, grid, rand, 10_000, seed=1012)
    M = arrays.difference_correlation_matrix(frames)
    w_opt, _ = arrays.optimal_mode(M, det, grid)
    overlap = abs(grid.pixel_area * np.dot(w_opt.w, planted.w))
    assert overlap >= 0.99

    vac_frames = arrays.simulate_array_frames([], det, grid, rand, 10_000, seed=1013)
    third = arrays.ModeVector.normalized(np.cos(np.linspace(0, 3, grid.n_pixels)), grid)
    for mv in (arrays.uniform_mode(grid), arrays.ramp_mode(grid), third):
        ds = arrays.project_mode_quadrature(vac_frames, mv)
        var = ds.qs.var()
        expect = 1 / (2 * eta_q)
        assert abs(var - expect) <= 3 * variance_stderr(expect, len(ds))

    # efficiency claim: array vs mode-overlap-penalized single detector
    eta_ls = 0.5
    ds_arr = arrays.project_mode_quadrature(frames, planted)
    n_array = np.mean(ds_arr.qs**2) - 0.5
    single = detection.sample_quadratures(
        states.make_state(states.StateSpec("coherent", alpha=np.sqrt(nbar))),
        rand, detection.DetectorModel(eta_q=eta_q, eta_ls=eta_ls), 100_000, seed=1014)
    # without knowing eta_ls the analysis can only scale by eta_q, which
    # shrinks the record by the overlap factor
    penalized = detection.QuadratureDataset(
        thetas=single.thetas, qs=single.qs * eta_ls, meta=single.meta)
    n_single, _ = moments.mean_photon(penalized)
    ratio = n_array / n_single
    assert ratio >= 1.0 / eta_ls
    _report(10, f"planted-mode overlap {overlap:.4f} >= 0.99; vacuum projections at "
                f"1/(2 eta_q); photon ratio {ratio:.1f} >= {1/eta_ls:.0f}")


def test_acceptance_11_unbalanced_spectral_q():
    recs = arrays.unbalanced_spectral_sim([], np.array([1000.0 + 0j]), 32,
                                          30_000, seed=1015)
    q, p = recs.quadrature_pairs(5)
    for axis in (q, p):
        assert abs(axis.var() - 1.0) <= 3 * variance_stderr(1.0, axis.size)
    spec = states.StateSpec("coherent", alpha=np.sqrt(20.0))
    recs2 = arrays.unbalanced_spectral_sim(
        [(3, spec), (7, spec)], np.array([5000.0 + 0j]), 32, 20_000,
        seed=1016, common_random_phase=True)
    q3, _ = recs2.quadrature_pairs(3)
    q7, _ = recs2.quadrature_pairs(7)
    corr = np.corrcoef(q3, q7)[0, 1]
    assert corr >= 0.9
    _report(11, f"vacuum Q variance {q.var():.3f}, {p.var():.3f} (1 ± 3 sigma); "
                f"pair-quadrature correlation {corr:.3f} >= 0.9")


def test_acceptance_12_bandlimited_sampling():
    from test_temporal import bandlimited_signal

    sig = bandlimited_signal(nu=12.0, B=2.0, fill=0.9)
    t = sig.t_axis
    tau = t[np.abs(t) < 30][::16]
    rec = temporal.bandlimited_exact_recovery(sig, 2.0, 12.0, tau)
    truth = np.interp(tau, t, sig.phi.real) + 1j * np.interp(tau, t, sig.phi.imag)
    rel = float(np.sqrt(np.mean(np.abs(rec - truth) ** 2) / np.mean(np.abs(truth) ** 2)))
    assert rel <= 1e-3
    _report(12, f"0.9B chirp recovered with relative RMS {rel:.2e} <= 1e-3")


def test_acceptance_13_two_time_g2():
    rand = detection.PhaseSchedule("uniform_random")

    def runs(law, seed):
        st_ = twomode.TwoModeState("planted", law=law)
        return [twomode.combined_quadrature_samples(
            st_, a, DET_IDEAL, 400_000,
            seed + 31 * i, theta_schedule=rand, zeta_schedule=rand)
            for i, a in enumerate((0.0, np.pi / 4, np.pi / 2))]

    law_cor = twomode.correlated_thermal_law(1.0, 1.0)
    g2_cor, se_cor = twomode.two_time_g2(*runs(law_cor, 1017))
    # the photon numbers the α = π/4 run planted, drawn again from its stream
    n1, n2 = (n.astype(float) for n in law_cor(stream(1017 + 31, "numbers"), 400_000))
    oracle = np.mean(n1 * n2) / (np.mean(n1) * np.mean(n2))
    assert abs(g2_cor - oracle) <= 3 * se_cor

    g2_ind, _ = twomode.two_time_g2(*runs(twomode.correlated_thermal_law(1.0, 0.0), 3018))
    assert abs(g2_ind - 1.0) <= 0.05
    _report(13, f"correlated pair g2 = {g2_cor:.3f} vs planted oracle {oracle:.3f} "
                f"(within 3 sigma); independent pair g2 = {g2_ind:.3f} (1 ± 0.05)")


def test_acceptance_14_stderr_calibration():
    n_seeds = 100
    thermal = states.make_state(states.StateSpec("thermal", nbar=1.0))
    rand = detection.PhaseSchedule("uniform_random")

    mean_vals, mean_errs = [], []
    g2_vals, g2_errs = [], []
    for s in range(n_seeds):
        ds = detection.sample_quadratures(thermal, rand, DET_IDEAL, 5_000, 2000 + s)
        mn, mn_se = moments.mean_photon(ds)
        mean_vals.append(mn)
        mean_errs.append(mn_se)
        g2, g2_se = moments.g2_single(ds)
        g2_vals.append(g2)
        g2_errs.append(g2_se)
    r_mean = np.mean(mean_errs) / np.std(mean_vals)
    r_g2 = np.mean(g2_errs) / np.std(g2_vals)

    amp = np.array([1.0, 0.6, 0.3, 0.2])
    amp /= np.linalg.norm(amp)
    rho = states.DensityMatrix(dim=4, elements=np.outer(amp, amp))
    pf = patterns.build_pattern_functions(4)
    half = detection.PhaseSchedule("grid", d=8, span=(0.0, np.pi))
    vals, errs = [], []
    for s in range(n_seeds):
        ds = detection.sample_quadratures(rho, half, DET_IDEAL, 4_000, 2200 + s)
        r, e = patterns.rho_from_quadratures(ds, pf)
        vals.append(np.real(np.diag(r.elements)))
        errs.append(np.diag(e))
    vals = np.array(vals)
    errs = np.array(errs)
    r_rho = np.mean(errs, axis=0) / np.std(vals, axis=0)

    for name, r in (("mean_n", r_mean), ("g2", r_g2), *[(f"rho_{k}{k}", r_rho[k]) for k in range(4)]):
        assert 0.7 <= r <= 1.3, (name, r)
    _report(14, f"stderr/scatter ratios: mean_n {r_mean:.2f}, g2 {r_g2:.2f}, "
                f"rho_nn {np.round(r_rho, 2).tolist()} all within [0.7, 1.3]")


def test_acceptance_15_documented_nmin_discrepancy():
    nbar = 1e-3
    value = moments.n_min(nbar, nbar**2 + nbar)
    assert value == pytest.approx(2.52e5, rel=5e-3)
    # the source text quotes 750,000 measurements for this case, a factor-3
    # tension with the formula, recorded here rather than resolved
    quoted = 750_000
    assert not math.isclose(value, quoted, rel_tol=0.5)
    _report(15, f"formula value {value:.4g} ~ 2.52e5 asserted; quoted 750,000 "
                f"recorded as an open ~3x tension")
