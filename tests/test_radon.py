import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gaussian_quadrature_variance
from ohtlab import detection, radon, states
from ohtlab.errors import CoverageError


def _dataset(rho, n, seed, d=64, det=None):
    det = det or detection.DetectorModel()
    return detection.sample_quadratures(
        rho, detection.PhaseSchedule("grid", d=d), det, n, seed)


class TestFilteredBackprojection:
    def test_vacuum_reconstruction(self, vacuum):
        ds = _dataset(vacuum, 200_000, seed=201)
        w = radon.filtered_backprojection(ds)
        Q, P = np.meshgrid(w.q_axis, w.p_axis, indexing="ij")
        truth = np.exp(-(Q**2) - P**2) / np.pi
        assert np.max(np.abs(w.values - truth)) <= 0.015
        assert w.integral() == pytest.approx(1.0, abs=1e-3)

    def test_consistency_loop_smoothed_fock1(self, fock1):
        # sample(ρ, η) -> FBP ≈ loss_smoothing(wigner(ρ), η)
        eta = 0.55
        ds = _dataset(fock1, 500_000, seed=202,
                      det=detection.DetectorModel(eta_q=eta))
        rec = radon.filtered_backprojection(ds)
        expect = radon.loss_smoothing(states.wigner_from_rho(fock1), eta)
        assert np.max(np.abs(rec.values - expect.values)) <= 0.02

    def test_linearity(self, vacuum, fock1):
        # FBP of a 50/50 sample mixture equals the average of the parts
        mix = states.DensityMatrix(
            dim=6, elements=0.5 * np.pad(vacuum.elements[:6, :6] if vacuum.dim >= 6
                                         else np.pad(vacuum.elements, ((0, 6 - vacuum.dim),) * 2),
                                         ((0, 0), (0, 0)))
            + 0.5 * fock1.elements[:6, :6])
        ds_mix = _dataset(mix, 200_000, seed=203)
        ds_a = _dataset(states.make_state(states.StateSpec("vacuum", truncation_dim=6)),
                        200_000, seed=204)
        ds_b = _dataset(fock1, 200_000, seed=205)
        w_mix = radon.filtered_backprojection(ds_mix)
        w_avg = 0.5 * (radon.filtered_backprojection(ds_a).values
                       + radon.filtered_backprojection(ds_b).values)
        assert np.max(np.abs(w_mix.values - w_avg)) < 0.02

    def test_empty_bins_rejected(self, vacuum):
        ds = _dataset(vacuum, 10_000, seed=206, d=8)   # 4 folded phases
        with pytest.raises(CoverageError):
            radon.filtered_backprojection(ds, radon.RadonConfig(n_phase_bins=32))

    def test_low_count_flag(self, vacuum):
        ds = _dataset(vacuum, 2_000, seed=207, d=64)
        w = radon.filtered_backprojection(ds, radon.RadonConfig(n_phase_bins=32))
        assert w.meta.get("low_count_warning")

    def test_folding_consistency(self, coherent1):
        # data over [0, 2π) and its manually folded copy reconstruct identically
        ds = _dataset(coherent1, 100_000, seed=208)
        theta_f, q_f = radon.fold_phases(ds.thetas, ds.qs)
        folded = detection.QuadratureDataset(thetas=theta_f, qs=q_f, meta=ds.meta)
        a = radon.filtered_backprojection(ds)
        b = radon.filtered_backprojection(folded)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            radon.RadonConfig(k_c=-1.0)
        with pytest.raises(ValueError):
            radon.RadonConfig(n_phase_bins=1)
        with pytest.raises(ValueError):
            radon.RadonConfig(kernel="hann")

    @given(st.floats(-np.pi, 3 * np.pi, exclude_max=True), st.floats(-8, 8),
           st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
    @settings(max_examples=50, deadline=None)
    def test_fold_is_idempotent(self, theta, q, lower):
        assume(lower <= theta < lower + 2 * np.pi - 1e-9)
        t1, q1 = detection.fold_phases(np.array([theta]), np.array([q]), lower=lower)
        t2, q2 = detection.fold_phases(t1, q1, lower=lower)
        assert lower - 1e-12 <= t1[0] < lower + np.pi + 1e-12
        assert t2[0] == t1[0] and q2[0] == q1[0]

    @pytest.mark.parametrize("n_phase_bins", [2, 32, 33])
    def test_histogram_fold_matches_reference(self, n_phase_bins):
        # kept copy of the fold-then-wrap steps _histogram_projections ran
        # inline before both moved to detection.fold_phases
        def reference(thetas, qs, dtheta):
            fold = thetas >= np.pi
            theta_f, q_f = np.where(fold, thetas - np.pi, thetas), np.where(fold, -qs, qs)
            wrap = theta_f >= np.pi - dtheta / 2
            return np.where(wrap, theta_f - np.pi, theta_f), np.where(wrap, -q_f, q_f)

        dtheta = np.pi / n_phase_bins
        edges = np.array([0.0, np.pi, np.pi - dtheta / 2, 2 * np.pi - dtheta / 2])
        near = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 7.0),
                               [np.nextafter(2 * np.pi, 0.0)]])
        rng = np.random.default_rng(n_phase_bins)
        thetas = np.concatenate([near, rng.random(5_000) * 2 * np.pi])
        thetas = thetas[(thetas >= 0) & (thetas < 2 * np.pi)]
        qs = rng.normal(0.0, 2.0, thetas.size)
        want = reference(thetas, qs, dtheta)
        got = detection.fold_phases(*detection.fold_phases(thetas, qs), lower=-dtheta / 2)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        cfg = radon.RadonConfig(n_phase_bins=n_phase_bins)
        for a, b in zip(radon._histogram_projections(thetas, qs, cfg),
                        radon._histogram_projections(*want, cfg)):
            assert np.array_equal(a, b)


class TestBootstrap:
    def test_stderr_scale(self, vacuum):
        # bootstrap σ at the origin should match the seed-to-seed scatter scale
        ds = _dataset(vacuum, 50_000, seed=209)
        se = radon.bootstrap_backprojection(ds, n_boot=30, seed=1)
        i = np.argmin(np.abs(se.q_axis))
        origins = []
        for s in range(12):
            w = radon.filtered_backprojection(_dataset(vacuum, 50_000, seed=300 + s))
            origins.append(w.values[i, i])
        scatter = np.std(origins)
        assert 0.4 * scatter < se.values[i, i] < 2.5 * scatter


class TestRampFilterCache:
    def test_fbp_matches_freshly_built_filter(self, coherent1):
        # the cached matrix gives the same bytes as building κ for this call
        ds = _dataset(coherent1, 20_000, seed=210)
        cfg = radon.RadonConfig()
        w = radon.filtered_backprojection(ds, cfg)
        radon.ramp_filter_matrix.cache_clear()
        fresh = radon.filtered_backprojection(ds, cfg)
        assert np.array_equal(w.values, fresh.values)

    def test_one_profile_per_config(self, vacuum, monkeypatch):
        ds = _dataset(vacuum, 5_000, seed=211)
        calls = []
        profile = radon.ramp_kernel_profile

        def counted(*args, **kwargs):
            calls.append(args)
            return profile(*args, **kwargs)

        monkeypatch.setattr(radon, "ramp_kernel_profile", counted)
        radon.ramp_filter_matrix.cache_clear()
        radon.filtered_backprojection(ds)
        radon.bootstrap_backprojection(ds, n_boot=5, seed=2)
        assert len(calls) == 1

    def test_cached_matrix_is_read_only(self):
        kappa = radon.ramp_filter_matrix(256, 16.0 / 256, 5.0, "ram-lak")
        assert not kappa.flags.writeable
        with pytest.raises(ValueError):
            kappa[0, 0] = 1.0

    def test_key_separates_cutoff_and_kernel(self):
        dq = 16.0 / 256
        base = radon.ramp_filter_matrix(256, dq, 5.0, "ram-lak")
        assert radon.ramp_filter_matrix(256, dq, 5.0, "ram-lak") is base
        assert not np.array_equal(radon.ramp_filter_matrix(256, dq, 4.0, "ram-lak"), base)
        assert not np.array_equal(
            radon.ramp_filter_matrix(256, dq, 5.0, "ram-lak-with-cosine-rolloff"), base)


class TestLossSmoothing:
    def test_near_unity_eta_is_identity(self, fock1):
        w = states.wigner_from_rho(fock1)
        out = radon.loss_smoothing(w, 0.999)
        assert np.max(np.abs(out.values - w.values)) <= 1e-3

    def test_vacuum_broadens_to_known_gaussian(self, vacuum):
        eta = 0.6
        w = states.wigner_from_rho(vacuum)
        out = radon.loss_smoothing(w, eta)
        var = (1.0 / eta - 1.0) / 2.0 + 0.5
        Q, P = np.meshgrid(out.q_axis, out.p_axis, indexing="ij")
        expect = np.exp(-(Q**2 + P**2) / (2 * var)) / (2 * np.pi * var)
        assert np.max(np.abs(out.values - expect)) < 1e-6

    def test_fock1_origin_matches_direct_convolution(self, fock1):
        # brute-force convolution oracle at the origin, same sampled kernel
        eta = 0.55
        w = states.wigner_from_rho(fock1)
        out = radon.loss_smoothing(w, eta)
        var = (1.0 / eta - 1.0) / 2.0
        Q, P = np.meshgrid(w.q_axis, w.p_axis, indexing="ij")
        kern = np.exp(-(Q**2 + P**2) / (2 * var))
        kern /= kern.sum() * w.dq * w.dp
        direct = np.sum(w.values * kern) * w.dq * w.dp  # value at (0, 0)
        i = np.argmin(np.abs(out.q_axis))
        assert out.values[i, i] == pytest.approx(direct, abs=1e-6)
        # analytic cross-check: smoothed Fock-1 origin value is −η(2η−1)/π
        assert out.values[i, i] == pytest.approx(-eta * (2 * eta - 1) / np.pi, abs=1e-4)

    def test_eta_bounds(self, vacuum):
        w = states.wigner_from_rho(vacuum)
        for eta in (0.0, 1.0, 1.3):
            with pytest.raises(ValueError):
                radon.loss_smoothing(w, eta)


class TestRadonForward:
    def test_vacuum_any_angle(self, vacuum):
        w = states.wigner_from_rho(vacuum)
        for theta in (0.0, 1.1, 2.2):
            pr = radon.radon_forward(w, theta)
            assert np.max(np.abs(pr - np.exp(-w.q_axis**2) / np.sqrt(np.pi))) < 1e-5

    def test_matches_quadrature_pdf(self, constructed_states):
        for rho in constructed_states.values():
            w = states.wigner_from_rho(rho)
            for theta in (0.0, np.pi / 7, np.pi / 2):
                pr = radon.radon_forward(w, theta)
                assert np.max(np.abs(pr - states.quadrature_pdf(rho, theta, w.q_axis))) < 1e-4

    def test_squeezed_variance_swap(self, squeezed05):
        w = states.wigner_from_rho(squeezed05)
        var = {}
        for theta in (0.0, np.pi / 2):
            pr = radon.radon_forward(w, theta)
            var[theta] = np.trapezoid(w.q_axis**2 * pr, w.q_axis)
        assert var[0.0] == pytest.approx(gaussian_quadrature_variance(0.5, 0.0), abs=1e-4)
        assert var[np.pi / 2] == pytest.approx(gaussian_quadrature_variance(0.5, np.pi / 2), abs=1e-4)
