import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import variance_stderr
from ohtlab import arrays, detection, states
from ohtlab.errors import UnsupportedStateError

GRID = arrays.PixelGrid()
RAND = detection.PhaseSchedule("uniform_random")
DET = detection.DetectorModel(eta_q=0.8, lo_mean_photons=1e6)


@pytest.fixture(scope="module")
def vacuum_frames():
    return arrays.simulate_array_frames([], DET, GRID, RAND, 10_000, seed=801)


@pytest.fixture(scope="module")
def ramp_coherent_frames():
    mode = arrays.ramp_mode(GRID)
    spec = states.StateSpec("coherent", alpha=np.sqrt(5.0))
    return arrays.simulate_array_frames([(mode, spec)], DET, GRID, RAND, 10_000, seed=802)


class TestFrames:
    def test_vacuum_corrected_mean_zero(self, vacuum_frames):
        c = vacuum_frames.corrected()
        n = c.shape[0]
        n_cal = 4000
        # offset calibration noise adds to the frame-mean scatter
        se = c.std(axis=0) * np.sqrt(1.0 / n + 1.0 / n_cal)
        assert np.max(np.abs(c.mean(axis=0)) / se) < 3.5

    def test_offsets_capture_planted_imbalance(self, vacuum_frames):
        # planted per-pixel offsets reach 1% of the per-pixel LO level
        base = DET.eta_q * DET.lo_mean_photons / (2 * GRID.n_pixels)
        assert np.max(np.abs(vacuum_frames.vacuum_offsets)) < 0.011 * base
        assert np.max(np.abs(vacuum_frames.vacuum_offsets)) > 1e-4 * base

    def test_pi_phase_flip_of_ramp_mode(self, ramp_coherent_frames):
        # single planted linear-ramp mode: frames averaged near θ and θ+π
        # slope in opposite directions across the array center
        fs = ramp_coherent_frames
        x = GRID.coordinates
        near0 = np.abs(np.mod(fs.thetas + 0.3, 2 * np.pi) - 0.3) < 0.3
        nearpi = np.abs(fs.thetas - np.pi) < 0.3
        slope0 = np.polyfit(x, fs.corrected()[near0].mean(axis=0), 1)[0]
        slope_pi = np.polyfit(x, fs.corrected()[nearpi].mean(axis=0), 1)[0]
        assert slope0 * slope_pi < 0

    def test_weak_lo_rejected(self):
        det = detection.DetectorModel(lo_mean_photons=1e4)
        with pytest.raises(ValueError):
            arrays.simulate_array_frames([], det, GRID, RAND, 10, seed=1)

    def test_signal_too_strong_for_lo_rejected_by_shared_photodiode_model(self):
        # per-pixel LO passes the strong-LO check; the rate check of
        # detection.photodiode_counts refuses the frames
        grid = arrays.PixelGrid(n_pixels=4, pixel_area=0.25)
        det = detection.DetectorModel(lo_mean_photons=1e4)
        signal = [(arrays.uniform_mode(grid), states.StateSpec("coherent", alpha=1000.0))]
        with pytest.raises(ValueError, match="negative mean photoelectron rate") as exc:
            arrays.simulate_array_frames(signal, det, grid, RAND, 10, seed=1)
        assert exc.traceback[-1].name == "photodiode_counts"

    def test_peak_memory_below_three_frames(self):
        # the counts are drawn a block of pulses at a time, so beyond the two
        # count arrays (the frames and the diode-2 counts) only one block of
        # field, beat and rates is alive; whole arrays of those took 1.5
        # frames for the complex field alone
        n_pulses, det = 12_000, detection.DetectorModel(eta_q=0.9, sigma_e=2.0)
        signal = [(arrays.ramp_mode(GRID), states.StateSpec("coherent", alpha=2.0))]
        frame_bytes = n_pulses * GRID.n_pixels * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            fs = arrays.simulate_array_frames(signal, det, GRID, RAND, n_pulses, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fs.frames.shape == (n_pulses, GRID.n_pixels)
        assert peak < 3 * frame_bytes

    def test_nonclassical_signal_rejected(self):
        mode = arrays.uniform_mode(GRID)
        with pytest.raises(UnsupportedStateError):
            arrays.simulate_array_frames(
                [(mode, states.StateSpec("fock", n=1))], DET, GRID, RAND, 10, seed=1)

    def test_non_orthogonal_modes_warn(self):
        a = arrays.uniform_mode(GRID)
        tilted = arrays.ModeVector.normalized(
            a.w + 0.5 * arrays.ramp_mode(GRID).w, GRID)
        with pytest.warns(UserWarning, match="not orthogonal"):
            arrays.simulate_array_frames(
                [(a, states.StateSpec("vacuum")), (tilted, states.StateSpec("vacuum"))],
                DET, GRID, RAND, 10, seed=1)

    def test_orthogonal_modes_do_not_warn(self):
        # the even uniform mode and the odd ramp mode overlap by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays.simulate_array_frames(
                [(arrays.uniform_mode(GRID), states.StateSpec("vacuum")),
                 (arrays.ramp_mode(GRID), states.StateSpec("vacuum"))],
                DET, GRID, RAND, 10, seed=1)

    def test_frame_sums_match_point_detector(self):
        # whole-array difference of a uniform-mode coherent signal behaves as
        # single-detector balanced homodyne on the same state
        spec = states.StateSpec("coherent", alpha=1.2)
        mode = arrays.uniform_mode(GRID)
        fs = arrays.simulate_array_frames(
            [(mode, spec)], DET, GRID, detection.PhaseSchedule("grid", d=1),
            20_000, seed=803)
        scale = np.sqrt(2.0) * DET.eta_q * np.sqrt(DET.lo_mean_photons)
        q_sum = fs.corrected().sum(axis=1) / scale
        rho = states.make_state(spec)
        ref = detection.sample_quadratures(
            rho, detection.PhaseSchedule("grid", d=1), DET, 20_000, seed=804)
        # the vacuum offsets, from N_CALIBRATION shot-noise pulses, shift
        # every corrected frame alike
        offsets_var = DET.eta_q * DET.lo_mean_photons / scale**2 / arrays.N_CALIBRATION
        se_mean = np.sqrt(q_sum.var() / q_sum.size + ref.qs.var() / len(ref) + offsets_var)
        assert abs(q_sum.mean() - ref.qs.mean()) < 3 * se_mean
        se_var = np.hypot(variance_stderr(q_sum.var(), q_sum.size),
                          variance_stderr(ref.qs.var(), len(ref)))
        assert abs(q_sum.var() - ref.qs.var()) < 3 * se_var


class TestProjection:
    def test_vacuum_any_mode_efficiency(self, vacuum_frames):
        # the headline property: variance 1/(2η_q) for any real mode,
        # no mode-overlap penalty
        modes = [arrays.uniform_mode(GRID), arrays.ramp_mode(GRID),
                 arrays.ModeVector.normalized(np.cos(np.linspace(0, 3, GRID.n_pixels)), GRID)]
        for mv in modes:
            ds = arrays.project_mode_quadrature(vacuum_frames, mv)
            expect = 1.0 / (2 * DET.eta_q)
            assert abs(ds.qs.var() - expect) < 3 * variance_stderr(expect, len(ds))

    def test_planted_mode_amplitude_recovery(self, ramp_coherent_frames):
        # projected onto the planted mode: mean √2|α| cos(θ − φ) recovered
        ds = arrays.project_mode_quadrature(ramp_coherent_frames, arrays.ramp_mode(GRID))
        amp = np.sqrt(5.0)
        a_fit = np.mean(2 * ds.qs * np.cos(ds.thetas))  # cosine-quadrature amplitude
        assert a_fit == pytest.approx(np.sqrt(2) * amp, abs=0.05)

    def test_orthogonal_mode_sees_vacuum(self, ramp_coherent_frames):
        ds = arrays.project_mode_quadrature(ramp_coherent_frames, arrays.uniform_mode(GRID))
        expect = 1.0 / (2 * DET.eta_q)
        assert abs(ds.qs.var() - expect) < 3 * variance_stderr(expect, len(ds))
        assert abs(ds.qs.mean()) < 3 * ds.qs.std() / np.sqrt(len(ds))

    def test_complex_mode_rejected(self, vacuum_frames):
        with pytest.raises(ValueError):
            arrays.ModeVector(w=np.full(GRID.n_pixels, 1j) / np.sqrt(GRID.array_area),
                              grid=GRID)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            arrays.ModeVector(w=np.full(GRID.n_pixels, 2.0), grid=GRID)


class TestCorrelationMatrix:
    def test_vacuum_is_shot_identity(self, vacuum_frames):
        M = arrays.difference_correlation_matrix(vacuum_frames)
        shot = DET.eta_q * DET.lo_mean_photons / GRID.n_pixels
        diag = np.diag(M)
        assert np.allclose(diag, shot, rtol=0.1)
        off = M[~np.eye(GRID.n_pixels, dtype=bool)]
        se = shot / np.sqrt(vacuum_frames.frames.shape[0])
        assert np.max(np.abs(off)) < 5 * se

    def test_planted_mode_rank_one(self, ramp_coherent_frames):
        # construction oracle: M − shot·I is rank one along the planted mode
        M = arrays.difference_correlation_matrix(ramp_coherent_frames)
        M0 = M - np.diag(np.full(GRID.n_pixels, np.median(np.diag(M))))
        evals, evecs = np.linalg.eigh(M0)
        assert evals[-1] > 10 * np.abs(evals[:-1]).max()
        overlap = GRID.pixel_area * np.dot(
            evecs[:, -1] / np.sqrt(GRID.pixel_area), arrays.ramp_mode(GRID).w)
        assert abs(overlap) > 0.99

    def test_block_sums_match_the_whole_array_product(self, ramp_coherent_frames):
        # M is summed over row blocks; only the rounding may differ from the
        # product of the whole corrected frame set
        c = ramp_coherent_frames.corrected()
        ref = c.T @ c / c.shape[0]
        M = arrays.difference_correlation_matrix(ramp_coherent_frames)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_symmetry_exact(self, ramp_coherent_frames):
        M = arrays.difference_correlation_matrix(ramp_coherent_frames)
        assert np.array_equal(M, M.T)

    def test_needs_phase_coverage(self):
        fs = arrays.simulate_array_frames(
            [], DET, GRID, detection.PhaseSchedule("grid", d=2), 1_000, seed=805)
        with pytest.raises(Exception):
            arrays.difference_correlation_matrix(fs)


class TestOptimalMode:
    def test_planted_recovery(self, ramp_coherent_frames):
        M = arrays.difference_correlation_matrix(ramp_coherent_frames)
        w, n_est = arrays.optimal_mode(M, DET, GRID)
        overlap = GRID.pixel_area * np.dot(w.w, arrays.ramp_mode(GRID).w)
        assert abs(overlap) >= 0.99
        assert n_est == pytest.approx(5.0, rel=0.1)

    def test_vacuum_estimate_fixed_modes(self, vacuum_frames):
        # photon estimate at vacuum vanishes for any fixed mode
        M = arrays.difference_correlation_matrix(vacuum_frames)
        scale = GRID.array_area / (2 * DET.eta_q**2 * DET.lo_mean_photons)
        for mv in (arrays.uniform_mode(GRID), arrays.ramp_mode(GRID)):
            est = scale * mv.w @ M @ mv.w - 1.0 / (2 * DET.eta_q)
            se = (1.0 / (2 * DET.eta_q)) * np.sqrt(2.0 / vacuum_frames.frames.shape[0])
            assert abs(est) < 4 * se

    def test_vacuum_top_eigenvector_bias_bounded(self, vacuum_frames):
        # the data-dependent top eigenvector rides the random-matrix edge:
        # positive bias of order 2√(n_pix/N)·(1/2η)
        M = arrays.difference_correlation_matrix(vacuum_frames)
        _, n_est = arrays.optimal_mode(M, DET, GRID)
        edge = 2 * np.sqrt(GRID.n_pixels / vacuum_frames.frames.shape[0]) / (2 * DET.eta_q)
        assert 0 < n_est < 2 * edge

    def test_two_modes_stronger_wins(self):
        # spectral ordering oracle: the 5-photon thermal mode dominates the
        # 1-photon one (thermal modes stay incoherent, so the correlation
        # matrix is rank 2 along the two planted modes)
        strong = arrays.ramp_mode(GRID)
        weak = arrays.uniform_mode(GRID)
        fs = arrays.simulate_array_frames(
            [(strong, states.StateSpec("thermal", nbar=5.0)),
             (weak, states.StateSpec("thermal", nbar=1.0))],
            DET, GRID, RAND, 10_000, seed=806)
        M = arrays.difference_correlation_matrix(fs)
        w, _ = arrays.optimal_mode(M, DET, GRID)
        assert abs(GRID.pixel_area * np.dot(w.w, strong.w)) > 0.98

    def test_same_recovery_for_any_containing_mode(self, ramp_coherent_frames):
        # detected <n> is the same whether projected on the planted mode or
        # on the data-derived optimal mode
        M = arrays.difference_correlation_matrix(ramp_coherent_frames)
        w_opt, n_opt = arrays.optimal_mode(M, DET, GRID)
        ds = arrays.project_mode_quadrature(ramp_coherent_frames, arrays.ramp_mode(GRID))
        n_direct = np.mean(ds.qs**2) - 1.0 / (2 * DET.eta_q)
        assert n_opt == pytest.approx(n_direct, rel=0.05)

    def test_nonsymmetric_rejected(self):
        M = np.arange(GRID.n_pixels**2, dtype=float).reshape(GRID.n_pixels, -1)
        with pytest.raises(ValueError):
            arrays.optimal_mode(M, DET, GRID)


class TestSpectral:
    def test_vacuum_unit_quadrature_variance(self):
        recs = arrays.unbalanced_spectral_sim([], np.array([1000.0 + 0j]), 32,
                                              30_000, seed=810)
        for l in (1, 7, 32):
            q, p = recs.quadrature_pairs(l)
            assert abs(q.var() - 1.0) < 3 * variance_stderr(1.0, q.size)
            assert abs(p.var() - 1.0) < 3 * variance_stderr(1.0, p.size)

    def test_coherent_amplitude_recovery(self):
        a = 2.0 + 1.0j
        recs = arrays.unbalanced_spectral_sim(
            [(3, states.StateSpec("coherent", alpha=a))],
            np.array([3000.0 + 0j]), 32, 30_000, seed=811)
        idx = np.nonzero(recs.l_values == 3)[0][0]
        mean = (recs.K[:, idx] / np.conj(3000.0 + 0j)).mean()
        assert abs(mean - a) < 0.05

    def test_lo_band_excluded(self):
        recs = arrays.unbalanced_spectral_sim([], np.array([100.0, 1000.0, 100.0]),
                                              32, 100, seed=812)
        assert recs.l_values.min() == 2 * 1 + 1
        with pytest.raises(IndexError):
            recs.quadrature_pairs(1)

    def test_weak_lo_rejected(self):
        with pytest.raises(ValueError):
            arrays.unbalanced_spectral_sim(
                [(3, states.StateSpec("coherent", alpha=3.0))],
                np.array([50.0 + 0j]), 16, 10, seed=813)

    def test_q_variance_is_wigner_plus_half(self):
        # convolution law: measured Q second moment = Wigner variance + 1/2
        nbar = 2.0
        recs = arrays.unbalanced_spectral_sim(
            [(5, states.StateSpec("thermal", nbar=nbar))],
            np.array([5000.0 + 0j]), 32, 30_000, seed=814)
        q, p = recs.quadrature_pairs(5)
        expect = (nbar + 0.5) + 0.5
        assert abs(q.var() - expect) < 3 * variance_stderr(expect, q.size)

    def test_correlated_pair_diagonal_ridge(self):
        spec = states.StateSpec("coherent", alpha=np.sqrt(20.0))
        recs = arrays.unbalanced_spectral_sim(
            [(3, spec), (7, spec)], np.array([5000.0 + 0j]), 32, 20_000,
            seed=815, common_random_phase=True)
        q3, _ = recs.quadrature_pairs(3)
        q7, _ = recs.quadrature_pairs(7)
        assert np.corrcoef(q3, q7)[0, 1] >= 0.9

    def test_phase_randomized_q_is_circular(self):
        spec = states.StateSpec("coherent", alpha=np.sqrt(6.0))
        recs = arrays.unbalanced_spectral_sim(
            [(4, spec)], np.array([4000.0 + 0j]), 32, 20_000, seed=816,
            common_random_phase=True)
        q, p = recs.quadrature_pairs(4)
        # annular single-mode Q: isotropic second moments, zero means
        assert abs(q.mean()) < 0.05 and abs(p.mean()) < 0.05
        assert q.var() == pytest.approx(p.var(), rel=0.05)
