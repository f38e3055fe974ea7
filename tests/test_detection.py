import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest
from scipy.special import ive

from conftest import gaussian_quadrature_variance, variance_stderr
from oracles import skellam_difference_pdf
from ohtlab import detection, states
from ohtlab._rng import stream
from ohtlab.errors import ConfigError, UnsupportedStateError


class TestSampleQuadratures:
    def test_vacuum_variance(self, vacuum):
        ds = detection.sample_quadratures(
            vacuum, detection.PhaseSchedule("grid", d=8),
            detection.DetectorModel(), 1_000_000, seed=101)
        assert ds.qs.var() == pytest.approx(0.5, abs=0.002)

    def test_half_efficiency_variance(self, vacuum):
        ds = detection.sample_quadratures(
            vacuum, detection.PhaseSchedule("grid", d=8),
            detection.DetectorModel(eta_q=0.5), 500_000, seed=102)
        assert ds.qs.var() == pytest.approx(1.0, abs=0.004)

    def test_squeezed_phase_sweep(self, squeezed05):
        # per-phase variances against the Gaussian covariance oracle
        d = 12
        ds = detection.sample_quadratures(
            squeezed05, detection.PhaseSchedule("grid", d=d),
            detection.DetectorModel(), 240_000, seed=103)
        for theta in np.unique(ds.thetas):
            sel = ds.thetas == theta
            var = ds.qs[sel].var()
            expect = gaussian_quadrature_variance(0.5, theta)
            assert abs(var - expect) < 3 * variance_stderr(var, sel.sum())

    def test_convolution_law_all_phases(self, fock1):
        # Var(η<1 samples) = ideal variance + (1/η_eff − 1)/2
        det = detection.DetectorModel(eta_q=0.8, eta_ls=0.9)
        d = 6
        ds = detection.sample_quadratures(
            fock1, detection.PhaseSchedule("grid", d=d), det, 120_000, seed=104)
        for theta in np.unique(ds.thetas):
            sel = ds.thetas == theta
            var = ds.qs[sel].var()
            expect = 1.5 + (1.0 / det.eta_eff - 1.0) / 2.0  # Var_fock1 = 3/2
            assert abs(var - expect) < 3 * variance_stderr(var, sel.sum())

    def test_determinism(self, coherent1):
        det = detection.DetectorModel(eta_q=0.7, sigma_e=100.0)
        sched = detection.PhaseSchedule("uniform_random")
        a = detection.sample_quadratures(coherent1, sched, det, 5000, seed=7)
        b = detection.sample_quadratures(coherent1, sched, det, 5000, seed=7)
        c = detection.sample_quadratures(coherent1, sched, det, 5000, seed=8)
        assert np.array_equal(a.qs, b.qs) and np.array_equal(a.thetas, b.thetas)
        assert not np.array_equal(a.qs, c.qs)

    def test_ks_against_analytic(self, constructed_states):
        # η = 1, σ_e = 0: per-phase histograms converge on the exact law
        d = 8
        n = 200_000
        crit = 1.6276 / np.sqrt(n / d)  # 1% KS critical value per phase bin
        for name, rho in constructed_states.items():
            ds = detection.sample_quadratures(
                rho, detection.PhaseSchedule("grid", d=d),
                detection.DetectorModel(), n, seed=105)
            grid = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, detection.PDF_POINTS)
            for theta in np.unique(ds.thetas)[:4]:
                pdf = states.quadrature_pdf(rho, theta, grid)
                cdf_tab = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
                cdf_tab /= cdf_tab[-1]
                stat = kstest(ds.qs[ds.thetas == theta],
                              lambda x: np.interp(x, grid, cdf_tab)).statistic
                assert stat < crit, (name, theta)

    def test_validation_errors(self, vacuum):
        with pytest.raises(ValueError):
            detection.sample_quadratures(vacuum, detection.PhaseSchedule("grid", d=4),
                                         detection.DetectorModel(), 0, seed=1)
        with pytest.raises(ValueError):
            detection.DetectorModel(eta_q=0.0)

    def test_refused_detector_value_is_a_config_error(self):
        with pytest.raises(ConfigError, match="eta_q"):
            detection.DetectorModel(eta_q=2)
        assert issubclass(ConfigError, ValueError)

    def test_low_lo_warns(self, vacuum):
        with pytest.warns(UserWarning):
            detection.sample_quadratures(
                vacuum, detection.PhaseSchedule("grid", d=2),
                detection.DetectorModel(lo_mean_photons=100.0), 100, seed=1)

    def test_phases_in_range(self, vacuum):
        for kind, d in (("grid", 16), ("uniform_random", None), ("swept_linear", None)):
            ds = detection.sample_quadratures(
                vacuum, detection.PhaseSchedule(kind, d=d),
                detection.DetectorModel(), 3000, seed=9)
            assert ds.thetas.min() >= 0.0 and ds.thetas.max() < 2 * np.pi

    @pytest.mark.parametrize("d", [64, 128, 1024])
    def test_folded_grid_counts_half_its_phases(self, vacuum, d):
        # θ_{k+d/2} − π lands an ulp from θ_k for some k; the distinct-phase
        # rule counts each such pair as one phase
        ds = detection.sample_quadratures(vacuum, detection.PhaseSchedule("grid", d=d),
                                          detection.DetectorModel(), 4 * d, seed=10)
        theta_f, _ = detection.fold_phases(ds.thetas, ds.qs)
        assert np.unique(theta_f).size > d // 2
        assert np.unique(detection.phase_keys(theta_f)).size == d // 2


def _reference_inverse_cdf_draw(pdf_rows, q_grid, group_idx, u):
    # the masked loop the sorted-slice draw replaced: one pass over all samples per group
    dq = q_grid[1] - q_grid[0]
    out = np.empty(u.size, float)
    for g in range(pdf_rows.shape[0]):
        sel = group_idx == g
        if not np.any(sel):
            continue
        cdf = np.concatenate([[0.0], np.cumsum((pdf_rows[g][1:] + pdf_rows[g][:-1]) * 0.5 * dq)])
        cdf /= cdf[-1]
        out[sel] = np.interp(u[sel], cdf, q_grid)
    return out


class TestInverseCdfDraw:
    @given(st.integers(1, 40), st.integers(0, 2_000), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_masked_reference(self, n_rows, n, seed):
        # even rows only, so the odd rows have no samples
        rng = stream(seed, "draw-test")
        q_grid = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, 257)
        rows = rng.random((n_rows, q_grid.size)) + 1e-3
        group = 2 * rng.integers(0, (n_rows + 1) // 2, n)
        u = rng.random(n)
        got = detection._inverse_cdf_draw(rows, q_grid, group, u)
        assert np.array_equal(got, _reference_inverse_cdf_draw(rows, q_grid, group, u))

    @pytest.mark.parametrize("n_rows", [256, 257, 65_536, 65_537])
    def test_many_groups_match_masked_reference(self, n_rows):
        # 256 and 65,536 groups are the most whose indices sort as uint8 and
        # uint16 keys; one group more takes the next wider key type
        rng = stream(n_rows, "draw-groups")
        q_grid = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, 9)
        rows = rng.random((n_rows, q_grid.size)) + 1e-3
        group = rng.permutation(np.append(rng.integers(0, n_rows, 3_000), n_rows - 1))
        u = rng.random(group.size)
        got = detection._inverse_cdf_draw(rows, q_grid, group, u)
        assert np.array_equal(got, _reference_inverse_cdf_draw(rows, q_grid, group, u))

    def test_state_draw_on_snapped_random_phases_matches_reference(self, coherent1):
        thetas = detection.PhaseSchedule("uniform_random").phases(20_000, stream(3, "t"))
        distinct, group = np.unique(thetas, return_inverse=True)
        q_grid = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, detection.PDF_POINTS)
        u = stream(3, "q").random(thetas.size)
        got = detection.draw_state_quadratures(coherent1, thetas, stream(3, "q"))
        rows = detection.pdf_table(coherent1, distinct, q_grid)
        assert np.array_equal(got, _reference_inverse_cdf_draw(rows, q_grid, group, u))


_BLOCK_STATES = {
    "coherent": states.StateSpec("coherent", alpha=complex(1.5, 0.5)),
    "squeezed": states.StateSpec("squeezed_vacuum", r=0.5),
    "fock": states.StateSpec("fock", n=2, truncation_dim=8),
}


@functools.cache
def _block_state(kind):
    return states.make_state(_BLOCK_STATES[kind])


def _snapped_thetas(n_phases, n, seed):
    """n samples on n_phases distinct phases of the PHASE_SNAP grid, each used at least once."""
    rng = stream(seed, "block-phases")
    grid = 2.0 * np.pi * np.arange(detection.PHASE_SNAP) / detection.PHASE_SNAP
    phases = rng.choice(grid, n_phases, replace=False)
    return rng.permutation(np.concatenate([phases, rng.choice(phases, n - n_phases)]))


class TestBlockedDraw:
    # the blocked tabulation must reproduce the one-table draw bit for bit,
    # on either side of a block edge and at the full snapped phase set
    B = detection.PHASE_BLOCK

    @pytest.mark.parametrize("kind", sorted(_BLOCK_STATES))
    @pytest.mark.parametrize("n_phases", [1, B - 1, B, B + 1, detection.PHASE_SNAP])
    @given(extra=st.integers(0, 2_000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_state_draw_matches_full_table(self, kind, n_phases, extra, seed):
        rho = _block_state(kind)
        thetas = _snapped_thetas(n_phases, n_phases + extra, seed)
        distinct, group = np.unique(thetas, return_inverse=True)
        q_grid = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, detection.PDF_POINTS)
        got = detection.draw_state_quadratures(rho, thetas, stream(seed, "q"))
        rows = detection.pdf_table(rho, distinct, q_grid)
        u = stream(seed, "q").random(thetas.size)
        assert np.array_equal(got, _reference_inverse_cdf_draw(rows, q_grid, group, u))

    @given(n_levels=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]),
           n=st.integers(0, 1_500), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fock_draw_matches_reference(self, n_levels, n, seed):
        rng = stream(seed, "block-levels")
        ns = rng.permutation(np.concatenate([np.arange(n_levels), rng.integers(0, n_levels, n)]))
        levels, group = np.unique(ns, return_inverse=True)
        q_grid = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, detection.PDF_POINTS)
        rows = states.hermite_psi_all(int(levels.max()), q_grid)[levels] ** 2
        got = detection.draw_fock_quadratures(ns, stream(seed, "q"))
        u = stream(seed, "q").random(ns.size)
        assert np.array_equal(got, _reference_inverse_cdf_draw(rows, q_grid, group, u))

    def test_memory_flat_in_distinct_phases(self, coherent1):
        # phases go in fixed blocks, so 8× the distinct phases may not need
        # more than 1.5× the peak allocation, nor one full float table
        full_table = detection.PHASE_SNAP * detection.PDF_POINTS * 8
        peaks = {}
        for n_phases in (128, detection.PHASE_SNAP):
            thetas = _snapped_thetas(n_phases, 4096, seed=5)
            detection.draw_state_quadratures(coherent1, thetas, stream(5, "q"))   # warm caches
            tracemalloc.start()
            try:
                detection.draw_state_quadratures(coherent1, thetas, stream(5, "q"))
                peaks[n_phases] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[detection.PHASE_SNAP] < full_table
        assert peaks[detection.PHASE_SNAP] <= 1.5 * peaks[128]

    def test_random_record_peak_within_budget(self):
        # the benchmark's random record: 100k samples on all PHASE_SNAP phases,
        # loss and electronic noise; blocks of 64 phases peaked at 16.2 MB
        rho = _block_state("coherent")
        sched = detection.PhaseSchedule("uniform_random")
        det = detection.DetectorModel(eta_q=0.8, sigma_e=200.0)
        detection.sample_quadratures(rho, sched, det, 100_000, seed=7)   # warm caches
        tracemalloc.start()
        try:
            ds = detection.sample_quadratures(rho, sched, det, 100_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.unique(ds.thetas).size == detection.PHASE_SNAP
        assert peak <= 9e6


class TestDetectorCounts:
    def test_vacuum_difference_variance(self):
        det = detection.DetectorModel(eta_q=0.8, lo_mean_photons=1e6, sigma_e=200.0)
        n1, n2 = detection.detector_counts(np.zeros(150_000), det, stream(11, "c"))
        var = (n1 - n2).astype(float).var()
        expect = 0.8e6 + 2 * 200.0**2
        assert abs(var - expect) < 3 * variance_stderr(expect, 150_000)

    def test_displaced_mean(self):
        det = detection.DetectorModel(eta_q=0.8, eta_ls=0.9, lo_mean_photons=1e6)
        n1, n2 = detection.detector_counts(np.full(100_000, 3.0), det, stream(12, "c"))
        nm = (n1 - n2).astype(float)
        expect = np.sqrt(2.0) * det.eta_eff * 1e3 * 3.0
        assert nm.mean() == pytest.approx(expect, abs=3 * nm.std() / np.sqrt(nm.size))

    def test_lo_blocked(self):
        det = detection.DetectorModel(lo_mean_photons=0.0, sigma_e=0.0)
        n1, n2 = detection.detector_counts(np.zeros(100), det, stream(13, "c"))
        assert not n1.any() and not n2.any()

    def test_count_path_matches_quadrature_path(self, coherent1):
        # same DetectorModel, coherent signal: the two noise chains agree,
        # including the DC offset of an imperfectly balanced splitter
        det = detection.DetectorModel(eta_q=0.75, lo_mean_photons=1e6,
                                      balance_imbalance=2e-4)
        theta = 0.4
        n = 120_000
        q_mean = np.sqrt(2.0) * np.cos(theta)  # mean quadrature of alpha=1
        n1, n2 = detection.detector_counts(np.full(n, q_mean), det, stream(14, "c"))
        q_counts = (n1 - n2) / (np.sqrt(2.0) * det.eta_eff * np.sqrt(det.lo_mean_photons))
        ds = detection.sample_quadratures(
            coherent1, detection.PhaseSchedule("grid", d=1, span=(theta, theta + 0.1)),
            det, n, seed=15)
        se_mean = np.sqrt(q_counts.var() / n + ds.qs.var() / n)
        assert abs(q_counts.mean() - ds.qs.mean()) < 3 * se_mean
        se_var = np.sqrt(variance_stderr(q_counts.var(), n) ** 2
                         + variance_stderr(ds.qs.var(), n) ** 2)
        assert abs(q_counts.var() - ds.qs.var()) < 3 * se_var

    def test_negative_rate_rejected(self):
        det = detection.DetectorModel(lo_mean_photons=100.0)
        with pytest.raises(ValueError):
            detection.detector_counts(np.array([200.0]), det, stream(16, "c"))


def _per_block_counts(mu1, mu2, sigma_e, rng):
    """The serial oracle of photodiode_counts, built from the same streams:
    block k of whole rows, about COUNT_BLOCK counts, draws from
    Philox(key).jumped(k), where key is rng's one draw of two uint64."""
    rows = max(1, detection.COUNT_BLOCK // int(np.prod(mu1.shape[1:])))
    root = np.random.Philox(key=rng.integers(0, 2**64, size=2, dtype=np.uint64))
    n1, n2 = np.empty(mu1.shape, np.int64), np.empty(mu2.shape, np.int64)
    for k, lo in enumerate(range(0, mu1.shape[0], rows)):
        gen, b = np.random.Generator(root.jumped(k)), slice(lo, lo + rows)
        n1[b] = gen.poisson(mu1[b])
        n2[b] = gen.poisson(mu2[b])
        if sigma_e > 0:
            n1[b] += np.rint(gen.normal(0.0, sigma_e, size=n1[b].shape)).astype(np.int64)
            n2[b] += np.rint(gen.normal(0.0, sigma_e, size=n2[b].shape)).astype(np.int64)
    return n1, n2


class TestPhotodiodeCounts:
    @given(width=st.sampled_from([None, 1, 3, 64]),
           extra=st.sampled_from([("rows", 1), ("block", -1), ("block", 0), ("block", 1),
                                  ("two_blocks", 3)]),
           sigma_e=st.sampled_from([0.0, 0.7, 300.0]),
           scale=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_serial_per_block_draws(self, width, extra, sigma_e, scale, seed):
        row = 1 if width is None else width
        block = detection.COUNT_BLOCK // row
        kind, k = extra
        n_rows = {"rows": k, "block": block + k, "two_blocks": 2 * block + k}[kind]
        shape = (n_rows,) if width is None else (n_rows, width)
        gen = np.random.default_rng(seed)
        mu1 = gen.uniform(0.0, 10.0**scale, shape)
        mu2 = gen.uniform(0.0, 10.0**scale, shape)
        mu1.flat[0] = 0.0
        o1, o2 = _per_block_counts(mu1, mu2, sigma_e, stream(seed, "counts"))
        calls = []

        def rates(lo, hi):
            calls.append((lo, hi))
            return mu1[lo:hi], mu2[lo:hi]

        rng = stream(seed, "counts")
        n1, n2 = detection.photodiode_counts(rates, shape, sigma_e, rng)
        assert n1.dtype == n2.dtype == np.int64
        assert np.array_equal(n1, o1) and np.array_equal(n2, o2)
        # the caller's generator gives up the key draw and nothing else
        after_key = stream(seed, "counts")
        after_key.integers(0, 2**64, size=2, dtype=np.uint64)
        assert rng.random() == after_key.random()
        # each row's rates asked for once, in order, at most a block at a time
        assert calls[0][0] == 0 and calls[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
        assert max(hi - lo for lo, hi in calls) <= block

    def test_poisson_error_in_a_later_block_reaches_the_caller(self, monkeypatch):
        # of three blocks, only blocks 1 and 2 hold a rate too large for
        # numpy's Poisson draw, which the staging pass is made to let through
        monkeypatch.setattr(detection, "POISSON_MAX", np.inf)
        mu = np.full(2 * detection.COUNT_BLOCK + 3, 50.0)
        mu[detection.COUNT_BLOCK:] = 1e20
        with pytest.raises(ValueError, match="lam value too large"):
            detection.photodiode_counts(lambda lo, hi: (mu[lo:hi], mu[lo:hi]),
                                        mu.shape, 1.0, stream(19, "c"))

    def test_negative_rate_refused_before_any_draw(self):
        # the bad rate sits in the last block, after blocks with valid rates
        n_rows = 2 * detection.COUNT_BLOCK + 3
        mu = np.full(n_rows, 50.0)
        mu[-1] = -1.0
        rng = stream(17, "c")
        with pytest.raises(ValueError, match="negative mean photoelectron rate"):
            detection.photodiode_counts(lambda lo, hi: (mu[lo:hi], mu[lo:hi]),
                                        mu.shape, 1.0, rng)
        assert rng.random() == stream(17, "c").random()


class TestPdfFloor:
    # ρ = diag(1.5, −0.5) is Hermitian with unit trace but not positive:
    # Pr(q) = (1.5 − q²) ψ_0(q)², negative beyond |q| = 1.22
    RHO = states.DensityMatrix(dim=2, elements=np.diag([1.5, -0.5]))

    def test_both_routes_refuse_a_non_positive_state(self):
        q = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, detection.PDF_POINTS)
        with pytest.raises(FloatingPointError, match="quadrature pdf negative beyond floor"):
            states.quadrature_pdf(self.RHO, 0.3, q)
        with pytest.raises(FloatingPointError, match="quadrature pdf negative beyond floor"):
            detection.pdf_table(self.RHO, np.array([0.0, 0.3]), q)
        with pytest.raises(FloatingPointError, match="quadrature pdf negative beyond floor"):
            detection.draw_state_quadratures(self.RHO, np.zeros(10), stream(18, "q"))

    def test_rounding_negatives_clip_to_zero(self, constructed_states):
        # valid states dip below 0 by rounding only (to about −7e-16 for
        # these); both routes clip that and agree
        q = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, detection.PDF_POINTS)
        thetas = np.linspace(0.0, np.pi, 5)
        wide = [states.make_state(states.StateSpec("coherent", alpha=5.0)),
                states.make_state(states.StateSpec("squeezed_vacuum", r=1.0))]
        for rho in [*constructed_states.values(), *wide]:
            table = detection.pdf_table(rho, thetas, q)
            assert table.min() >= 0.0
            assert np.allclose(table[1], states.quadrature_pdf(rho, thetas[1], q), atol=1e-12)


class TestSkellam:
    def test_symmetric_zero_probability(self):
        det = detection.DetectorModel(lo_mean_photons=100.0, eta_q=1.0)
        n_vals, pmf, mu1, mu2 = skellam_difference_pdf(0.0, 0.0, det)
        assert mu1 == mu2 == 50.0
        # e^{−2μ} I_0(2μ) via the scaled Bessel function
        assert pmf[n_vals == 0][0] == pytest.approx(ive(0, 100.0), rel=1e-10)

    def test_mean_is_mu_difference(self):
        det = detection.DetectorModel(lo_mean_photons=2000.0, eta_q=0.9)
        n_vals, pmf, mu1, mu2 = skellam_difference_pdf(0.5 + 0.2j, 0.3, det)
        assert np.sum(n_vals * pmf) == pytest.approx(mu1 - mu2, abs=1e-6)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_limit_total_variation(self):
        # direct-summation oracle for the strong-LO Gaussian approximation
        det = detection.DetectorModel(lo_mean_photons=1e6)
        n_vals, pmf, mu1, mu2 = skellam_difference_pdf(0.0, 0.0, det)
        gauss = np.exp(-((n_vals - (mu1 - mu2)) ** 2) / (2 * (mu1 + mu2)))
        gauss /= np.sqrt(2 * np.pi * (mu1 + mu2))
        assert 0.5 * np.abs(pmf - gauss).sum() <= 1e-3

    def test_non_coherent_rejected(self):
        det = detection.DetectorModel()
        with pytest.raises(UnsupportedStateError):
            skellam_difference_pdf(
                states.StateSpec("thermal", nbar=1.0), 0.0, det)

    def test_statespec_accepted(self):
        det = detection.DetectorModel(lo_mean_photons=1000.0)
        n_vals, pmf, _, _ = skellam_difference_pdf(
            states.StateSpec("coherent", alpha=0.5), 0.0, det)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)


class TestCalibration:
    LEVELS = [1e5, 3e5, 6e5, 1e6, 2e6]

    def test_planted_recovery(self):
        det = detection.DetectorModel(gain=1e6, sigma_e=300.0)
        cal = detection.calibration_curve(det, self.LEVELS, 250_000, seed=1)
        assert cal.gain_estimate == pytest.approx(1e6, rel=0.01)
        assert cal.sigma_e_estimate == pytest.approx(300.0, rel=0.05)
        assert not cal.nonlinearity_flag

    def test_zero_noise_intercept(self):
        det = detection.DetectorModel(gain=1e6, sigma_e=0.0)
        cal = detection.calibration_curve(det, self.LEVELS, 10_000, seed=11)
        assert abs(cal.intercept) < 3 * cal.intercept_stderr

    def test_degenerate_levels_rejected(self):
        det = detection.DetectorModel()
        with pytest.raises(ValueError):
            detection.calibration_curve(det, [1e5, 1e5, 1e5], 100, seed=0)


class TestGainBalancing:
    def test_formula(self):
        assert detection.gain_balancing_sim(1e6, 1e2, 1e2) == pytest.approx(2e-4)
        assert detection.gain_balancing_sim(1e6, 0.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            detection.gain_balancing_sim(0.0, 1.0, 1.0)

    def test_swap_procedure_monte_carlo(self):
        # simulate the iterated swap procedure with shot-noise-limited
        # difference readings and planted gain/splitter mismatches; the two
        # knobs are relaxed (damped, as fully nulling one configuration per
        # step merely flips the imbalance) until both readings sit at the
        # shot-noise floor, then the final mismatch must respect the
        # (n_diff1 + n_diff2)/n_tot bound
        rng = np.random.default_rng(42)
        alpha, beta = 1.00, 1.03          # planted channel gains
        q1, q2 = 5.1e5, 4.9e5             # planted splitter imbalance (electrons)
        shot = np.sqrt(q1 + q2)
        for _ in range(20):
            # config A: V1−V2 = αQ1 − βQ2; half-correct with the gain knob
            reading_a = alpha * q1 - beta * q2 + rng.normal(0, shot)
            beta += 0.5 * reading_a / q2
            # config B (inputs swapped): V1−V2 = αQ2 − βQ1; half-correct the splitter
            reading_b = alpha * q2 - beta * q1 + rng.normal(0, shot)
            shift = -0.5 * reading_b / (alpha + beta)
            q2 += shift
            q1 -= shift
        n_tot = alpha * q1 + beta * q2
        n_diff1 = abs(alpha * q1 - beta * q2) + shot
        n_diff2 = abs(alpha * q2 - beta * q1) + shot
        bound = detection.gain_balancing_sim(n_tot, n_diff1, n_diff2)
        assert abs(alpha - beta) / alpha <= bound
        # the shot-noise floor puts the achievable precision near the 1e-4 scale
        assert bound < 2e-2
