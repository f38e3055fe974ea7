import tracemalloc

import numpy as np
import pytest

from ohtlab import detection, patterns, radon, states
from ohtlab.errors import AliasingError, CoverageError


@pytest.fixture(scope="module")
def pf8():
    return patterns.build_pattern_functions(8)


@pytest.fixture(scope="module")
def pf12():
    return patterns.build_pattern_functions(12)


def _grid_dataset(rho, n, seed, d=16, det=None):
    det = det or detection.DetectorModel()
    return detection.sample_quadratures(
        rho, detection.PhaseSchedule("grid", d=d), det, n, seed)


class TestConstruction:
    def test_m00_projects_out_ground_state(self, pf8):
        # Σ M_00 ψ_0² dq = 1, Σ M_00 ψ_k² dq = 0 for k < dim
        q = pf8.q_axis
        psi = states.hermite_psi_all(7, q)
        m00 = pf8.values(0, 0)
        assert np.trapezoid(m00 * psi[0] ** 2, q) == pytest.approx(1.0, abs=1e-6)
        for k in range(1, 8):
            assert abs(np.trapezoid(m00 * psi[k] ** 2, q)) < 1e-6

    def test_diagonal_band_orthogonality(self, pf8):
        q = pf8.q_axis
        psi = states.hermite_psi_all(7, q)
        for n in range(8):
            for nu in range(8):
                val = np.trapezoid(pf8.values(n, n) * psi[nu] ** 2, q)
                assert val == pytest.approx(1.0 if n == nu else 0.0, abs=1e-6)

    def test_index_symmetry(self, pf8):
        assert np.array_equal(pf8.values(5, 2), pf8.values(2, 5))

    def test_extrema_align_with_fock_distribution(self, pf8):
        # M_nn has n+1 maxima sitting on the maxima of ψ_n(q)²
        q = pf8.q_axis
        for n in range(6):
            psi2 = states.hermite_psi_all(n, q)[n] ** 2
            m = pf8.values(n, n)
            support = np.abs(q) <= np.sqrt(2 * n + 1) + 0.5
            def maxima(y):
                idx = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & support[1:-1])[0] + 1
                return q[idx]
            peaks_m = maxima(m)
            peaks_p = maxima(psi2)
            assert len(peaks_p) == n + 1
            assert len(peaks_m) == n + 1
            assert np.max(np.abs(peaks_m - peaks_p)) < 0.2

    def test_condition_logged_and_bounded(self, pf8):
        assert set(pf8.condition_numbers) == set(range(8))
        assert max(pf8.condition_numbers.values()) < 1e12
        assert max(pf8.biorth_residuals.values()) < 1e-9

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            patterns.build_pattern_functions(31)


class TestRhoFromQuadratures:
    def test_vacuum(self, vacuum, pf8):
        ds = _grid_dataset(vacuum, 200_000, seed=301, d=16)
        rho, err = patterns.rho_from_quadratures(ds, pf8)
        assert abs(rho.elements[0, 0].real - 1.0) <= 0.02
        mask = ~np.eye(8, dtype=bool)
        assert np.max(np.abs(rho.elements[mask])) <= 0.02

    def test_coherent_frobenius(self, coherent1, pf8):
        ds = _grid_dataset(coherent1, 200_000, seed=302)
        rho, err = patterns.rho_from_quadratures(ds, pf8)
        assert rho.meta["d_phases"] == 8
        truth = coherent1.elements[:8, :8]
        frob = np.sqrt(np.sum(np.abs(rho.elements - truth) ** 2))
        assert frob <= 3.0 * np.sqrt(np.sum(err**2))

    def test_squeezed_even_odd(self, squeezed05, pf8):
        ds = _grid_dataset(squeezed05, 300_000, seed=303, d=128)
        rho, err = patterns.rho_from_quadratures(ds, pf8)
        assert rho.meta["d_phases"] == 64
        pops = rho.populations()
        assert pops[1] <= 0.01
        assert pops[3] <= 0.01

    def test_hermitian_by_construction(self, thermal1, pf8):
        ds = _grid_dataset(thermal1, 50_000, seed=304)
        rho, _ = patterns.rho_from_quadratures(ds, pf8)
        assert np.max(np.abs(rho.elements - rho.elements.conj().T)) == 0.0

    def test_aliasing_refused(self, vacuum, pf8):
        # 4 phases over the full circle fold onto just 2 projection angles
        ds = _grid_dataset(vacuum, 10_000, seed=305, d=4)
        with pytest.raises(AliasingError):
            patterns.rho_from_quadratures(ds, pf8)

    def test_nonuniform_phases_refused(self, vacuum, pf8):
        base = detection.sample_quadratures(
            vacuum, detection.PhaseSchedule("grid", d=32),
            detection.DetectorModel(), 10_000, seed=306)
        rng = np.random.default_rng(0)
        crooked = detection.QuadratureDataset(
            thetas=np.sort(rng.random(32))[
                np.minimum((base.thetas / (2 * np.pi) * 32).astype(int), 31)] * 2 * np.pi * 0.99,
            qs=base.qs, meta=base.meta)
        with pytest.raises(CoverageError):
            patterns.rho_from_quadratures(crooked, pf8)

    def test_unbiasedness_over_seeds(self):
        # averaging estimates over seeds converges on the exact state; with
        # 200 seeds any systematic bias of 0.2 single-run standard errors
        # would show as a >=4σ deviation of a per-element mean
        amp = np.array([1.0, 0.6, 0.3, 0.2])
        amp = amp / np.linalg.norm(amp)
        truth = np.outer(amp, amp)
        rho_small = states.DensityMatrix(dim=4, elements=truth)
        pf4 = patterns.build_pattern_functions(4)
        half = detection.PhaseSchedule("grid", d=4, span=(0.0, np.pi))
        n_seeds = 200
        acc = np.zeros((4, 4), complex)
        for s in range(n_seeds):
            ds = detection.sample_quadratures(rho_small, half,
                                              detection.DetectorModel(), 5_000, 400 + s)
            rho, err = patterns.rho_from_quadratures(ds, pf4)
            acc += rho.elements
        bias = np.abs(acc / n_seeds - truth)
        assert np.max(bias / (err / np.sqrt(n_seeds))) < 4.0
        assert np.mean(bias) < 0.2 * np.mean(err)

    def test_phase_count_theorem(self):
        # support <= 3 photons: 4 and 32 projection angles agree
        amp = np.array([1.0, 0.6, 0.3, 0.2])
        amp = amp / np.linalg.norm(amp)
        rho_small = states.DensityMatrix(dim=4, elements=np.outer(amp, amp))
        pf4 = patterns.build_pattern_functions(4)
        half = lambda d: detection.PhaseSchedule("grid", d=d, span=(0.0, np.pi))
        det = detection.DetectorModel()
        ds4 = detection.sample_quadratures(rho_small, half(4), det, 200_000, 310)
        ds32 = detection.sample_quadratures(rho_small, half(32), det, 200_000, 311)
        r4, e4 = patterns.rho_from_quadratures(ds4, pf4)
        r32, e32 = patterns.rho_from_quadratures(ds32, pf4)
        assert (r4.meta["d_phases"], r32.meta["d_phases"]) == (4, 32)
        diff = np.abs(r4.elements - r32.elements)
        comb = np.sqrt(e4**2 + e32**2)
        assert np.max(diff / comb) < 3.0

    def test_radon_pattern_agreement(self, coherent1, pf8):
        # the two reconstruction routes agree element-wise on one dataset
        ds = _grid_dataset(coherent1, 150_000, seed=312, d=64)
        rho_p, err_p = patterns.rho_from_quadratures(ds, pf8)
        w = radon.filtered_backprojection(ds)
        rho_r = states.rho_from_wigner(w, 8)
        diff = np.abs(rho_p.elements - rho_r.elements)
        # radon-route element noise estimated from a small bootstrap
        rng = np.random.default_rng(5)
        boots = []
        for _ in range(12):
            idx = rng.integers(0, len(ds), len(ds))
            sub = detection.QuadratureDataset(ds.thetas[idx], ds.qs[idx], ds.meta)
            boots.append(states.rho_from_wigner(
                radon.filtered_backprojection(sub), 8).elements)
        err_r = np.std(np.abs(np.array(boots)), axis=0)
        assert np.max(diff / np.sqrt(err_p**2 + err_r**2 + 1e-6)) < 3.0


def _per_phase_row_rho(ds, pf):
    """ρ of a random or swept record from one first-moment deposit row per
    folded phase: ρ_{n+D,n} = Σ_k e^{iDθ_k} (w1[k] @ M_{n+D,n}) / N."""
    theta_f, q_f = detection.fold_phases(ds.thetas, ds.qs)
    thetas, bins = np.unique(np.round(theta_f, 10), return_inverse=True)
    g = pf.q_axis.size
    inside, j, f = patterns._cloud_in_cell(q_f, pf.q_axis)
    w1 = patterns._deposit(bins[inside] * g + j, thetas.size, g, 1.0 - f, f)
    rho = np.zeros((pf.dim, pf.dim), complex)
    for band in range(pf.dim):
        n = np.arange(pf.dim - band)
        rho[n + band, n] = np.exp(1j * band * thetas) @ (w1 @ pf.band_values[band].T) / len(ds)
        rho[n, n + band] = np.conj(rho[n + band, n])
    return rho


def _reference_rho(ds, pf):
    """Per-element estimator: np.interp of every M_mn at every sample.  A grid
    averages its phases' means, with each phase a stratum of the error; any
    other schedule takes the sample mean of e^{i(m−n)θ} M_mn(q) and its
    standard error."""
    theta_f, q_f = detection.fold_phases(ds.thetas, ds.qs)
    thetas, bins = np.unique(np.round(theta_f, 10), return_inverse=True)
    d = thetas.size
    inv_cnt = 1.0 / np.bincount(bins, minlength=d)
    rho = np.zeros((pf.dim, pf.dim), complex)
    err = np.zeros((pf.dim, pf.dim))
    for m in range(pf.dim):
        for n in range(m + 1):
            vals = np.interp(q_f, pf.q_axis, pf.values(m, n), left=0.0, right=0.0)
            if ds.meta.schedule.kind == "grid":
                mean_k = np.bincount(bins, weights=vals, minlength=d) * inv_cnt
                mean2_k = np.bincount(bins, weights=vals**2, minlength=d) * inv_cnt
                var_k = np.clip(mean2_k - mean_k**2, 0.0, None)
                rho[m, n] = np.sum(np.exp(1j * (m - n) * thetas) * mean_k) / d
                err[m, n] = err[n, m] = np.sqrt(np.sum(var_k * inv_cnt) / d**2)
            else:
                rho[m, n] = np.mean(np.exp(1j * (m - n) * thetas[bins]) * vals)
                var = max(np.mean(vals**2) - abs(rho[m, n]) ** 2, 0.0)
                err[m, n] = err[n, m] = np.sqrt(var / vals.size)
            rho[n, m] = np.conj(rho[m, n])
    return rho, err


def _edge_qs(rng, n):
    """Quadratures with samples beyond ±8, exactly on both grid ends and on
    interior nodes, which exercise the zero fill and the closed right
    endpoint of np.interp."""
    q_axis = np.linspace(-patterns.GRID_SPAN, patterns.GRID_SPAN, patterns.GRID_POINTS)
    qs = rng.normal(0.0, 3.0, n)
    qs[:40] = 8.0
    qs[40:80] = -8.0
    qs[80:120] = rng.uniform(8.0, 12.0, 40) * rng.choice([-1.0, 1.0], 40)
    qs[120:160] = q_axis[rng.integers(0, q_axis.size, 40)]
    return qs


def _meta(schedule):
    return detection.DatasetMeta(detection.DetectorModel(), schedule, seed=0)


def _random_table(q_axis, dim, rng):
    """Table of O(1) random rows: unlike real pattern functions, it is not
    vanishingly small at ±8, so grid-end handling shows in the sums."""
    bands = {b: rng.normal(size=(dim - b, q_axis.size)) for b in range(dim)}
    return patterns.PatternFunctionTable(dim=dim, q_axis=q_axis, band_values=bands,
                                         condition_numbers={})


class TestCloudInCell:
    @pytest.mark.parametrize("table", ["pattern", "random"])
    def test_matches_per_element_interpolation(self, pf8, table):
        rng = np.random.default_rng(330)
        pf = pf8 if table == "pattern" else _random_table(pf8.q_axis, 8, rng)
        d, n = 9, 30_000
        thetas = np.repeat(np.arange(d) * np.pi / d, n // d)
        thetas[::2] += np.pi
        ds = detection.QuadratureDataset(thetas=thetas, qs=_edge_qs(rng, thetas.size),
                                         meta=_meta(detection.PhaseSchedule("grid", d=2 * d)))
        rho, err = patterns.rho_from_quadratures(ds, pf)
        assert rho.meta["d_phases"] == d
        rho_ref, err_ref = _reference_rho(ds, pf)
        assert np.max(np.abs(rho.elements - rho_ref)) < 1e-12
        assert np.max(np.abs(err - err_ref)) < 1e-12

    @pytest.mark.parametrize("table", ["pattern", "random"])
    @pytest.mark.parametrize("kind", ["uniform_random", "swept_linear"])
    def test_pooled_matches_per_sample_mean(self, pf8, kind, table):
        # 1,500 samples leave some of the 512 folded random phases empty, and
        # put one or two samples on each swept one
        rng = np.random.default_rng(332)
        pf = pf8 if table == "pattern" else _random_table(pf8.q_axis, 8, rng)
        sched = detection.PhaseSchedule(kind)
        thetas = sched.phases(1_500, rng)
        ds = detection.QuadratureDataset(thetas=thetas, qs=_edge_qs(rng, thetas.size),
                                         meta=_meta(sched))
        rho, err = patterns.rho_from_quadratures(ds, pf)
        rho_ref, err_ref = _reference_rho(ds, pf)
        assert np.max(np.abs(rho.elements - rho_ref)) < 1e-12
        assert np.max(np.abs(err - err_ref)) < 1e-12

    def test_deposit_sums_equal_interpolant_sums(self, pf8):
        rng = np.random.default_rng(331)
        q = np.concatenate([rng.uniform(-9.0, 9.0, 2_000), [8.0, -8.0]])
        bins = rng.integers(0, 3, q.size)
        g = pf8.q_axis.size
        inside, j, f = patterns._cloud_in_cell(q, pf8.q_axis)
        cell, lo = bins[inside] * g + j, 1.0 - f
        w1 = patterns._deposit(cell, 3, g, lo, f)
        w2 = patterns._deposit(cell, 3, g, lo * lo, f * f)
        w11 = patterns._deposit(cell, 3, g, lo * f)
        M = rng.normal(size=g)
        vals = np.interp(q, pf8.q_axis, M, left=0.0, right=0.0)
        for k in range(3):
            sel = bins == k
            assert w1[k] @ M == pytest.approx(vals[sel].sum(), abs=1e-12)
            sq = w2[k] @ M**2 + 2.0 * w11[k, :-1] @ (M[:-1] * M[1:])
            assert sq == pytest.approx((vals[sel] ** 2).sum(), abs=1e-12)

    @pytest.mark.parametrize("kind", ["uniform_random", "swept_linear"])
    def test_one_deposit_matches_per_phase_rows(self, pf12, kind):
        # the record-wide complex deposit against Σ_k e^{iDθ_k} (w1[k] @ M) / N
        # over one deposit row per folded phase, on a benchmark-sized record
        rho = states.make_state(states.StateSpec("coherent", alpha=1.5 + 0.5j))
        ds = detection.sample_quadratures(rho, detection.PhaseSchedule(kind),
                                          detection.DetectorModel(eta_q=0.8), 100_000, 334)
        got, _ = patterns.rho_from_quadratures(ds, pf12)
        assert got.meta["d_phases"] == detection.PHASE_SNAP // 2
        assert np.max(np.abs(got.elements - _per_phase_row_rho(ds, pf12))) < 1e-12

    def test_peak_flat_in_distinct_phases(self, pf12):
        # the same 100k samples on 64 and on all 1,024 snapped phases; one
        # deposit row per folded phase held 512 × 4,097 doubles (16.8 MB)
        rng = np.random.default_rng(335)
        thetas = detection.PhaseSchedule("uniform_random").phases(100_000, rng)
        qs = rng.normal(0.0, 1.5, thetas.size)
        peaks = {}
        for n_phases in (64, detection.PHASE_SNAP):
            step = 2.0 * np.pi / n_phases
            ds = detection.QuadratureDataset(thetas=np.floor(thetas / step) * step, qs=qs,
                                             meta=_meta(detection.PhaseSchedule("uniform_random")))
            patterns.rho_from_quadratures(ds, pf12)   # warm caches
            tracemalloc.start()
            try:
                rho, _ = patterns.rho_from_quadratures(ds, pf12)
                peaks[n_phases] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rho.meta["d_phases"] == n_phases // 2
        assert peaks[detection.PHASE_SNAP] <= 1.2 * peaks[64]
        assert peaks[detection.PHASE_SNAP] <= 15e6


def _populations(ds, pf):
    rho, err = patterns.rho_from_quadratures(ds, pf)
    return rho.populations(), np.diag(err)


class TestPnPhaseAveraged:
    """Photon-number distributions of phase-averaged records."""

    def test_vacuum(self, vacuum, pf8):
        ds = detection.sample_quadratures(
            vacuum, detection.PhaseSchedule("uniform_random"),
            detection.DetectorModel(), 100_000, seed=320)
        p, se = _populations(ds, pf8)
        assert abs(p[0] - 1.0) <= 2.0 / np.sqrt(100_000) * 2
        assert np.all(np.abs(p[1:]) <= 4 * se[1:] + 1e-3)

    def test_thermal_bose_einstein(self, thermal1, pf8):
        ds = detection.sample_quadratures(
            thermal1, detection.PhaseSchedule("swept_linear"),
            detection.DetectorModel(), 200_000, seed=321)
        p, se = _populations(ds, pf8)
        expect = 0.5 ** (np.arange(8) + 1)
        assert np.max(np.abs(p - expect) / se) < 4.0

    def test_fock1(self, fock1, pf8):
        ds = detection.sample_quadratures(
            fock1, detection.PhaseSchedule("uniform_random"),
            detection.DetectorModel(), 100_000, seed=322)
        p, se = _populations(ds, pf8)
        assert p[1] >= 0.95

    def test_lossy_record_gives_smoothed_state(self, pf8):
        # no loss inversion: an η < 1 record reconstructs the smoothed state.
        # Smoothing a thermal state is again thermal, with
        # nbar' = nbar + (1/η − 1)/2 (Gaussian variances add) — an exact oracle.
        nbar, eta = 0.6, 0.5
        rho = states.make_state(states.StateSpec("thermal", nbar=nbar))
        ds = detection.sample_quadratures(
            rho, detection.PhaseSchedule("uniform_random"),
            detection.DetectorModel(eta_q=eta), 200_000, seed=325)
        p, se = _populations(ds, pf8)
        nbar_s = nbar + (1.0 / eta - 1.0) / 2.0
        expect = nbar_s ** np.arange(8) / (1 + nbar_s) ** (np.arange(8) + 1)
        assert np.max(np.abs(p - expect) / se) < 4.0

    def test_stderr_bounded_by_two_over_sqrt_n(self, thermal1, pf8):
        # |M_nn| stays near 2, so the error bars stay near the 2/√N ceiling
        ds = detection.sample_quadratures(
            thermal1, detection.PhaseSchedule("uniform_random"),
            detection.DetectorModel(), 50_000, seed=324)
        _, se = _populations(ds, pf8)
        assert np.all(se <= 2.2 / np.sqrt(50_000))


#: one state of each StateSpec kind, with at most ~1e-6 of its weight on
#: photon numbers of 12 and more, so a dim-12 table sees no truncation bias
PHASE_AVERAGED_STATES = {
    "vacuum": states.StateSpec("vacuum"),
    "fock": states.StateSpec("fock", n=2),
    "coherent": states.StateSpec("coherent", alpha=1 + 0.5j),
    "thermal": states.StateSpec("thermal", nbar=0.5),
    "squeezed_vacuum": states.StateSpec("squeezed_vacuum", r=0.4, phi=0.6),
    "squeezed_coherent": states.StateSpec("squeezed_coherent", alpha=0.6 - 0.4j, r=0.3,
                                          phi=1.1),
}
#: (schedule kind, state kind, seed), the seeds fixed before any run
PHASE_AVERAGED_CASES = [(sched, kind, 2131 + 6 * i + j)
                        for i, sched in enumerate(("uniform_random", "swept_linear"))
                        for j, kind in enumerate(PHASE_AVERAGED_STATES)]


class TestRandomAndSweptRecords:
    def test_every_state_kind_is_covered(self):
        assert tuple(PHASE_AVERAGED_STATES) == states.StateSpec.KINDS

    @pytest.mark.parametrize("sched, kind, seed", PHASE_AVERAGED_CASES,
                             ids=[f"{s}-{k}" for s, k, _ in PHASE_AVERAGED_CASES])
    def test_elements_within_4_sigma_of_closed_form(self, pf12, sched, kind, seed):
        # P(|z| >= 4) is 6.3e-5 for a real element and less for a complex
        # one, so 12 runs × 78 distinct elements give a false alarm below 6 %;
        # swept errors are conservative
        truth = states.make_state(PHASE_AVERAGED_STATES[kind])
        ds = detection.sample_quadratures(truth, detection.PhaseSchedule(sched),
                                          detection.DetectorModel(), 100_000, seed)
        rho, err = patterns.rho_from_quadratures(ds, pf12)
        z = np.abs(rho.elements - truth.elements[:12, :12]) / err
        assert np.max(z) < 4.0
