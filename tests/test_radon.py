import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gaussian_quadrature_variance, lossy_wigner
from oracles import radon_forward
from ohtlab import detection, radon, states
from ohtlab._rng import stream
from ohtlab.errors import ConfigError, CoverageError


def _dataset(rho, n, seed, d=64, det=None, schedule=None):
    det = det or detection.DetectorModel()
    return detection.sample_quadratures(
        rho, schedule or detection.PhaseSchedule("grid", d=d), det, n, seed)


# the per-bin histogram loop and the pair-resampling bootstrap that the
# count table replaced, kept as references
def _reference_projections(thetas, qs, n_phase_bins):
    dtheta = np.pi / n_phase_bins
    theta_f, q_f = detection.fold_phases(*detection.fold_phases(thetas, qs), lower=-dtheta / 2)
    bin_idx = np.clip(np.rint(theta_f / dtheta).astype(int), 0, n_phase_bins - 1)
    edges = np.linspace(-radon.Q_SPAN, radon.Q_SPAN, radon.Q_BINS + 1)
    dq = edges[1] - edges[0]
    proj = np.zeros((n_phase_bins, radon.Q_BINS))
    counts = np.zeros(n_phase_bins, dtype=int)
    mean_theta = np.arange(n_phase_bins) * dtheta
    for b in range(n_phase_bins):
        sel = bin_idx == b
        counts[b] = int(sel.sum())
        if counts[b]:
            h, _ = np.histogram(q_f[sel], bins=edges)
            proj[b] = h / (counts[b] * dq)
            mean_theta[b] = float(np.mean(theta_f[sel]))
    return proj, counts, mean_theta


def _reference_pair_bootstrap(ds, n_boot, seed):
    rng = np.random.default_rng(seed)
    n = len(ds)
    acc = acc2 = 0.0
    for _ in range(n_boot):
        idx = rng.integers(0, n, size=n)
        sub = detection.QuadratureDataset(thetas=ds.thetas[idx], qs=ds.qs[idx], meta=ds.meta)
        w = radon.filtered_backprojection(sub).values
        acc, acc2 = acc + w, acc2 + w**2
    mean = acc / n_boot
    return np.sqrt(np.clip(acc2 / n_boot - mean**2, 0.0, None) * n_boot / (n_boot - 1))


# the per-bin np.interp back-projection loop over the whole grid, kept as
# the reference of the one back-projection path
def _reference_backproject_loop(filtered, theta_proj, n_phase_bins):
    axis = states.default_grid_axis()
    Q, P = np.meshgrid(axis, axis, indexing="ij")
    w = np.zeros_like(Q)
    for b, th in enumerate(theta_proj):
        x = Q * np.cos(th) + P * np.sin(th)
        w += np.interp(x.ravel(), radon._CENTERS, filtered[b], left=0.0, right=0.0).reshape(Q.shape)
    return w * (np.pi / n_phase_bins) / (4.0 * np.pi**2)


def _reference_table_bootstrap(ds, n_boot, seed):
    """One whole-grid back-projection loop per multinomial replicate, on the
    same draws, at the phases the table fixes, normalized by its grid sum."""
    rng = stream(seed, "bootstrap")
    t = radon.count_table(ds)
    n = len(ds)
    area = (states.default_grid_axis()[1] - states.default_grid_axis()[0]) ** 2
    acc = acc2 = 0.0
    for _ in range(n_boot):
        draw = rng.multinomial(n, t.hist.ravel() / n).reshape(t.hist.shape)
        filtered = radon._filtered(radon._projections(draw)[0], 5.0)
        w = _reference_backproject_loop(filtered, t.phases, len(t.phases))
        w /= w.sum() * area
        acc, acc2 = acc + w, acc2 + w**2
    mean = acc / n_boot
    return np.sqrt(np.clip(acc2 / n_boot - mean**2, 0.0, None) * n_boot / (n_boot - 1))


def _table_projections(thetas, qs, n_phase_bins):
    """Projections, bin counts and bin phases of a record's count table."""
    t = radon._count_table(thetas, qs, n_phase_bins)
    return (*radon._projections(t.hist), t.phases)


class TestFilteredBackprojection:
    def test_vacuum_reconstruction(self, vacuum):
        ds = _dataset(vacuum, 200_000, seed=201)
        w = radon.filtered_backprojection(ds)
        Q, P = np.meshgrid(w.q_axis, w.p_axis, indexing="ij")
        truth = np.exp(-(Q**2) - P**2) / np.pi
        assert np.max(np.abs(w.values - truth)) <= 0.015
        assert w.integral() == pytest.approx(1.0, abs=1e-3)

    def test_consistency_loop_smoothed_fock1(self, fock1):
        # sample(ρ, η) -> FBP ≈ the closed-form W of the detected record
        eta = 0.55
        ds = _dataset(fock1, 500_000, seed=202,
                      det=detection.DetectorModel(eta_q=eta))
        rec = radon.filtered_backprojection(ds)
        expect = lossy_wigner(fock1, eta)
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
        # 40 phases on [0, 0.5] get 32 bins, of which they reach 6
        ds = _dataset(vacuum, 10_000, seed=206,
                      schedule=detection.PhaseSchedule("grid", d=40, span=(0.0, 0.5)))
        assert radon.count_table(ds).hist.shape == (32, radon.Q_BINS + 2)
        with pytest.raises(CoverageError, match="empty phase bins"):
            radon.filtered_backprojection(ds)

    def test_low_count_flag(self, vacuum):
        ds = _dataset(vacuum, 2_000, seed=207, d=64)
        w = radon.filtered_backprojection(ds)
        assert w.meta.get("low_count_warning")

    def test_folding_consistency(self, coherent1):
        # data over [0, 2π) and its manually folded copy reconstruct identically
        ds = _dataset(coherent1, 100_000, seed=208)
        theta_f, q_f = radon.fold_phases(ds.thetas, ds.qs)
        folded = detection.QuadratureDataset(thetas=theta_f, qs=q_f, meta=ds.meta)
        a = radon.filtered_backprojection(ds)
        b = radon.filtered_backprojection(folded)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    @pytest.mark.parametrize("k_c", [-1.0, 0.0, np.inf, np.nan])
    def test_cutoff_validation(self, vacuum, k_c):
        # the cutoff is refused before the record is binned
        ds = _dataset(vacuum, 2_000, seed=207, d=1)
        with pytest.raises(ConfigError):
            radon.filtered_backprojection(ds, k_c=k_c)
        with pytest.raises(ConfigError):
            radon.bootstrap_backprojection(ds, k_c=k_c, n_boot=2)

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
        # kept copy of the fold-then-wrap steps the phase binning ran
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
        for a, b in zip(_table_projections(thetas, qs, n_phase_bins),
                        _table_projections(*want, n_phase_bins)):
            assert np.array_equal(a, b)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_count_table_matches_per_bin_loop(self, data):
        n_phase_bins = data.draw(st.sampled_from([2, 3, 32, 33]), label="n_phase_bins")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # a grid of 4·n_phase_bins phases puts every other one on a bin edge
        if data.draw(st.booleans(), label="grid"):
            thetas = rng.integers(0, 4 * n_phase_bins, 2_000) * (np.pi / (2 * n_phase_bins))
        else:
            thetas = rng.random(2_000) * 2 * np.pi
        qs = rng.normal(0.0, 2.0, thetas.size)
        k = np.arange(4 * n_phase_bins + 1) * (np.pi / (2 * n_phase_bins))
        near = np.concatenate([k, np.nextafter(k, -1.0), np.nextafter(k, 7.0)])
        near = near[(near >= 0) & (near < 2 * np.pi)]
        q_span = radon.Q_SPAN
        q_near = [-q_span, q_span, np.nextafter(q_span, 0.0), np.nextafter(q_span, 9.0),
                  np.nextafter(-q_span, 0.0), np.nextafter(-q_span, -9.0), 8.5, -8.5, 1e3, -1e3,
                  0.0, radon._EDGES[100], np.nextafter(radon._EDGES[100], -1.0)]
        extra = data.draw(st.lists(st.tuples(
            st.sampled_from(near.tolist()),
            st.one_of(st.sampled_from(q_near), st.floats(-12.0, 12.0))), max_size=60),
            label="extra")
        if extra:
            thetas = np.concatenate([thetas, [t for t, _ in extra]])
            qs = np.concatenate([qs, [q for _, q in extra]])
        want = _reference_projections(thetas, qs, n_phase_bins)
        got = _table_projections(thetas, qs, n_phase_bins)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.max(np.abs(got[2] - want[2])) <= 1e-12
        w = radon.filtered_backprojection(radon._count_table(thetas, qs, n_phase_bins))
        w_ref = radon._backproject(*want, 5.0)
        assert w.meta["bin_counts"] == w_ref.meta["bin_counts"]
        assert np.max(np.abs(w.values - w_ref.values)) <= 1e-12


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

    @pytest.mark.parametrize("schedule", [detection.PhaseSchedule("grid", d=64),
                                          detection.PhaseSchedule("uniform_random")])
    def test_table_draws_match_pair_resampling(self, fock1, schedule):
        # multinomial draws over the count table and resampled (θ, q) pairs
        # give the same law for FBP, so the σ maps agree to Monte-Carlo error
        ds = _dataset(fock1, 20_000, seed=212, schedule=schedule)
        se = radon.bootstrap_backprojection(ds, n_boot=200, seed=3).values
        ref = _reference_pair_bootstrap(ds, 200, seed=4)
        upper = ref >= np.median(ref)
        assert 0.95 <= np.median(se[upper] / ref[upper]) <= 1.05

    @pytest.mark.parametrize("record", ["grid", "uniform_random", "mixed", "readme"])
    def test_blocks_match_backproject_loop(self, fock1, record):
        # 17 replicates cross a block boundary; grid bins are all locked,
        # random ones never, and the mixed record holds both: its random
        # phases on [0, π/2) reach bins 0-16, which leaves 15 bins locked.
        # On the README's 128-phase grid, folded partners an ulp apart split
        # across bin edges and leave 25 of the 32 bins unlocked
        grid = _dataset(fock1, 12_000, seed=213)
        rand = _dataset(fock1, 12_000, seed=214,
                        schedule=detection.PhaseSchedule("uniform_random"))
        if record == "grid":
            ds = grid
        elif record == "uniform_random":
            ds = rand
        elif record == "readme":
            ds = _dataset(fock1, 12_000, seed=220, d=128)
        else:
            keep = rand.thetas % np.pi < np.pi / 2
            ds = detection.QuadratureDataset(
                thetas=np.concatenate([grid.thetas, rand.thetas[keep]]),
                qs=np.concatenate([grid.qs, rand.qs[keep]]), meta=grid.meta)
        t = radon.count_table(ds)
        assert t.hist.shape == (32, radon.Q_BINS + 2)
        # a locked bin, one whose samples share one phase key, projects at
        # its smallest folded phase
        folded = detection.fold_phases(*detection.fold_phases(ds.thetas, ds.qs),
                                       lower=-np.pi / 64)[0]
        bins = np.clip(np.rint(folded / (np.pi / 32)).astype(int), 0, 31)
        keys = detection.phase_keys(folded)
        locked = np.array([np.unique(keys[bins == b]).size == 1 for b in range(32)])
        assert locked.sum() == {"grid": 32, "uniform_random": 0, "mixed": 15, "readme": 7}[record]
        for b in np.flatnonzero(locked):
            assert t.phases[b] == folded[bins == b].min()
        se = radon.bootstrap_backprojection(ds, n_boot=17, seed=5)
        ref = _reference_table_bootstrap(ds, 17, seed=5)
        assert se.meta["n_boot"] == 17
        assert np.max(np.abs(se.values - ref)) <= 1e-12
        # the pixels asked for give the full map's errors there, NaN elsewhere
        pixels = [(100, 100), (0, 0), (100, 130), (200, 37)]
        at = radon.bootstrap_backprojection(ds, n_boot=17, seed=5, pixels=pixels)
        rows, cols = np.array(pixels).T
        assert np.max(np.abs(at.values[rows, cols] - se.values[rows, cols])) <= 1e-12
        assert np.isnan(at.values).sum() == at.values.size - len(pixels)

    def test_origin_stderr_keeps_its_digits(self, fock1):
        # at a Fock |1> origin |W|/σ is large, so Σ W² − n·mean² would cancel
        # digits; the same replicates, the multinomial draws of the count
        # table, through filtered_backprojection and a two-pass std
        table = radon.count_table(_dataset(fock1, 60_000, seed=217))
        i = int(np.argmin(np.abs(states.default_grid_axis())))
        se = radon.bootstrap_backprojection(table, n_boot=20, seed=6, pixels=[(i, i)])
        rng = stream(6, "bootstrap")
        n = int(table.hist.sum())
        origins = [radon.filtered_backprojection(radon.CountTable(
            rng.multinomial(n, table.hist.ravel() / n).reshape(table.hist.shape),
            table.phases)).values[i, i] for _ in range(20)]
        assert se.values[i, i] == pytest.approx(np.std(origins, ddof=1), rel=1e-13, abs=0)

    @pytest.mark.parametrize("n_boot", [-1, 0, 1])
    def test_fewer_than_two_replicates_refused(self, vacuum, n_boot):
        ds = _dataset(vacuum, 5_000, seed=215)
        with pytest.raises(ConfigError):
            radon.bootstrap_backprojection(ds, n_boot=n_boot, seed=1)

    def test_memory_flat_in_replicates(self, fock1):
        # replicates go in fixed blocks, so 4× the replicates may not need
        # more than 1.5× the peak allocation
        ds = _dataset(fock1, 20_000, seed=216)
        radon.bootstrap_backprojection(ds, n_boot=2, seed=1)    # builds the cached filter
        peaks = {}
        for n_boot in (16, 64):
            tracemalloc.start()
            try:
                radon.bootstrap_backprojection(ds, n_boot=n_boot, seed=1)
                peaks[n_boot] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.5 * peaks[16]


class TestSharedPhaseOperator:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_column_sums_give_the_grid_sum(self, data):
        # a replicate's grid sum is its projection's dot product with the
        # column sums; the phases hold a bin centre, random values and one
        # that puts the grid corners (±6, ±6) exactly on _CENTERS[-1]
        corner = np.arcsin(radon._CENTERS[-1] / (6.0 * np.sqrt(2.0))) - np.pi / 4
        assert 6.0 * np.cos(corner) + 6.0 * np.sin(corner) == radon._CENTERS[-1]
        theta = data.draw(st.one_of(st.just(corner), st.just(5 * np.pi / 32),
                                    st.floats(-np.pi / 2, np.pi)), label="theta")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        f = rng.normal(0.0, 1.0, radon.Q_BINS)
        axis = states.default_grid_axis()
        x = axis[:, None] * np.cos(theta) + axis * np.sin(theta)
        terms = np.interp(x.ravel(), radon._CENTERS, f, left=0.0, right=0.0)
        assert abs(radon._column_sums(theta) @ f - terms.sum()) <= 1e-12 * np.abs(terms).sum()

    def test_column_sums_are_cached_read_only(self):
        sums = radon._column_sums(0.25)
        assert radon._column_sums(0.25) is sums
        assert not sums.flags.writeable


class TestRampFilterCache:
    def test_fbp_matches_freshly_built_filter(self, coherent1):
        # the cached matrix gives the same bytes as building κ for this call
        ds = _dataset(coherent1, 20_000, seed=210)
        w = radon.filtered_backprojection(ds)
        radon.ramp_filter_matrix.cache_clear()
        fresh = radon.filtered_backprojection(ds)
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

    # the ids name the one filter kernel, as the reports do
    @pytest.mark.parametrize("k_c", [3.0, 5.0, 7.3], ids=lambda k_c: f"{k_c}-{radon.KERNEL}")
    def test_half_lags_match_every_lag(self, k_c):
        # κ is even: the matrix from the q_bins non-negative lags equals the
        # one built from all 2·q_bins − 1 signed lags
        q_bins, dq = 256, 16.0 / 256
        lags = np.arange(-(q_bins - 1), q_bins) * dq
        idx = np.arange(q_bins)[:, None] - np.arange(q_bins)[None, :] + q_bins - 1
        every = radon.ramp_kernel_profile(lags, k_c)[idx]
        assert np.array_equal(radon.ramp_filter_matrix(q_bins, dq, k_c), every)

    @pytest.mark.parametrize("k_c", [3.0, 5.0, 7.3, 10.0],
                             ids=lambda k_c: f"{k_c}-{radon.KERNEL}")
    def test_lag_chunks_match_one_product(self, k_c):
        # kept copy of the profile evaluated over every lag in one product
        xi = np.linspace(0.0, k_c, 4001)
        w = np.ones_like(xi)
        edge = 0.8 * k_c
        tail = xi > edge
        w[tail] = 0.5 * (1.0 + np.cos(np.pi * (xi[tail] - edge) / (k_c - edge)))
        u = np.arange(256) * (16.0 / 256)
        want = 2.0 * np.trapezoid((xi * w)[None, :] * np.cos(np.outer(u, xi)), xi, axis=1)
        assert np.array_equal(radon.ramp_kernel_profile(u, k_c), want)

    def test_cached_matrix_is_read_only(self):
        kappa = radon.ramp_filter_matrix(256, 16.0 / 256, 5.0)
        assert not kappa.flags.writeable
        with pytest.raises(ValueError):
            kappa[0, 0] = 1.0

    def test_key_separates_cutoff_and_kernel(self):
        dq = 16.0 / 256
        base = radon.ramp_filter_matrix(256, dq, 5.0)
        assert radon.ramp_filter_matrix(256, dq, 5.0) is base
        assert not np.array_equal(radon.ramp_filter_matrix(256, dq, 4.0), base)


class TestLossSmoothing:
    """The W of a record taken at efficiency η, from the closed-form loss
    channel (conftest.lossy_wigner): W convolved with a Gaussian of per-axis
    variance (1/η − 1)/2."""

    def test_near_unity_eta_is_identity(self, fock1):
        w = states.wigner_from_rho(fock1)
        out = lossy_wigner(fock1, 0.999)
        assert np.max(np.abs(out.values - w.values)) <= 1e-3

    def test_vacuum_broadens_to_known_gaussian(self, vacuum):
        eta = 0.6
        out = lossy_wigner(vacuum, eta)
        var = (1.0 / eta - 1.0) / 2.0 + 0.5
        Q, P = np.meshgrid(out.q_axis, out.p_axis, indexing="ij")
        expect = np.exp(-(Q**2 + P**2) / (2 * var)) / (2 * np.pi * var)
        assert np.max(np.abs(out.values - expect)) < 1e-15

    def test_fock1_origin_matches_direct_convolution(self, fock1):
        # brute-force convolution oracle at the origin, sampled kernel
        eta = 0.55
        w = states.wigner_from_rho(fock1)
        out = lossy_wigner(fock1, eta)
        var = (1.0 / eta - 1.0) / 2.0
        Q, P = np.meshgrid(w.q_axis, w.p_axis, indexing="ij")
        kern = np.exp(-(Q**2 + P**2) / (2 * var))
        kern /= kern.sum() * w.dq * w.dp
        direct = np.sum(w.values * kern) * w.dq * w.dp  # value at (0, 0)
        i = np.argmin(np.abs(out.q_axis))
        assert out.values[i, i] == pytest.approx(direct, abs=1e-6)
        # analytic cross-check: smoothed Fock-1 origin value is −η(2η−1)/π
        assert out.values[i, i] == pytest.approx(-eta * (2 * eta - 1) / np.pi, abs=1e-15)

    def test_eta_bounds(self, vacuum, fock1):
        for eta in (0.0, -0.2, 1.3, float("nan")):
            with pytest.raises(ConfigError):
                states.apply_loss(vacuum, eta)
        assert np.array_equal(states.apply_loss(fock1, 1.0).elements, fock1.elements)


class TestRadonForward:
    def test_vacuum_any_angle(self, vacuum):
        w = states.wigner_from_rho(vacuum)
        for theta in (0.0, 1.1, 2.2):
            pr = radon_forward(w, theta)
            assert np.max(np.abs(pr - np.exp(-w.q_axis**2) / np.sqrt(np.pi))) < 1e-5

    def test_matches_quadrature_pdf(self, constructed_states):
        for rho in constructed_states.values():
            w = states.wigner_from_rho(rho)
            for theta in (0.0, np.pi / 7, np.pi / 2):
                pr = radon_forward(w, theta)
                assert np.max(np.abs(pr - states.quadrature_pdf(rho, theta, w.q_axis))) < 1e-4

    def test_squeezed_variance_swap(self, squeezed05):
        w = states.wigner_from_rho(squeezed05)
        var = {}
        for theta in (0.0, np.pi / 2):
            pr = radon_forward(w, theta)
            var[theta] = np.trapezoid(w.q_axis**2 * pr, w.q_axis)
        assert var[0.0] == pytest.approx(gaussian_quadrature_variance(0.5, 0.0), abs=1e-4)
        assert var[np.pi / 2] == pytest.approx(gaussian_quadrature_variance(0.5, np.pi / 2), abs=1e-4)


class TestCountTable:
    def test_table_gives_the_dataset_bytes(self, fock1):
        # a run passes one table to both functions; the results and the
        # replicate draws stay those of the dataset
        ds = _dataset(fock1, 20_000, seed=217)
        table = radon.count_table(ds)
        assert np.array_equal(radon.filtered_backprojection(table, k_c=4.0).values,
                              radon.filtered_backprojection(ds, k_c=4.0).values)
        assert np.array_equal(radon.bootstrap_backprojection(table, 4.0, n_boot=3, seed=4).values,
                              radon.bootstrap_backprojection(ds, 4.0, n_boot=3, seed=4).values)

    @pytest.mark.parametrize("d, n_phase_bins", [(4, 2), (12, 6), (62, 31), (64, 32),
                                                 (128, 32)])
    def test_bins_are_the_folded_phases_up_to_32(self, vacuum, d, n_phase_bins):
        assert len(radon.count_table(_dataset(vacuum, 2_000, seed=218, d=d)).phases) == \
            n_phase_bins

    @pytest.mark.parametrize("d", [1, 2])      # a 2-phase grid folds onto one phase
    def test_one_phase_record_refused(self, vacuum, d):
        with pytest.raises(CoverageError, match="1 distinct phase"):
            radon.count_table(_dataset(vacuum, 500, seed=218, d=d))

    def test_library_and_cli_agree(self, fock1, tmp_path):
        # a 12-phase grid folds onto 6 phases, so both take 6 bins, one a phase
        from ohtlab import cli, formats

        ds = _dataset(fock1, 12_000, seed=221, d=12)
        formats.write_quadrature_dataset(tmp_path / "ds.jsonl", ds)
        assert cli.main(["reconstruct", "--input", str(tmp_path / "ds.jsonl"), "--method",
                         "radon", "--out", str(tmp_path / "o")]) == 0
        w = radon.filtered_backprojection(ds)
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["radon"]["bin_counts"] == w.meta["bin_counts"]
        assert len(w.meta["bin_counts"]) == 6
        csv = np.loadtxt(tmp_path / "o" / "wigner.csv", delimiter=",", skiprows=1)
        assert np.array_equal(csv[:, 2], w.values.ravel())

    def test_reconstruct_builds_one_table(self, vacuum, tmp_path, monkeypatch):
        from ohtlab import cli, formats

        formats.write_quadrature_dataset(tmp_path / "ds.jsonl", _dataset(vacuum, 5_000, seed=219))
        calls = []
        build = radon._count_table

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(radon, "_count_table", counted)
        assert cli.main(["reconstruct", "--input", str(tmp_path / "ds.jsonl"), "--method",
                         "radon", "--bootstrap", "3", "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
