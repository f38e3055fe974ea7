import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from ohtlab import detection, moments, states, twomode
from ohtlab._rng import stream
from ohtlab.errors import ConfigError

DET = detection.DetectorModel()
RAND = detection.PhaseSchedule("uniform_random")


def fixed(phase):
    """The one-phase grid at phase."""
    return detection.PhaseSchedule("grid", d=1, span=(phase, phase + 0.1))


def _correlated_thermal(nbar, corr):
    return twomode.TwoModeState("planted", law=twomode.correlated_thermal_law(nbar, corr))


def _planted_record(law, n, seed):
    """The photon numbers (n₁, n₂) and mode quadratures (q₁, q₂) that
    combined_quadrature_samples draws for the planted law at seed."""
    n1, n2 = law(stream(seed, "numbers"), n)
    return (n1, n2, detection.draw_fock_quadratures(n1, stream(seed, "quadrature-1")),
            detection.draw_fock_quadratures(n2, stream(seed, "quadrature-2")))


def _three_alpha_runs(st_, n, seed, det=DET):
    runs = []
    for i, alpha in enumerate((0.0, np.pi / 4, np.pi / 2)):
        runs.append(twomode.combined_quadrature_samples(
            st_, alpha, det, n, seed + 17 * i,
            theta_schedule=RAND, zeta_schedule=RAND))
    return runs


class TestCombinedSamples:
    def test_alpha_zero_is_mode_one(self, coherent1, vacuum):
        st_ = twomode.TwoModeState("product", rho1=coherent1, rho2=vacuum)
        ds = twomode.combined_quadrature_samples(st_, 0.0, DET, 50_000, seed=700,
                                                 theta_schedule=fixed(0.3),
                                                 zeta_schedule=fixed(1.0))
        ref = detection.sample_quadratures(
            coherent1, detection.PhaseSchedule("grid", d=1, span=(0.3, 0.4)),
            DET, 50_000, seed=701)
        assert ks_2samp(ds.qs, ref.qs).pvalue > 0.01

    def test_alpha_half_pi_is_mode_two(self, thermal1, vacuum):
        st_ = twomode.TwoModeState("product", rho1=vacuum, rho2=thermal1)
        ds = twomode.combined_quadrature_samples(st_, np.pi / 2, DET, 50_000, seed=702,
                                                 theta_schedule=fixed(0.9),
                                                 zeta_schedule=fixed(0.2))
        # thermal quadratures are phase independent
        ref = detection.sample_quadratures(
            thermal1, detection.PhaseSchedule("grid", d=1, span=(0.7, 0.8)),
            DET, 50_000, seed=703)
        assert ks_2samp(ds.qs, ref.qs).pvalue > 0.01

    def test_vacuum_pair_unit_mode(self, vacuum):
        st_ = twomode.TwoModeState("product", rho1=vacuum, rho2=vacuum)
        for alpha in (0.3, 0.7, 1.2):
            ds = twomode.combined_quadrature_samples(
                st_, alpha, DET, 60_000, seed=704,
                theta_schedule=RAND, zeta_schedule=RAND)
            assert ds.qs.var() == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("phase", [0.2, 0.3, 0.9, 1.0, 2.5])
    def test_fixed_phase_is_a_one_phase_grid(self, phase):
        assert np.array_equal(fixed(phase).phases(1_000, None), np.full(1_000, phase))

    def test_balance_imbalance_shifts_the_mean(self, vacuum):
        # the single-detector offset b·η_q·√N_LO/(√2·η_eff), added after the noise
        st_ = twomode.TwoModeState("product", rho1=vacuum, rho2=vacuum)
        det = detection.DetectorModel(eta_q=0.8, eta_ls=0.9, sigma_e=20.0,
                                      balance_imbalance=3e-4)
        runs = [twomode.combined_quadrature_samples(st_, np.pi / 4, d, 5_000, seed=706,
                                                    theta_schedule=RAND, zeta_schedule=RAND)
                for d in (det, detection.DetectorModel(eta_q=0.8, eta_ls=0.9, sigma_e=20.0))]
        offset = 3e-4 * 0.8 * np.sqrt(1e6) / (np.sqrt(2.0) * det.eta_eff)
        assert runs[0].qs.mean() - runs[1].qs.mean() == pytest.approx(offset, rel=1e-9)
        assert runs[0].meta.detector.balance_imbalance == 3e-4

    @pytest.mark.parametrize("alpha", [0.0, np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2])
    def test_record_is_the_cos_sin_mix_of_the_planted_modes(self, alpha):
        # with an ideal detector Q = cos α q₁ + sin α q₂ exactly, pulse by pulse
        law = twomode.correlated_thermal_law(1.0, 0.5)
        ds = twomode.combined_quadrature_samples(
            twomode.TwoModeState("planted", law=law), alpha, DET, 5_000, seed=707,
            theta_schedule=RAND, zeta_schedule=RAND)
        _, _, q1, q2 = _planted_record(law, 5_000, 707)
        assert np.array_equal(ds.qs, np.cos(alpha) * q1 + np.sin(alpha) * q2)

    @pytest.mark.parametrize("alpha, swapped", [(0.0, "rho2"), (np.pi / 2, "rho1")])
    def test_end_angles_ignore_the_other_mode(self, coherent1, thermal1, vacuum, alpha, swapped):
        # α = 0 measures mode 1 alone and α = π/2 mode 2 alone: the unread
        # mode's state moves no sample beyond cos(π/2) ≈ 6e-17 of its quadrature
        base = dict(rho1=coherent1, rho2=coherent1)
        runs = [twomode.combined_quadrature_samples(
            twomode.TwoModeState("product", **{**base, swapped: rho}), alpha, DET, 5_000,
            seed=708, theta_schedule=RAND, zeta_schedule=RAND) for rho in (vacuum, thermal1)]
        assert np.allclose(runs[0].qs, runs[1].qs, rtol=0.0, atol=1e-12)

    def test_alpha_half_pi_reads_mode_two_at_theta_minus_zeta(self, vacuum):
        # mode 2 is read at β = θ − ζ: a coherent amplitude there has the
        # quadrature distribution of the single-mode record at phase β
        theta, zeta = 1.4, 0.5
        rho2 = states.make_state(states.StateSpec("coherent", alpha=1.5 * np.exp(0.3j)))
        st_ = twomode.TwoModeState("product", rho1=vacuum, rho2=rho2)
        ds = twomode.combined_quadrature_samples(st_, np.pi / 2, DET, 50_000, seed=709,
                                                 theta_schedule=fixed(theta),
                                                 zeta_schedule=fixed(zeta))
        ref = detection.sample_quadratures(rho2, fixed(theta - zeta), DET, 50_000, seed=711)
        assert ks_2samp(ds.qs, ref.qs).pvalue > 0.01
        assert ds.qs.mean() == pytest.approx(np.sqrt(2) * 1.5 * np.cos(0.3 - (theta - zeta)),
                                             abs=0.02)

    def test_alpha_range(self, vacuum):
        st_ = twomode.TwoModeState("product", rho1=vacuum, rho2=vacuum)
        with pytest.raises(ValueError):
            twomode.combined_quadrature_samples(st_, 2.0, DET, 100, seed=1,
                                                theta_schedule=RAND, zeta_schedule=RAND)


def _reference_fock_draw(ns, u):
    """Kept copy of the per-level Fock sampler two-mode records used before
    it moved to detection.draw_fock_quadratures."""
    q_grid = np.linspace(-detection.PDF_SPAN, detection.PDF_SPAN, detection.PDF_POINTS)
    n_max = int(ns.max()) if ns.size else 0
    psi = states.hermite_psi_all(n_max, q_grid)
    out = np.empty(ns.size, float)
    dq = q_grid[1] - q_grid[0]
    for n in np.unique(ns):
        sel = ns == n
        pdf = psi[n] ** 2
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * dq)])
        cdf /= cdf[-1]
        out[sel] = np.interp(u[sel], cdf, q_grid)
    return out


class TestFockDraw:
    @given(st.lists(st.integers(0, 25), min_size=1, max_size=300),
           st.integers(0, 2**32 - 1))
    @example(ns=[0] * 1_000, seed=3)
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, ns, seed):
        ns = np.array(ns)
        got = detection.draw_fock_quadratures(ns, stream(seed, "q"))
        assert np.array_equal(got, _reference_fock_draw(ns, stream(seed, "q").random(ns.size)))


class TestGrips:
    def test_dual_lo_grips_equivalence_ks(self):
        # measuring Q(α,θ,ζ) on a coherent pair equals measuring the plain
        # quadrature of the GRIPS-rotated mode â₃ = cos α â₁ + e^{iζ} sin α â₂:
        # same observable
        a1, a2 = 0.9 + 0.2j, -0.4 + 0.7j
        alpha, theta, zeta = 0.55, 0.8, 2.1
        st_ = twomode.TwoModeState(
            "product",
            rho1=states.make_state(states.StateSpec("coherent", alpha=a1)),
            rho2=states.make_state(states.StateSpec("coherent", alpha=a2)))
        ds = twomode.combined_quadrature_samples(st_, alpha, DET, 60_000, seed=710,
                                                 theta_schedule=fixed(theta),
                                                 zeta_schedule=fixed(zeta))
        a3 = np.cos(alpha) * a1 + np.exp(1j * zeta) * np.sin(alpha) * a2
        rho3 = states.make_state(states.StateSpec("coherent", alpha=a3))
        ref = detection.sample_quadratures(
            rho3, detection.PhaseSchedule("grid", d=1, span=(theta, theta + 0.1)),
            DET, 60_000, seed=711)
        assert ks_2samp(ds.qs, ref.qs).pvalue > 0.01


class TestTwoTimeG2:
    def test_independent_thermal(self):
        st_ = _correlated_thermal(1.0, 0.0)
        g2, se = twomode.two_time_g2(*_three_alpha_runs(st_, 200_000, seed=720))
        assert g2 == pytest.approx(1.0, abs=0.05)

    def test_perfectly_correlated_pair_vs_planted_oracle(self):
        # brute-force oracle: compute <n1 n2> from the planted photon numbers
        law = twomode.correlated_thermal_law(1.0, 1.0)
        runs = _three_alpha_runs(twomode.TwoModeState("planted", law=law), 200_000, seed=720)
        g2, se = twomode.two_time_g2(*runs)
        n1, n2, _, _ = _planted_record(law, 200_000, 720 + 17)
        n1, n2 = n1.astype(float), n2.astype(float)
        oracle = np.mean(n1 * n2) / (np.mean(n1) * np.mean(n2))
        assert abs(g2 - oracle) < 3 * se
        assert g2 == pytest.approx(3.0, abs=0.15)

    def test_cross_moment_extraction_vs_joint_record(self):
        # (4<<Q⁴>> − <<q1⁴>> − <<q2⁴>>)/6 equals the direct <q1² q2²>
        law = twomode.correlated_thermal_law(1.0, 0.7)
        ds = twomode.combined_quadrature_samples(
            twomode.TwoModeState("planted", law=law), np.pi / 4, DET, 200_000, seed=730,
            theta_schedule=RAND, zeta_schedule=RAND)
        _, _, q1, q2 = _planted_record(law, 200_000, 730)
        direct = np.mean(q1**2 * q2**2)
        m4c = np.mean(ds.qs**4)
        m41 = np.mean(q1**4)
        m42 = np.mean(q2**4)
        extracted = (4 * m4c - m41 - m42) / 6.0
        se = 3 * np.std(q1**2 * q2**2) / np.sqrt(len(ds))
        assert abs(extracted - direct) < 3 * se

    def test_hbt_split_reduces_to_single_mode_g2(self):
        # one thermal mode split onto both arms at zero delay: the three-α
        # method must reproduce Eq.-(3.22)-style g² of the source
        nbar = 1.0
        st_ = twomode.TwoModeState("planted", law=twomode.hbt_split_law(nbar))
        g2, se = twomode.two_time_g2(*_three_alpha_runs(st_, 200_000, seed=740))
        src = states.make_state(states.StateSpec("thermal", nbar=nbar))
        ds = detection.sample_quadratures(src, RAND, DET, 200_000, seed=741)
        g2_direct, se_direct = moments.g2_single(ds)
        assert abs(g2 - g2_direct) < 3 * np.hypot(se, se_direct)

    def test_input_validation(self):
        st_ = _correlated_thermal(0.5, 0.0)
        r0, r45, r90 = _three_alpha_runs(st_, 2_000, seed=750)
        with pytest.raises(ValueError):
            twomode.two_time_g2(r45, r0, r90)           # wrong alpha order
        at_zero = twomode.combined_quadrature_samples(
            st_, 0.0, DET, 2_000, seed=751, theta_schedule=fixed(0.0),
            zeta_schedule=fixed(0.0))
        with pytest.raises(ValueError):
            twomode.two_time_g2(at_zero, r45, r90)      # phases not randomized
        short = twomode.combined_quadrature_samples(
            st_, 0.0, DET, 1_000, seed=752,
            theta_schedule=RAND, zeta_schedule=RAND)
        with pytest.raises(ValueError):
            twomode.two_time_g2(short, r45, r90)        # mismatched counts


class TestThreeAlphaLaws:
    """g² of one (α = 0, π/4, π/2) record triple against each source law."""

    def test_uncorrelated_thermal(self):
        # independent thermal modes: g_11 = g_22 = 2, g_12 = 1
        runs = _three_alpha_runs(_correlated_thermal(1.0, 0.0), 120_000, seed=760)
        for ds in (runs[0], runs[2]):
            g2, se = moments.g2_single(ds)
            assert g2 == pytest.approx(2.0, abs=3 * se + 0.05)
        g12, se = twomode.two_time_g2(*runs)
        assert g12 == pytest.approx(1.0, abs=3 * se + 0.05)

    def test_anticorrelated_pair(self):
        st_ = twomode.TwoModeState("planted", law=twomode.anticorrelated_thermal_law(1.0))
        g12, se = twomode.two_time_g2(*_three_alpha_runs(st_, 120_000, seed=770))
        assert g12 < 1.0 - 3 * se

    def test_poissonian_planted_all_unity(self):
        st_ = twomode.TwoModeState("planted", law=twomode.independent_poisson_law(2.0, 2.0))
        runs = _three_alpha_runs(st_, 120_000, seed=780)
        for key, (val, se) in (("g_11", moments.g2_single(runs[0])),
                               ("g_22", moments.g2_single(runs[2])),
                               ("g_12", twomode.two_time_g2(*runs))):
            assert val == pytest.approx(1.0, abs=3 * se + 0.03), key


class TestCorrelatedThermalLaw:
    def test_correlation_coefficient_validated(self):
        for corr in (1.5, -0.2):
            with pytest.raises(ConfigError, match=r"^number correlation coefficient "
                                                   r"must be in \[0, 1\]$"):
                twomode.correlated_thermal_law(1.0, corr)
        with pytest.raises(ConfigError, match=r"^correlated_thermal needs nbar >= 0$"):
            twomode.correlated_thermal_law(-1.0, 0.5)

    @pytest.mark.parametrize("corr", [0.0, 0.3, 0.7, 1.0])
    def test_thermal_marginals_and_pearson_correlation(self, corr):
        n1, n2 = twomode.correlated_thermal_law(1.0, corr)(stream(740, "numbers"), 200_000)
        pmf = 0.5 ** np.arange(1, 7)      # Bose-Einstein P(n) = n̄ⁿ/(1 + n̄)ⁿ⁺¹ at n̄ = 1
        for n in (n1, n2):
            assert n.mean() == pytest.approx(1.0, abs=0.02)
            counts = np.bincount(n, minlength=6)[:6] / n.size
            assert np.max(np.abs(counts - pmf)) < 0.005
        assert np.corrcoef(n1, n2)[0, 1] == pytest.approx(corr, abs=0.01)

    def test_zero_nbar_is_the_vacuum_pair(self):
        n1, n2 = twomode.correlated_thermal_law(0.0, 0.5)(stream(741, "numbers"), 1_000)
        assert not n1.any() and not n2.any()


class TestTwoModeStateKinds:
    @pytest.mark.parametrize("kwargs, match", [
        ({"kind": "joint"}, "unknown two-mode kind 'joint'"),
        ({"kind": "correlated_thermal"}, "unknown two-mode kind 'correlated_thermal'"),
        ({"kind": "product"}, "product state needs rho1 and rho2"),
        ({"kind": "planted", "law": 1.0}, "planted state needs a callable joint number law"),
    ], ids=["joint", "correlated_thermal", "product-without-rho", "planted-without-law"])
    def test_kind_validated(self, kwargs, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            twomode.TwoModeState(**kwargs)
