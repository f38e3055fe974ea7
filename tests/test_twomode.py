import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from ohtlab import detection, moments, states, twomode
from ohtlab._rng import stream
from ohtlab.errors import UnsupportedStateError

DET = detection.DetectorModel()
RAND = detection.PhaseSchedule("uniform_random")


def fixed(phase):
    """The one-phase grid at phase."""
    return detection.PhaseSchedule("grid", d=1, span=(phase, phase + 0.1))


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

    def test_entangled_joint_rejected(self):
        d = 3
        rho = np.zeros((d * d, d * d), complex)
        rho[0, 0] = rho[4, 4] = 0.5
        rho[0, 4] = rho[4, 0] = 0.5   # |00> + |11> Bell-like coherence
        st_ = twomode.TwoModeState("joint", rho_joint=rho, dims=(d, d))
        with pytest.raises(UnsupportedStateError):
            twomode.combined_quadrature_samples(
                st_, 0.0, DET, 100, seed=1, theta_schedule=fixed(0.0),
                zeta_schedule=fixed(0.0))

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
    def test_gamma_zero_identity_up_to_phase(self):
        u = twomode.grips_transform(0.0, 0.7)
        assert u[0, 0] == 1.0 and u[0, 1] == 0.0
        assert u[1, 0] == 0.0 and abs(abs(u[1, 1]) - 1.0) < 1e-15

    def test_gamma_pi_swaps_with_sign(self):
        u = twomode.grips_transform(np.pi, 0.0)
        assert np.allclose(u, [[0, 1], [-1, 0]], atol=1e-15)

    @given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
    @settings(max_examples=100, deadline=None)
    def test_unitarity(self, gamma, zeta):
        u = twomode.grips_transform(gamma, zeta)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_row0_matches_dual_lo_mode(self):
        # â₃ at γ = 2α equals the dual-LO detected mode coefficients
        alpha, zeta = 0.4, 1.1
        u = twomode.grips_transform(2 * alpha, zeta)
        assert u[0, 0] == pytest.approx(np.cos(alpha), abs=1e-12)
        assert u[0, 1] == pytest.approx(np.exp(1j * zeta) * np.sin(alpha), abs=1e-12)

    def test_dual_lo_grips_equivalence_ks(self):
        # measuring Q(α,θ,ζ) on a coherent pair equals measuring the plain
        # quadrature of the GRIPS-rotated mode a3 (gamma = 2*alpha): same observable
        a1, a2 = 0.9 + 0.2j, -0.4 + 0.7j
        alpha, theta, zeta = 0.55, 0.8, 2.1
        st_ = twomode.TwoModeState(
            "product",
            rho1=states.make_state(states.StateSpec("coherent", alpha=a1)),
            rho2=states.make_state(states.StateSpec("coherent", alpha=a2)))
        ds = twomode.combined_quadrature_samples(st_, alpha, DET, 60_000, seed=710,
                                                 theta_schedule=fixed(theta),
                                                 zeta_schedule=fixed(zeta))
        u = twomode.grips_transform(2 * alpha, zeta)
        a3 = u[0, 0] * a1 + u[0, 1] * a2
        rho3 = states.make_state(states.StateSpec("coherent", alpha=a3))
        ref = detection.sample_quadratures(
            rho3, detection.PhaseSchedule("grid", d=1, span=(theta, theta + 0.1)),
            DET, 60_000, seed=711)
        assert ks_2samp(ds.qs, ref.qs).pvalue > 0.01


class TestTwoTimeG2:
    def test_independent_thermal(self):
        st_ = twomode.TwoModeState("correlated_thermal", nbar=1.0, corr=0.0)
        g2, se = twomode.two_time_g2(*_three_alpha_runs(st_, 200_000, seed=720))
        assert g2 == pytest.approx(1.0, abs=0.05)

    def test_perfectly_correlated_pair_vs_planted_oracle(self):
        # brute-force oracle: compute <n1 n2> from the planted photon numbers
        st_ = twomode.TwoModeState("correlated_thermal", nbar=1.0, corr=1.0)
        runs = []
        for i, alpha in enumerate((0.0, np.pi / 4, np.pi / 2)):
            runs.append(twomode.combined_quadrature_samples(
                st_, alpha, DET, 200_000,
                720 + 17 * i, theta_schedule=RAND, zeta_schedule=RAND,
                keep_joint=True))
        g2, se = twomode.two_time_g2(*runs)
        rec = runs[1].meta.extra["joint_record"]
        n1, n2 = rec["n1"].astype(float), rec["n2"].astype(float)
        oracle = np.mean(n1 * n2) / (np.mean(n1) * np.mean(n2))
        assert abs(g2 - oracle) < 3 * se
        assert g2 == pytest.approx(3.0, abs=0.15)

    def test_cross_moment_extraction_vs_joint_record(self):
        # (4<<Q⁴>> − <<q1⁴>> − <<q2⁴>>)/6 equals the direct <q1² q2²>
        st_ = twomode.TwoModeState("correlated_thermal", nbar=1.0, corr=0.7)
        ds = twomode.combined_quadrature_samples(
            st_, np.pi / 4, DET, 200_000, seed=730,
            theta_schedule=RAND, zeta_schedule=RAND, keep_joint=True)
        rec = ds.meta.extra["joint_record"]
        direct = np.mean(rec["q1"] ** 2 * rec["q2"] ** 2)
        m4c = np.mean(ds.qs**4)
        m41 = np.mean(rec["q1"] ** 4)
        m42 = np.mean(rec["q2"] ** 4)
        extracted = (4 * m4c - m41 - m42) / 6.0
        se = 3 * np.std(rec["q1"] ** 2 * rec["q2"] ** 2) / np.sqrt(len(ds))
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
        st_ = twomode.TwoModeState("correlated_thermal", nbar=0.5, corr=0.0)
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


class TestPolarization:
    def test_waveplate_actions(self):
        # QWP: R → V, L → H (up to phase); HWP: ±45° → V/H (up to phase)
        e_r = np.array([1.0, -1.0j]) / np.sqrt(2)
        e_l = np.array([1.0, 1.0j]) / np.sqrt(2)
        out_r = twomode.QWP_RL_TO_VH @ e_r
        out_l = twomode.QWP_RL_TO_VH @ e_l
        assert abs(out_r[0]) < 1e-12 and abs(abs(out_r[1]) - 1) < 1e-12
        assert abs(out_l[1]) < 1e-12 and abs(abs(out_l[0]) - 1) < 1e-12
        e_p = np.array([1.0, 1.0]) / np.sqrt(2)
        e_m = np.array([1.0, -1.0]) / np.sqrt(2)
        out_p = twomode.HWP_DIAG_TO_VH @ e_p
        out_m = twomode.HWP_DIAG_TO_VH @ e_m
        assert abs(out_p[0]) < 1e-12 and abs(abs(out_p[1]) - 1) < 1e-12
        assert abs(out_m[1]) < 1e-12 and abs(abs(out_m[0]) - 1) < 1e-12
        for wp in (twomode.QWP_RL_TO_VH, twomode.HWP_DIAG_TO_VH):
            assert np.max(np.abs(wp.conj().T @ wp - np.eye(2))) < 1e-12

    def test_uncorrelated_thermal_table(self):
        # equal independent thermal modes are SU(2) invariant, so every basis
        # sees the same law: g_ii = 2, g_12 = 1
        st_ = twomode.TwoModeState("correlated_thermal", nbar=1.0, corr=0.0)
        runs = {b: _three_alpha_runs(st_, 120_000, seed=760 + 5 * i)
                for i, b in enumerate(twomode.POLARIZATION_BASES)}
        table = twomode.polarization_g2(runs)
        rl = table["R/L"]
        assert rl["g_11"][0] == pytest.approx(2.0, abs=3 * rl["g_11"][1] + 0.05)
        assert rl["g_22"][0] == pytest.approx(2.0, abs=3 * rl["g_22"][1] + 0.05)
        assert rl["g_12"][0] == pytest.approx(1.0, abs=3 * rl["g_12"][1] + 0.05)

    def test_anticorrelated_pair(self):
        st_ = twomode.TwoModeState("planted", law=twomode.anticorrelated_thermal_law(1.0))
        runs = {b: _three_alpha_runs(st_, 120_000, seed=770 + 3 * i)
                for i, b in enumerate(twomode.POLARIZATION_BASES)}
        table = twomode.polarization_g2(runs)
        g12, se = table["R/L"]["g_12"]
        assert g12 < 1.0 - 3 * se

    def test_poissonian_planted_all_unity(self):
        st_ = twomode.TwoModeState("planted", law=twomode.independent_poisson_law(2.0, 2.0))
        runs = {b: _three_alpha_runs(st_, 120_000, seed=780 + 3 * i)
                for i, b in enumerate(twomode.POLARIZATION_BASES)}
        table = twomode.polarization_g2(runs)
        for basis, row in table.items():
            for key in ("g_11", "g_22", "g_12"):
                val, se = row[key]
                assert val == pytest.approx(1.0, abs=3 * se + 0.03), (basis, key)

    def test_incomplete_basis_rejected(self):
        st_ = twomode.TwoModeState("correlated_thermal", nbar=1.0, corr=0.0)
        runs = {"R/L": _three_alpha_runs(st_, 3_000, seed=790)}
        with pytest.raises(ValueError):
            twomode.polarization_g2(runs)


class TestStokes:
    def test_fock_10(self):
        d = 4
        rho = np.zeros((d * d, d * d), complex)
        rho[1 * d + 0, 1 * d + 0] = 1.0
        st_ = twomode.TwoModeState("joint", rho_joint=rho, dims=(d, d))
        sm = twomode.stokes_moments(st_, dim=d)
        assert sm.means == pytest.approx([0.5, 0.0, 0.0], abs=1e-12)

    def test_coherent_pair(self):
        # coherent-state expectation oracle: <J2> = |α|², <J1> = 0
        alpha = 1.1
        rc = states.make_state(states.StateSpec("coherent", alpha=alpha, truncation_dim=10))
        st_ = twomode.TwoModeState("product", rho1=rc, rho2=rc)
        sm = twomode.stokes_moments(st_)
        assert sm.means[0] == pytest.approx(0.0, abs=1e-9)
        assert sm.means[1] == pytest.approx(alpha**2, abs=1e-4)

    def test_su2_commutator_interior(self):
        d = 8
        j1, j2, j3 = twomode.stokes_operators(d)
        comm = j1 @ j2 - j2 @ j1 - 1j * j3
        # interior block: both modes at least two quanta below the cut
        keep = np.array([n1 <= d - 2 and n2 <= d - 2
                         for n1 in range(d) for n2 in range(d)])
        interior = comm[np.ix_(keep, keep)]
        assert np.max(np.abs(interior)) < 1e-12

    def test_second_moments_psd(self, thermal1):
        st_ = twomode.TwoModeState("correlated_thermal", nbar=0.8, corr=0.5)
        sm = twomode.stokes_moments(st_)
        assert np.linalg.eigvalsh(sm.second_moments).min() > -1e-9

    def test_correlation_coefficient_validated(self):
        with pytest.raises(ValueError):
            twomode.TwoModeState("correlated_thermal", nbar=1.0, corr=1.5)
        with pytest.raises(ValueError):
            twomode.TwoModeState("correlated_thermal", nbar=1.0, corr=-0.2)
