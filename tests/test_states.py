import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from conftest import lossy_wigner
from oracles import radon_forward
from ohtlab import states
from ohtlab.errors import PurityError, ReferencePointError, TruncationError

GRID = np.linspace(-8, 8, 1601)
DQ = GRID[1] - GRID[0]


class TestHermite:
    def test_ground_state_value(self):
        assert states.hermite_psi_all(0, np.array([0.0]))[0, 0] == pytest.approx(np.pi**-0.25)

    def test_odd_parity_at_origin(self):
        assert states.hermite_psi_all(1, np.array([0.0]))[1, 0] == 0.0

    def test_n10_normalization(self):
        # independent quadrature oracle: trapezoid norm on a wide grid
        psi = states.hermite_psi_all(10, GRID)[10]
        assert np.trapezoid(psi**2, GRID) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonality(self):
        psi = states.hermite_psi_all(12, GRID)
        gram = psi @ psi.T * DQ
        assert np.max(np.abs(gram - np.eye(13))) < 1e-6

    def test_stability_bound(self):
        states.hermite_psi_all(200, np.linspace(-3, 3, 11))
        with pytest.raises(ValueError):
            states.hermite_psi_all(201, GRID)

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_norm_property(self, n):
        fine = np.linspace(-14, 14, 11201)   # resolves the n=60 oscillations
        psi = states.hermite_psi_all(n, fine)[n]
        assert np.trapezoid(psi**2, fine) == pytest.approx(1.0, abs=1e-6)


# the scipy forms the numpy recurrences replaced, kept as oracles
def _reference_coherent(alpha, dim):
    n = np.arange(dim)
    logmag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    return np.exp(logmag) * np.exp(1j * n * np.angle(alpha))


def _reference_squeezed_vacuum(r, phi, dim):
    c = np.zeros(dim, complex)
    k = np.arange((dim + 1) // 2)
    logmag = 0.5 * gammaln(2 * k + 1) - k * math.log(2.0) - gammaln(k + 1) \
        + k * math.log(math.tanh(abs(r))) - 0.5 * math.log(math.cosh(r))
    c[2 * k] = np.exp(logmag) * (-np.exp(1j * phi) * np.sign(r)) ** k
    return c


def _reference_squeezed_coherent(alpha, r, phi, dim):
    pad = max(2 * dim, dim + 40)
    a = states._annihilation(pad)
    ad = a.conj().T
    zeta = r * np.exp(1j * phi)
    vec = np.zeros(pad, complex)
    vec[0] = 1.0
    vec = expm(alpha * ad - np.conj(alpha) * a) @ (
        expm(0.5 * (np.conj(zeta) * (a @ a) - zeta * (ad @ ad))) @ vec)
    return vec[:dim]


def _reference_kernel(n, m, Q, P):
    if m < n:
        return np.conj(_reference_kernel(m, n, Q, P))
    r2 = Q**2 + P**2
    pref = (-1.0) ** n / np.pi * math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
    cross = (np.sqrt(2.0) * (Q + 1j * P)) ** (m - n)
    return pref * cross * np.exp(-r2) * eval_genlaguerre(n, m - n, 2.0 * r2)


def _max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSpecialFunctionOracles:
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_coherent_amplitudes(self, re, im, dim):
        alpha = complex(re, im)
        got = states._coherent_amplitudes(alpha, dim)
        if alpha == 0:
            assert np.array_equal(got, np.eye(dim)[0])
        else:
            assert _max_rel(got, _reference_coherent(alpha, dim)) <= 1e-14

    @given(st.floats(-1.5, 1.5).filter(lambda r: r != 0), st.floats(-7.0, 7.0),
           st.integers(1, 160))
    @settings(max_examples=100, deadline=None)
    def test_squeezed_vacuum_amplitudes(self, r, phi, dim):
        got = states._squeezed_vacuum_amplitudes(r, phi, dim)
        assert _max_rel(got, _reference_squeezed_vacuum(r, phi, dim)) <= 1e-14

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5),
           st.floats(-7.0, 7.0), st.integers(20, 40))
    @settings(max_examples=25, deadline=None)
    def test_squeezed_coherent_matches_expm(self, re, im, r, phi, dim):
        got = states._squeezed_coherent_vector(complex(re, im), r, phi, dim)
        want = _reference_squeezed_coherent(complex(re, im), r, phi, dim)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_squeezed_coherent_padding_still_refused(self):
        with pytest.raises(TruncationError):
            states._squeezed_coherent_vector(2.0, 0.9, 0.0, 10)

    @given(st.integers(0, 30), st.integers(0, 30),
           st.lists(st.floats(0.0, 150.0), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_laguerre_recurrence(self, n, k, extra):
        # relative to the largest value on [0, 150] in the kernel's e^{-x/2} weight
        x = np.concatenate([np.linspace(0.0, 150.0, 301), extra])
        weight = np.exp(-x / 2)
        want = eval_genlaguerre(n, k, x) * weight
        assert _max_rel(states._genlaguerre(n, k, x) * weight, want) <= 1e-14

    @pytest.mark.parametrize("n", range(0, 16, 3))
    def test_kernel_factorial_prefactor(self, n):
        # sqrt(n!/m!) from exact integers against the log-gamma form
        Q, P = np.meshgrid(np.linspace(-6, 6, 61), np.linspace(-6, 6, 61), indexing="ij")
        for m in range(16):
            got = states.wigner_kernel_laguerre(n, m, Q, P)
            assert _max_rel(got, _reference_kernel(n, m, Q, P)) <= 1e-14


class TestMakeState:
    def test_vacuum_dim4(self):
        rho = states.make_state(states.StateSpec("vacuum", truncation_dim=4))
        assert rho.dim == 4
        assert np.allclose(rho.elements, np.diag([1, 0, 0, 0]))

    def test_thermal_geometric(self):
        rho = states.make_state(states.StateSpec("thermal", nbar=1.0, truncation_dim=40))
        pops = rho.populations()
        n = np.arange(8)
        assert pops[:8] == pytest.approx(0.5 * 0.5**n, rel=1e-6)

    def test_squeezed_even_only(self, squeezed05):
        pops = squeezed05.populations()
        assert pops[1] == 0.0
        assert pops[3] == 0.0
        assert pops[2] > 0.01

    def test_coherent_poisson(self, coherent1):
        from scipy.stats import poisson

        pops = coherent1.populations()
        assert pops[:6] == pytest.approx(poisson.pmf(np.arange(6), 1.0), rel=1e-9)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            states.make_state(states.StateSpec("coherent", alpha=12.0))

    def test_auto_grow(self):
        rho = states.make_state(states.StateSpec("coherent", alpha=3.0, truncation_dim=10))
        assert rho.dim > 10
        assert rho.trace == pytest.approx(1.0, abs=1e-9)

    def test_constructed_invariants(self, constructed_states):
        for rho in constructed_states.values():
            assert rho.trace == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh(rho.elements).min() > -1e-9


class TestQuadraturePdf:
    def test_vacuum_gaussian(self, vacuum):
        pr = states.quadrature_pdf(vacuum, 0.7, GRID)
        assert np.max(np.abs(pr - np.exp(-(GRID**2)) / np.sqrt(np.pi))) < 1e-12

    def test_coherent_moments(self, coherent1):
        pr = states.quadrature_pdf(coherent1, 0.0, GRID)
        mean = np.trapezoid(GRID * pr, GRID)
        var = np.trapezoid((GRID - mean) ** 2 * pr, GRID)
        assert mean == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert var == pytest.approx(0.5, abs=1e-9)

    def test_squeezed_variances_vs_covariance_oracle(self, squeezed05):
        from conftest import gaussian_quadrature_variance

        # tolerance = truncation leak (1e-6) times the q² weight at the cut
        for theta in (0.0, np.pi / 5, np.pi / 2):
            pr = states.quadrature_pdf(squeezed05, theta, GRID)
            var = np.trapezoid(GRID**2 * pr, GRID)
            assert var == pytest.approx(gaussian_quadrature_variance(0.5, theta), abs=5e-5)

    def test_normalization(self, constructed_states):
        for rho in constructed_states.values():
            pr = states.quadrature_pdf(rho, 1.1, GRID)
            assert np.trapezoid(pr, GRID) == pytest.approx(1.0, abs=1e-6)


def _random_state(dim: int, seed: int) -> states.DensityMatrix:
    """A random full-rank state on photon numbers below dim − 1, padded by one
    empty level so the truncated q̂² of quadrature_moments is exact on it."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim - 1, dim - 1)) + 1j * rng.standard_normal((dim - 1, dim - 1))
    rho = np.zeros((dim, dim), complex)
    rho[:-1, :-1] = a @ a.conj().T
    return states.DensityMatrix(dim=dim, elements=rho / np.trace(rho).real)


class TestLossChannel:
    ETAS = st.floats(0.01, 1.0)

    @given(st.integers(2, 9), st.integers(0, 2**32 - 1), ETAS)
    @settings(max_examples=60, deadline=None)
    def test_keeps_trace_and_positivity(self, dim, seed, eta):
        out = states.apply_loss(_random_state(dim, seed), eta)
        assert out.trace == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.eigvalsh(out.elements).min() >= -1e-13

    @given(st.integers(2, 9), st.integers(0, 2**32 - 1), ETAS, st.floats(0.0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_quadrature_moments_mix_with_vacuum(self, dim, seed, eta, theta):
        # q_θ → √η q_θ + √(1−η) q_vac: the mean scales by √η, the variance
        # becomes η·Var + (1−η)/2
        rho = _random_state(dim, seed)
        mean, var = states.quadrature_moments(rho, theta)
        mean_out, var_out = states.quadrature_moments(states.apply_loss(rho, eta), theta)
        assert mean_out == pytest.approx(np.sqrt(eta) * mean, abs=1e-12)
        assert var_out == pytest.approx(eta * var + (1 - eta) / 2, abs=1e-12)

    def test_fock1_populations(self, fock1):
        assert np.allclose(states.apply_loss(fock1, 0.6).populations()[:2], [0.4, 0.6],
                           rtol=0, atol=1e-15)


class TestWigner:
    def test_vacuum_analytic(self, vacuum):
        w = states.wigner_from_rho(vacuum)
        Q, P = np.meshgrid(w.q_axis, w.p_axis, indexing="ij")
        assert np.max(np.abs(w.values - np.exp(-(Q**2) - P**2) / np.pi)) < 1e-12

    def test_fock1_minimum(self, fock1):
        w = states.wigner_from_rho(fock1)
        i = np.argmin(np.abs(w.q_axis))
        assert w.values[i, i] == pytest.approx(-1.0 / np.pi, abs=1e-12)

    def test_coherent_peak(self):
        rho = states.make_state(states.StateSpec("coherent", alpha=1.0 + 0.5j))
        w = states.wigner_from_rho(rho)
        i, j = np.unravel_index(np.argmax(w.values), w.values.shape)
        assert w.q_axis[i] == pytest.approx(np.sqrt(2.0), abs=2 * w.dq)
        assert w.p_axis[j] == pytest.approx(np.sqrt(2.0) * 0.5, abs=2 * w.dp)

    def test_unit_integral(self, constructed_states):
        for rho in constructed_states.values():
            w = states.wigner_from_rho(rho)
            assert w.integral() == pytest.approx(1.0, abs=1e-3)

    def test_kernel_paths_agree(self):
        # Fourier-integral evaluation vs the closed Laguerre form
        axis = np.linspace(-6, 6, 33)
        Q, P = np.meshgrid(axis, axis, indexing="ij")
        for n in range(0, 11, 2):
            for m in range(n, 11, 3):
                a = states.wigner_kernel_laguerre(n, m, Q, P)
                b = states.wigner_kernel_fourier(n, m, Q, P, x_span=14.0, x_points=2801)
                assert np.max(np.abs(a - b)) < 1e-8, (n, m)

    def test_kernel_orthogonality(self):
        axis = np.linspace(-8, 8, 321)
        Q, P = np.meshgrid(axis, axis, indexing="ij")
        area = (axis[1] - axis[0]) ** 2
        pairs = [(n, m) for n in range(7) for m in range(7)]
        kernels = np.array([states.wigner_kernel_laguerre(n, m, Q, P).ravel()
                            for n, m in pairs])
        gram = 2 * np.pi * (kernels @ kernels.conj().T) * area
        assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-6

    def test_marginal_property(self, constructed_states):
        for rho in constructed_states.values():
            w = states.wigner_from_rho(rho)
            for theta in (0.0, np.pi / 7, np.pi / 2):
                marg = radon_forward(w, theta)
                direct = states.quadrature_pdf(rho, theta, w.q_axis)
                assert np.max(np.abs(marg - direct)) < 1e-4

    def test_heisenberg(self, constructed_states):
        for rho in constructed_states.values():
            for theta in np.linspace(0, np.pi, 7):
                _, var_q = states.quadrature_moments(rho, theta)
                _, var_p = states.quadrature_moments(rho, theta + np.pi / 2)
                assert var_q * var_p >= 0.25 - 1e-9

    def test_purity(self, constructed_states, thermal1):
        for name in ("vacuum", "fock1", "coherent", "squeezed"):
            assert constructed_states[name].purity == pytest.approx(1.0, abs=1e-9)
        pops = thermal1.populations()
        assert thermal1.purity == pytest.approx(np.sum(pops**2), abs=1e-9)


class TestRhoFromWigner:
    def test_vacuum_round_trip(self, vacuum):
        w = states.wigner_from_rho(vacuum)
        rho = states.rho_from_wigner(w, 4)
        assert rho.elements[0, 0].real == pytest.approx(1.0, abs=1e-3)

    def test_fock1_round_trip(self, fock1):
        w = states.wigner_from_rho(fock1)
        rho = states.rho_from_wigner(w, 4)
        assert rho.elements[1, 1].real >= 0.999

    def test_smoothed_fock1_diagonal_mixture(self, fock1):
        # At η = 0.5 the smoothing variance is 1/2, so the smoothed Wigner
        # function is the Fock-1 Husimi function.  Reading it back as a
        # Wigner function gives a rotation-invariant (diagonal) mixture whose
        # weights follow from ρ_nn = (−1)^n/2 ∫ u e^{−3u/2} L_n(2u) du:
        # 2/9, 10/27, 2/9 for n = 0, 1, 2 (hand-evaluated oracle).
        eta = 0.5
        smoothed = lossy_wigner(fock1, eta)
        # the function carries weight beyond n = 2, so the trace-deficit
        # flag fires; the retained weights are still exact
        with pytest.warns(UserWarning):
            rho = states.rho_from_wigner(smoothed, 3)
        pops = rho.populations()
        assert pops[0] == pytest.approx(2.0 / 9.0, abs=2e-3)
        assert pops[1] == pytest.approx(10.0 / 27.0, abs=2e-3)
        assert pops[2] == pytest.approx(2.0 / 9.0, abs=2e-3)
        off = rho.elements - np.diag(np.diag(rho.elements))
        assert np.max(np.abs(off)) < 2e-3

    def test_coarse_grid_warns(self, coherent1):
        w = states.wigner_from_rho(coherent1, np.linspace(-2, 2, 11), np.linspace(-2, 2, 11))
        with pytest.warns(UserWarning):
            rho = states.rho_from_wigner(w, 6)
        assert rho.meta.get("coarse_grid_warning")


class TestQFunction:
    def test_vacuum(self, vacuum):
        q = states.q_function(vacuum)
        Q, P = np.meshgrid(q.q_axis, q.p_axis, indexing="ij")
        expect = np.exp(-(Q**2 + P**2) / 2.0) / (2 * np.pi)
        assert np.max(np.abs(q.values - expect)) < 1e-12
        assert q.integral() == pytest.approx(1.0, abs=1e-3)

    def test_fock1_zero_at_origin(self, fock1):
        q = states.q_function(fock1)
        i = np.argmin(np.abs(q.q_axis))
        assert abs(q.values[i, i]) < 1e-12

    def test_coherent_peak(self):
        rho = states.make_state(states.StateSpec("coherent", alpha=0.8 + 0.3j))
        q = states.q_function(rho)
        i, j = np.unravel_index(np.argmax(q.values), q.values.shape)
        assert q.q_axis[i] == pytest.approx(np.sqrt(2) * 0.8, abs=2 * q.dq)
        assert q.p_axis[j] == pytest.approx(np.sqrt(2) * 0.3, abs=2 * q.dp)

    def test_nonnegative(self, constructed_states):
        for rho in constructed_states.values():
            assert states.q_function(rho).values.min() >= 0.0


class TestWavefunction:
    def test_vacuum(self, vacuum):
        wf = states.wavefunction_from_rho(vacuum)
        expect = np.pi**-0.25 * np.exp(-wf.q_axis**2 / 2)
        assert np.max(np.abs(wf.amplitude - expect)) < 1e-9

    def test_coherent_1p2_photons(self):
        # mean 1.2 photons with a phase tilt: |ψ| Gaussian, linear phase ramp
        alpha = np.sqrt(1.2) * np.exp(1j * np.pi / 5)
        rho = states.make_state(states.StateSpec("coherent", alpha=alpha))
        wf = states.wavefunction_from_rho(rho)
        expect_mag = np.pi**-0.25 * np.exp(-((wf.q_axis - np.sqrt(2) * alpha.real) ** 2) / 2)
        assert np.max(np.abs(np.abs(wf.amplitude) - expect_mag)) < 1e-6
        mask = np.abs(wf.amplitude) > 0.1 * np.abs(wf.amplitude).max()
        slope = np.polyfit(wf.q_axis[mask], np.unwrap(np.angle(wf.amplitude[mask])), 1)[0]
        assert slope == pytest.approx(np.sqrt(2) * alpha.imag, abs=1e-6)

    def test_fock1_reference_failure(self, fock1):
        with pytest.raises(ReferencePointError):
            states.wavefunction_from_rho(fock1)

    def test_fock1_alternative_reference(self, fock1):
        wf = states.wavefunction_from_rho(fock1, q_ref=1.0)
        expect = np.sqrt(2.0) * wf.q_axis * np.pi**-0.25 * np.exp(-wf.q_axis**2 / 2)
        # defined up to global sign; peak is made real-positive
        assert min(np.max(np.abs(wf.amplitude - expect)),
                   np.max(np.abs(wf.amplitude + expect))) < 1e-9

    def test_purity_gate(self, thermal1):
        with pytest.raises(PurityError):
            states.wavefunction_from_rho(thermal1)

    def test_norm(self, coherent1):
        wf = states.wavefunction_from_rho(coherent1)
        assert np.trapezoid(np.abs(wf.amplitude) ** 2, wf.q_axis) == pytest.approx(1.0, abs=1e-3)


class TestTypes:
    def test_density_matrix_rejects_nonhermitian(self):
        m = np.zeros((3, 3), complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            states.DensityMatrix(dim=3, elements=m)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            states.StateSpec("bogus")
        with pytest.raises(ValueError):
            states.StateSpec("coherent")
        with pytest.raises(ValueError):
            states.StateSpec("thermal", nbar=-1.0)

    def test_spec_round_trip(self):
        spec = states.StateSpec("squeezed_coherent", alpha=0.3 + 0.2j, r=0.4, phi=0.1)
        again = states.StateSpec.from_dict(spec.to_dict())
        assert again == spec
