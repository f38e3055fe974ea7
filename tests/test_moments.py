import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

from ohtlab import cli, detection, formats, moments, patterns, states
from ohtlab.errors import CoverageError, NearVacuumError

RAND = detection.PhaseSchedule("uniform_random")
DET = detection.DetectorModel()


def _sample(rho, n, seed, sched=RAND, det=DET):
    return detection.sample_quadratures(rho, sched, det, n, seed)


def _factorial_moment(ds, r):
    """(⟨n^(r)⟩, std err) as moment_report writes it."""
    return moments.moment_report(ds, factorial_orders=(r,)).factorial_moments[r]


def _richter(ds, r):
    """Richter's formula (r!)²/(2^r (2r)!) ⟨⟨H_2r(q)⟩⟩ with scipy's Hermite
    polynomial, and the standard error of its sample mean."""
    summand = math.factorial(r) ** 2 / (2.0**r * math.factorial(2 * r)) * eval_hermite(2 * r, ds.qs)
    return float(np.mean(summand)), float(np.std(summand) / np.sqrt(summand.size))


class TestHermite:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @given(x=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_scipy_bitwise(self, r, x):
        # the same order of operations as scipy, so the same bits
        x = np.array(x)
        assert np.array_equal(moments._hermite(2 * r, x), eval_hermite(2 * r, x))


class TestMeanPhoton:
    def test_vacuum(self, vacuum):
        ds = _sample(vacuum, 100_000, seed=501)
        mn, se = moments.mean_photon(ds)
        assert abs(mn) < 2 * se

    def test_coherent_unit(self, coherent1):
        # phase-average oracle: <<q²>> = 1/2 + |α|²
        ds = _sample(coherent1, 200_000, seed=502)
        mn, se = moments.mean_photon(ds)
        assert abs(mn - 1.0) < 3 * se

    def test_coherent_1p2(self):
        rho = states.make_state(states.StateSpec("coherent", alpha=np.sqrt(1.2)))
        ds = _sample(rho, 200_000, seed=503)
        mn, se = moments.mean_photon(ds)
        assert abs(mn - 1.2) < 3 * se

    def test_fixed_phase_rejected(self, coherent1):
        ds = _sample(coherent1, 1_000, seed=504,
                     sched=detection.PhaseSchedule("grid", d=1))
        with pytest.raises(CoverageError):
            moments.mean_photon(ds)

    def test_detected_mode_mean_with_loss(self, coherent1):
        # η < 1 record: detected-mode mean, no loss correction; in the
        # η_eff-scaled convention the smearing adds (1/η − 1)/2 to <<q²>>
        det = detection.DetectorModel(eta_q=0.5)
        ds = _sample(coherent1, 200_000, seed=505, det=det)
        mn, se = moments.mean_photon(ds)
        assert abs(mn - (1.0 + 0.5)) < 3 * se


class TestNmin:
    def test_coherent_unit(self):
        assert moments.n_min(1.0, 2.0) == 3.75

    def test_large_n_limit(self):
        nbar = 1e5
        val = moments.n_min(nbar, nbar**2 + nbar)
        assert val == pytest.approx(1.5, rel=1e-4)

    def test_documented_discrepancy_value(self):
        # formula value at nbar = 1e-3 (Poissonian <n²> = nbar² + nbar);
        # the source text quotes 750,000 for this case, a 3x tension that is
        # recorded, not resolved: the formula itself is authoritative here
        nbar = 1e-3
        val = moments.n_min(nbar, nbar**2 + nbar)
        assert val == pytest.approx(2.52e5, rel=5e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            moments.n_min(0.0, 1.0)


class TestFactorialMoments:
    def test_r1_identity_with_mean_photon(self, thermal1):
        ds = _sample(thermal1, 50_000, seed=506)
        f1, _ = _factorial_moment(ds, 1)
        mn, _ = moments.mean_photon(ds)
        assert abs(f1 - mn) < 1e-12

    def test_r2_coherent(self, coherent1):
        # Poisson factorial-moment oracle: <n(n−1)> = nbar²
        ds = _sample(coherent1, 200_000, seed=507)
        f2, se = _factorial_moment(ds, 2)
        assert abs(f2 - 1.0) < 3 * se

    def test_r2_thermal(self, thermal1):
        # Bose-Einstein oracle: <n(n−1)> = 2 nbar²
        ds = _sample(thermal1, 200_000, seed=508)
        f2, se = _factorial_moment(ds, 2)
        assert abs(f2 - 2.0) < 3 * se

    def test_r3_coherent(self, coherent1):
        # Poisson oracle: <n(n−1)(n−2)> = nbar³
        ds = _sample(coherent1, 200_000, seed=521)
        f3, se = _factorial_moment(ds, 3)
        assert abs(f3 - 1.0) < 3 * se

    def test_r3_thermal(self, thermal1):
        # Bose-Einstein oracle: <n(n−1)(n−2)> = 3! nbar³
        ds = _sample(thermal1, 200_000, seed=522)
        f3, se = _factorial_moment(ds, 3)
        assert abs(f3 - 6.0) < 3 * se

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_vacuum_all_orders_zero(self, vacuum, r):
        ds = _sample(vacuum, 50_000, seed=523 + r)
        fr, se = _factorial_moment(ds, r)
        assert abs(fr) < 3 * se

    def test_r_range(self, coherent1):
        ds = _sample(coherent1, 1_000, seed=509)
        for r in (0, 5):
            with pytest.raises(ValueError):
                moments.moment_report(ds, factorial_orders=(r,))


class TestG2:
    def test_coherent(self, coherent1):
        ds = _sample(coherent1, 200_000, seed=510)
        g2, se = moments.g2_single(ds)
        assert g2 == pytest.approx(1.0, abs=0.05)

    def test_thermal(self, thermal1):
        ds = _sample(thermal1, 200_000, seed=511)
        g2, se = moments.g2_single(ds)
        assert g2 == pytest.approx(2.0, abs=0.10)

    def test_fock1_antibunched(self, fock1):
        ds = _sample(fock1, 200_000, seed=512)
        g2, se = moments.g2_single(ds)
        assert abs(g2) < 3 * se + 0.02

    def test_near_vacuum_rejected(self, vacuum):
        ds = _sample(vacuum, 50_000, seed=513)
        with pytest.raises(NearVacuumError):
            moments.g2_single(ds)

    def test_mixture_oracle(self):
        # 50/50 coherent/thermal mixture; analytic moment-mixture oracle:
        # <:n²:> = (nc² + 2nt²)/2, <n> = (nc + nt)/2
        nc, nt = 1.5, 1.0
        rho_c = states.make_state(states.StateSpec("coherent", alpha=np.sqrt(nc)))
        rho_t = states.make_state(states.StateSpec("thermal", nbar=nt))
        dim = max(rho_c.dim, rho_t.dim)
        mix = np.zeros((dim, dim), complex)
        mix[: rho_c.dim, : rho_c.dim] += 0.5 * rho_c.elements
        mix[: rho_t.dim, : rho_t.dim] += 0.5 * rho_t.elements
        rho = states.DensityMatrix(dim=dim, elements=mix)
        ds = _sample(rho, 200_000, seed=514)
        g2, se = moments.g2_single(ds)
        expect = (0.5 * nc**2 + 0.5 * 2 * nt**2) / (0.5 * nc + 0.5 * nt) ** 2
        assert abs(g2 - expect) < 3 * se

    def test_jackknife_matches_scatter(self, thermal1):
        # error bars calibrate against seed-to-seed scatter
        vals, errs = [], []
        for s in range(25):
            g2, se = moments.g2_single(_sample(thermal1, 20_000, seed=600 + s))
            vals.append(g2)
            errs.append(se)
        ratio = np.mean(errs) / np.std(vals)
        assert 0.6 < ratio < 1.6


class TestMomentReport:
    def test_roundtrip_dict(self, coherent1):
        ds = _sample(coherent1, 50_000, seed=515)
        rep = moments.moment_report(ds)
        doc = rep.to_dict()
        assert doc["n_samples"] == 50_000
        assert doc["g2"] is not None

    def test_agrees_with_pattern_reconstruction(self, thermal1):
        # cross-check: <n> from raw moments vs Tr[n ρ̂] from the pattern route
        ds = detection.sample_quadratures(
            thermal1, detection.PhaseSchedule("grid", d=32), DET, 200_000, 516)
        mn, se = moments.mean_photon(ds)
        pf = patterns.build_pattern_functions(10)
        rho, err = patterns.rho_from_quadratures(ds, pf)
        n_rec = float(np.sum(np.arange(10) * rho.populations()))
        n_rec_se = float(np.sqrt(np.sum((np.arange(10) * np.diag(err)) ** 2)))
        assert abs(mn - n_rec) < 3 * np.hypot(se, n_rec_se)

    def test_matches_the_single_functionals(self, coherent1):
        ds = _sample(coherent1, 20_000, seed=517, sched=detection.PhaseSchedule("grid", d=16))
        rep = moments.moment_report(ds, factorial_orders=(1, 2, 3))
        assert (rep.mean_n, rep.mean_n_stderr) == moments.mean_photon(ds)
        assert rep.factorial_moments == {r: _richter(ds, r) for r in (1, 2, 3)}
        assert (rep.g2, rep.g2_stderr) == moments.g2_single(ds)

    def test_phases_counted_once(self, coherent1, monkeypatch):
        ds = _sample(coherent1, 20_000, seed=518, sched=detection.PhaseSchedule("grid", d=16))
        counted = []
        distinct = detection.distinct
        monkeypatch.setattr(detection, "distinct", lambda v: counted.append(1) or distinct(v))
        moments.moment_report(ds)
        assert len(counted) == 1

    # the refusals of the four checks the report made one by one before it
    # counted the phases once: mean_photon (order 2), factorial orders 1 and
    # 2 (orders 2 and 4), g2_single (order 4)
    @pytest.mark.parametrize("d, orders, message", [
        (1, (1, 2), "fixed-phase dataset cannot be phase-averaged"),
        (2, (1, 2), "grid of 2 phases aliases harmonics up to order 2; "
                    "need more than 2 equally spaced phases"),
        (3, (1, 2), "grid of 3 phases aliases harmonics up to order 4; "
                    "need more than 4 equally spaced phases"),
        (4, (1, 2), "grid of 4 phases aliases harmonics up to order 4; "
                    "need more than 4 equally spaced phases"),
        (5, (1, 2, 3), "grid of 5 phases aliases harmonics up to order 6; "
                       "need more than 6 equally spaced phases"),
    ])
    def test_coverage_refusals_unchanged(self, coherent1, tmp_path, capsys, d, orders, message):
        ds = _sample(coherent1, 2_000, seed=519, sched=detection.PhaseSchedule("grid", d=d))
        with pytest.raises(CoverageError) as exc:
            moments.moment_report(ds, factorial_orders=orders)
        assert str(exc.value) == message
        if orders == (1, 2):   # the moments command's orders
            path = tmp_path / "ds.jsonl"
            formats.write_quadrature_dataset(path, ds)
            assert cli.main(["moments", "--input", str(path), "--out", str(tmp_path / "o")]) == 3
            assert capsys.readouterr().err == f"data error: {message}\n"
            assert not (tmp_path / "o").exists()

    def test_coverage_passes_at_five_phases(self, coherent1):
        ds = _sample(coherent1, 20_000, seed=520, sched=detection.PhaseSchedule("grid", d=5))
        assert moments.moment_report(ds).g2 is not None
