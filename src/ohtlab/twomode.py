"""Two-mode tomography primitives: dual-LO combined quadratures and the
three-angle two-time g² method.

The dual-LO measurement returns, per pulse, the combined quadrature
Q = cos(α) q_1θ + sin(α) q_2β with β = θ − ζ, where θ and ζ follow phase
schedules (a fixed phase is a one-phase grid) and Q goes through the
single-mode detection chain, `detection.add_detection_noise`.  Its record
is a `detection.QuadratureDataset` with a ζ column and α in
meta.extra["alpha"], so the single-mode moments read it as it is.
Correlated photon-number sources are synthesized by planting per-pulse
number pairs (n₁, n₂) from a joint law and sampling each quadrature from
the matching Fock distribution, which gives exact ground-truth ⟨n₁n₂⟩ for
validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .detection import (DatasetMeta, DetectorModel, PhaseSchedule, QuadratureDataset,
                        add_detection_noise, check_sampling, draw_fock_quadratures,
                        draw_state_quadratures)
from .errors import ConfigError
from .moments import resolved_mean_photon
from .states import DensityMatrix


@dataclass
class TwoModeState:
    """Two-mode source description.

    kinds:
      product: independent modes with given single-mode density matrices
      planted: joint number law (callable(rng, n) -> (n1, n2))
    """

    kind: str
    rho1: DensityMatrix | None = None
    rho2: DensityMatrix | None = None
    law: object = None

    def __post_init__(self):
        if self.kind == "product":
            if self.rho1 is None or self.rho2 is None:
                raise ValueError("product state needs rho1 and rho2")
        elif self.kind == "planted":
            if not callable(self.law):
                raise ValueError("planted state needs a callable joint number law")
        else:
            raise ValueError(f"unknown two-mode kind {self.kind!r}")


def thermal_pmf(nbar: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    p = (nbar / (1 + nbar)) ** n / (1 + nbar)
    return p / p.sum()


def _check_nbar(*nbars: float) -> None:
    """ConfigError unless every mean photon number of a law is >= 0."""
    for nbar in nbars:
        if not nbar >= 0:
            raise ConfigError(f"mean photon numbers must be >= 0, got {nbar}")


def correlated_thermal_law(nbar: float, corr: float):
    """Joint number law: equal thermal marginals, Pearson correlation `corr`
    realized as a mixture of perfectly-correlated and independent draws."""
    _check_nbar(nbar)
    if not 0.0 <= corr <= 1.0:
        raise ConfigError("number correlation coefficient must be in [0, 1]")

    def law(rng: np.random.Generator, n: int):
        cutoff = max(30, int(20 * (1 + nbar)))
        p = thermal_pmf(nbar, cutoff)
        common = rng.choice(cutoff, size=n, p=p)
        ind1 = rng.choice(cutoff, size=n, p=p)
        ind2 = rng.choice(cutoff, size=n, p=p)
        use_common = rng.random(n) < corr
        n1 = np.where(use_common, common, ind1)
        n2 = np.where(use_common, common, ind2)
        return n1, n2
    return law


def hbt_split_law(nbar: float):
    """One thermal mode split 50/50 onto the two measured modes (the
    Hanbury Brown-Twiss arrangement): n ~ BE(nbar), n1 ~ Binom(n, 1/2)."""
    _check_nbar(nbar)

    def law(rng: np.random.Generator, n: int):
        cutoff = max(30, int(20 * (1 + nbar)))
        p = thermal_pmf(nbar, cutoff)
        total = rng.choice(cutoff, size=n, p=p)
        n1 = rng.binomial(total, 0.5)
        return n1, total - n1
    return law


def anticorrelated_thermal_law(nbar: float, cutoff: int = 60):
    """Antithetically coupled thermal pair: thermal marginals with strongly
    negative number correlation."""
    _check_nbar(nbar)

    def law(rng: np.random.Generator, n: int):
        p = thermal_pmf(nbar, cutoff)
        cdf = np.cumsum(p)
        u = rng.random(n)
        n1 = np.searchsorted(cdf, u)
        n2 = np.searchsorted(cdf, 1.0 - u)
        return n1, n2
    return law


def independent_poisson_law(nbar1: float, nbar2: float):
    _check_nbar(nbar1, nbar2)

    def law(rng: np.random.Generator, n: int):
        return rng.poisson(nbar1, size=n), rng.poisson(nbar2, size=n)
    return law


def combined_quadrature_samples(st: TwoModeState, alpha: float, det: DetectorModel,
                                n_samples: int, seed: int, theta_schedule: PhaseSchedule,
                                zeta_schedule: PhaseSchedule) -> QuadratureDataset:
    """Dual-LO record Q = cos(α) q_1θ + sin(α) q_2β, β = θ − ζ, α ∈ [0, π/2].

    A fixed phase φ is the schedule PhaseSchedule("grid", d=1, span=(φ, φ + 0.1)).
    A planted state draws (n₁, n₂) from stream "numbers" and each mode's
    quadrature from streams "quadrature-1" and "quadrature-2".
    """
    if not 0.0 <= alpha <= np.pi / 2:
        raise ValueError("alpha must lie in [0, π/2]")
    check_sampling(det, n_samples)
    thetas = theta_schedule.phases(n_samples, stream(seed, "theta"))
    zetas = zeta_schedule.phases(n_samples, stream(seed, "zeta"))
    betas = np.mod(thetas - zetas, 2.0 * np.pi)
    rng1 = stream(seed, "quadrature-1")
    rng2 = stream(seed, "quadrature-2")
    if st.kind == "product":
        q1 = draw_state_quadratures(st.rho1, thetas, rng1)
        q2 = draw_state_quadratures(st.rho2, betas, rng2)
    else:
        n1, n2 = st.law(stream(seed, "numbers"), n_samples)
        q1 = draw_fock_quadratures(np.asarray(n1, int), rng1)
        q2 = draw_fock_quadratures(np.asarray(n2, int), rng2)
    qs = add_detection_noise(np.cos(alpha) * q1 + np.sin(alpha) * q2, det, seed)
    meta = DatasetMeta(detector=det, schedule=theta_schedule, seed=seed,
                       extra={"alpha": alpha, "zeta_schedule": zeta_schedule.to_dict()})
    return QuadratureDataset(thetas=thetas, qs=qs, meta=meta, zetas=zetas)


def two_time_g2(run0: QuadratureDataset, run45: QuadratureDataset, run90: QuadratureDataset):
    """Two-time/two-mode second-order coherence from the three-α method.

    With θ and ζ independently phase-randomized, odd cross moments of the
    mode quadratures vanish, so the α = π/4 run isolates the cross moment:
    ⟨q₁²q₂²⟩ = (4⟨⟨Q⁴⟩⟩_{π/4} − ⟨⟨q₁⁴⟩⟩ − ⟨⟨q₂⁴⟩⟩)/6, and
    ⟨q₁²q₂²⟩ = ⟨n₁n₂⟩ + ⟨n₁⟩/2 + ⟨n₂⟩/2 + 1/4 converts to photon numbers.
    Returns (g², jackknife std err); NearVacuumError when the α = 0 or
    α = π/2 run does not resolve its mode's ⟨n⟩, which g² divides by.
    """
    for ds, want in ((run0, 0.0), (run45, np.pi / 4), (run90, np.pi / 2)):
        alpha = ds.meta.extra.get("alpha")
        if alpha is None or abs(alpha - want) > 1e-9:
            raise ValueError(f"expected dual-LO runs at α = 0, π/4, π/2; got α = {alpha}")
        if ds.meta.schedule.kind == "grid":
            raise ValueError("two-time g² needs phase-randomized records")
    if not (len(run0) == len(run45) == len(run90)):
        raise ValueError("mismatched sample counts between the three runs")
    a2, a4 = run0.qs**2, run0.qs**4
    b2, b4 = run90.qs**2, run90.qs**4
    resolved_mean_photon(a2, a4)
    resolved_mean_photon(b2, b4)
    c4 = run45.qs ** 4

    def estimate(m2_1, m4_1, m2_2, m4_2, m4_c):
        cross = (4.0 * m4_c - m4_1 - m4_2) / 6.0
        n1 = m2_1 - 0.5
        n2 = m2_2 - 0.5
        n1n2 = cross - 0.5 * n1 - 0.5 * n2 - 0.25
        return n1n2 / (n1 * n2)

    means = [a2.mean(), a4.mean(), b2.mean(), b4.mean(), c4.mean()]
    value = float(estimate(*means))

    # delete-1 jackknife per run; the three runs are independent, so their
    # jackknife variances add
    n = len(run0)
    loo_sets = (
        estimate((a2.sum() - a2) / (n - 1), (a4.sum() - a4) / (n - 1),
                 means[2], means[3], means[4]),
        estimate(means[0], means[1], (b2.sum() - b2) / (n - 1),
                 (b4.sum() - b4) / (n - 1), means[4]),
        estimate(means[0], means[1], means[2], means[3],
                 (c4.sum() - c4) / (n - 1)),
    )
    var = sum((n - 1) / n * np.sum((loo - loo.mean()) ** 2) for loo in loo_sets)
    return value, float(np.sqrt(var))
