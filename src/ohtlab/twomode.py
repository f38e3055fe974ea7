"""Two-mode tomography primitives: dual-LO combined quadratures and the
three-angle two-time g² method.

The dual-LO measurement returns, per pulse, the combined quadrature
Q = cos(α) q_1θ + sin(α) q_2β with β = θ − ζ, where θ and ζ follow phase
schedules (a fixed phase is a one-phase grid) and Q goes through the
single-mode detection chain, `detection.add_detection_noise`.  Its record
is a `detection.QuadratureDataset` with a ζ column and α in
meta.extra["alpha"], so the single-mode moments read it as it is.
A source is a pair of independent single-mode states or a `NumberLaw`,
the joint photon-number law that the `twomode` config's `source` block
reads into: per-pulse number pairs (n₁, n₂) are planted from it and each
quadrature is sampled from the matching Fock distribution, which gives
exact ground-truth ⟨n₁n₂⟩ for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import FromDict
from ._rng import stream
from .detection import (DatasetMeta, DetectorModel, PhaseSchedule, QuadratureDataset,
                        add_detection_noise, check_sampling, draw_fock_quadratures,
                        draw_state_quadratures)
from .errors import ConfigError
from .moments import jackknife, resolved_mean_photon
from .states import DensityMatrix


def thermal_pmf(nbar: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    p = (nbar / (1 + nbar)) ** n / (1 + nbar)
    return p / p.sum()


@dataclass(frozen=True)
class NumberLaw(FromDict):
    """Joint photon-number law of a planted two-mode source.

    kinds:
      correlated_thermal: equal thermal marginals, Pearson correlation corr
        (default 0) realized as a mixture of perfectly-correlated and
        independent draws
      hbt_split: one thermal mode split 50/50 onto the two measured modes
        (the Hanbury Brown-Twiss arrangement): n ~ BE(nbar), n₁ ~ Binom(n, 1/2)
      anticorrelated_thermal: an antithetically coupled thermal pair on
        ANTI_CUTOFF levels, thermal marginals with strongly negative number
        correlation
      independent_poisson: Poisson modes of means nbar and nbar2 (default nbar)
    """

    kind: str
    nbar: float
    nbar2: float | None = None      # independent_poisson only
    corr: float | None = None       # correlated_thermal only

    KINDS = ("correlated_thermal", "hbt_split", "anticorrelated_thermal", "independent_poisson")
    ANTI_CUTOFF = 60

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown source kind {self.kind!r}")
        for key, kind in (("corr", "correlated_thermal"), ("nbar2", "independent_poisson")):
            if getattr(self, key) is not None and self.kind != kind:
                raise ConfigError(f"{key} applies to {kind} sources only, not {self.kind}")
        for nbar in (self.nbar, self.nbar2 or 0.0):
            if not nbar >= 0:
                raise ConfigError(f"mean photon numbers must be >= 0, got {nbar}")
        if not 0.0 <= (self.corr or 0.0) <= 1.0:
            raise ConfigError("number correlation coefficient must be in [0, 1]")

    def draw(self, rng: np.random.Generator, n: int):
        """n number pairs (n₁, n₂) drawn from rng."""
        if self.kind == "independent_poisson":
            nbar2 = self.nbar if self.nbar2 is None else self.nbar2
            return rng.poisson(self.nbar, size=n), rng.poisson(nbar2, size=n)
        if self.kind == "anticorrelated_thermal":
            cdf = np.cumsum(thermal_pmf(self.nbar, self.ANTI_CUTOFF))
            u = rng.random(n)
            return np.searchsorted(cdf, u), np.searchsorted(cdf, 1.0 - u)
        cutoff = max(30, int(20 * (1 + self.nbar)))
        p = thermal_pmf(self.nbar, cutoff)
        if self.kind == "hbt_split":
            total = rng.choice(cutoff, size=n, p=p)
            n1 = rng.binomial(total, 0.5)
            return n1, total - n1
        common, ind1, ind2 = (rng.choice(cutoff, size=n, p=p) for _ in range(3))
        use_common = rng.random(n) < (self.corr or 0.0)
        return np.where(use_common, common, ind1), np.where(use_common, common, ind2)


def combined_quadrature_samples(source: NumberLaw | tuple[DensityMatrix, DensityMatrix],
                                alpha: float, det: DetectorModel, n_samples: int, seed: int,
                                theta_schedule: PhaseSchedule,
                                zeta_schedule: PhaseSchedule) -> QuadratureDataset:
    """Dual-LO record Q = cos(α) q_1θ + sin(α) q_2β, β = θ − ζ, α ∈ [0, π/2],
    of a planted NumberLaw or a pair (ρ₁, ρ₂) of independent modes.

    A fixed phase φ is the schedule PhaseSchedule("grid", d=1, span=(φ, φ + 0.1)).
    A NumberLaw draws (n₁, n₂) from stream "numbers"; each mode's
    quadrature comes from streams "quadrature-1" and "quadrature-2".
    """
    if not 0.0 <= alpha <= np.pi / 2:
        raise ValueError("alpha must lie in [0, π/2]")
    check_sampling(det, n_samples)
    thetas = theta_schedule.phases(n_samples, stream(seed, "theta"))
    zetas = zeta_schedule.phases(n_samples, stream(seed, "zeta"))
    betas = np.mod(thetas - zetas, 2.0 * np.pi)
    rng1 = stream(seed, "quadrature-1")
    rng2 = stream(seed, "quadrature-2")
    if isinstance(source, NumberLaw):
        n1, n2 = source.draw(stream(seed, "numbers"), n_samples)
        q1 = draw_fock_quadratures(np.asarray(n1, int), rng1)
        q2 = draw_fock_quadratures(np.asarray(n2, int), rng2)
    else:
        rho1, rho2 = source
        q1 = draw_state_quadratures(rho1, thetas, rng1)
        q2 = draw_state_quadratures(rho2, betas, rng2)
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
    Returns (g², std err), the error by `moments.jackknife` over the three
    independent runs; NearVacuumError when the α = 0 or α = π/2 run does
    not resolve its mode's ⟨n⟩, which g² divides by.
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

    def estimate(m2_1, m4_1, m2_2, m4_2, m4_c):
        cross = (4.0 * m4_c - m4_1 - m4_2) / 6.0
        n1 = m2_1 - 0.5
        n2 = m2_2 - 0.5
        n1n2 = cross - 0.5 * n1 - 0.5 * n2 - 0.25
        return n1n2 / (n1 * n2)

    return jackknife(estimate, (a2, a4), (b2, b4), (run45.qs ** 4,))
