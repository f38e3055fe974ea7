"""Statistical functionals straight from quadrature records.

Photon moments come from phase-averaged powers of the quadrature: the mean
photon number is ⟨⟨q²⟩⟩ − 1/2, factorial moments follow Richter's
Hermite-polynomial formula, and g² is a ratio of fourth- to second-order
phase-averaged moments.  No state reconstruction is involved; for
η_eff < 1 records the results describe the detected (smoothed) mode and
carry no loss correction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .detection import QuadratureDataset, require_full_coverage
from .errors import NearVacuumError


@dataclass
class MomentReport:
    mean_n: float
    mean_n_stderr: float
    g2: float | None
    g2_stderr: float | None
    factorial_moments: dict
    n_samples: int
    eta_eff: float
    loss_corrected: bool = False

    def to_dict(self) -> dict:
        fm = {str(r): list(v) for r, v in self.factorial_moments.items()}
        return {**asdict(self), "factorial_moments": fm}


def mean_photon(ds: QuadratureDataset):
    """(⟨n⟩, std err) from ⟨⟨q²⟩⟩ − 1/2.

    The variance of the estimate is taken as ⟨⟨ξ⁴⟩⟩/N (a slightly
    conservative upper estimate).  For η_eff < 1 this is the detected-mode
    mean; no loss correction is applied.
    """
    require_full_coverage(ds, 2)
    return _mean_photon(ds.qs**2, ds.qs**4)


def _mean_photon(q2, q4):
    return float(np.mean(q2) - 0.5), float(np.sqrt(np.mean(q4) / q2.size))


def resolved_mean_photon(q2, q4):
    """_mean_photon of the powers q², q⁴ of a record; NearVacuumError unless ⟨n⟩
    is resolved at 5 standard errors, as a g², which divides by it, needs."""
    mean_n, err = _mean_photon(q2, q4)
    if mean_n < 5.0 * err:
        raise NearVacuumError(f"mean photon number {mean_n:.4g} ± {err:.4g} is consistent "
                              "with vacuum; g² is undefined")
    return mean_n, err


def n_min(mean_n: float, mean_n2: float) -> float:
    """Measurements needed for unit signal-to-noise on the mean photon number:
    (3⟨n²⟩ + ⟨n⟩ + 1/2) / (2⟨n⟩²)."""
    if mean_n <= 0:
        raise ValueError("mean_n must be positive")
    return (3.0 * mean_n2 + mean_n + 0.5) / (2.0 * mean_n**2)


def _hermite(n: int, x) -> np.ndarray:
    """Physicists' Hermite polynomial H_n(x) = 2^{n/2} He_n(√2 x), n >= 2.

    He_n comes from Clenshaw's backward pass over the three-term recurrence
    He_{k+1} = x He_k − k He_{k−1}, the order of operations of
    scipy.special.eval_hermite, so the two agree bit for bit.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    x = math.sqrt(2.0) * np.asarray(x, float)
    b1, b2 = np.ones_like(x), np.zeros_like(x)
    for k in range(n, 1, -1):
        b1, b2 = x * b1 - k * b2, b1
    return (x * b1 - b2) * 2.0 ** (n / 2.0)


def _factorial_moment(q, r: int):
    """Richter's formula: ⟨n^(r)⟩ = (r!)²/(2^r (2r)!) ⟨⟨H_2r(q)⟩⟩."""
    if not 1 <= r <= 4:
        raise ValueError("r must be in 1..4")
    summand = math.factorial(r) ** 2 / (2.0**r * math.factorial(2 * r)) * _hermite(2 * r, q)
    return float(np.mean(summand)), float(np.std(summand) / np.sqrt(summand.size))


def _g2_from_means(m2, m4):
    num = (2.0 / 3.0) * m4 - 2.0 * m2 + 0.5
    den = m2**2 - m2 + 0.25
    return num / den


def g2_single(ds: QuadratureDataset):
    """Second-order coherence g²(t,t) from phase-averaged q² and q⁴ moments.

    Standard error by `jackknife` on the moment pair.  Refuses
    near-vacuum records whose ⟨n⟩ is not resolved at 5 standard errors
    (the normalization diverges).
    """
    require_full_coverage(ds, 4)
    return _g2_single(ds.qs**2, ds.qs**4)


def _g2_single(q2, q4):
    resolved_mean_photon(q2, q4)
    return jackknife(_g2_from_means, (q2, q4))


def jackknife(f, *runs):
    """(f of the column means, delete-1 jackknife std err) over independent
    runs, each a tuple of equally long sample columns; f takes every run's
    column means in order.  Each run's samples are left out in turn while
    the other runs' means are held, and the runs' variances add."""
    means = [[c.mean() for c in run] for run in runs]
    var = 0.0
    for i, run in enumerate(runs):
        n = run[0].size
        held = [*means[:i], [(c.sum() - c) / (n - 1) for c in run], *means[i + 1:]]
        loo = f(*(m for ms in held for m in ms))
        var += (n - 1) / n * np.sum((loo - loo.mean()) ** 2)
    return float(f(*(m for ms in means for m in ms))), float(np.sqrt(var))


def moment_report(ds: QuadratureDataset, factorial_orders=(1, 2)) -> MomentReport:
    """The moments above (g² None near vacuum) over one phase-coverage check."""
    require_full_coverage(ds, 2, *(2 * r for r in factorial_orders), 4)
    # each power once per record: a libm pow per sample is most of the work
    powers = ds.qs**2, ds.qs**4
    mn, mn_se = _mean_photon(*powers)
    fm = {r: _factorial_moment(ds.qs, r) for r in factorial_orders}
    try:
        g2, g2_se = _g2_single(*powers)
    except NearVacuumError:
        g2, g2_se = None, None
    return MomentReport(mean_n=mn, mean_n_stderr=mn_se, g2=g2, g2_stderr=g2_se,
                        factorial_moments=fm, n_samples=len(ds),
                        eta_eff=ds.meta.detector.eta_eff)
