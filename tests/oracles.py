"""Closed-form and independent references that only the tests call.

They use scipy, which the package itself does not need: the exact
difference-count law of two Poisson photodiodes, and the forward Radon
transform of a tabulated Wigner function.
"""

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.stats import skellam

from ohtlab.detection import DetectorModel
from ohtlab.errors import UnsupportedStateError
from ohtlab.states import StateSpec, WignerGrid


def skellam_difference_pdf(signal_alpha, theta: float, det: DetectorModel,
                           n_sigma: float = 8.0):
    """Exact difference-count law for a coherent signal: the Skellam pmf.

    With coherent signal and LO, the two diodes are independent Poisson
    sources with the beam-splitter output means, so n_− follows the
    modified-Bessel (Skellam) distribution, the closed evaluation of the
    general counting formula in this regime, and the exactness oracle for
    the strong-LO Gaussian model.

    Returns (n_values, pmf, mu1, mu2).
    """
    alpha = signal_alpha
    if isinstance(signal_alpha, StateSpec):
        if signal_alpha.kind not in ("vacuum", "coherent"):
            raise UnsupportedStateError(
                f"exact difference-count law only implemented for coherent signals, not {signal_alpha.kind}"
            )
        alpha = signal_alpha.alpha if signal_alpha.kind == "coherent" else 0.0
    alpha = complex(alpha)
    lo = det.lo_mean_photons
    q_mean = np.sqrt(2.0) * np.real(alpha * np.exp(-1j * theta))
    beat = det.eta_q * np.sqrt(lo) * q_mean / np.sqrt(2.0)
    base = det.eta_q * (lo + abs(alpha) ** 2) / 2.0
    mu1 = base * (1.0 + det.balance_imbalance) + beat
    mu2 = base * (1.0 - det.balance_imbalance) - beat
    if mu1 < 0 or mu2 < 0:
        raise ValueError("negative mean rate")
    center = mu1 - mu2
    width = n_sigma * np.sqrt(mu1 + mu2) + 10
    n_values = np.arange(int(np.floor(center - width)), int(np.ceil(center + width)) + 1)
    return n_values, skellam.pmf(n_values, mu1, mu2), mu1, mu2


def radon_forward(w: WignerGrid, theta: float, q_axis=None) -> np.ndarray:
    """Marginal Pr(q_θ): line integrals of W along the axis rotated by θ."""
    q_axis = w.q_axis if q_axis is None else np.asarray(q_axis, float)
    interp = RegularGridInterpolator((w.q_axis, w.p_axis), w.values, method="cubic",
                                     bounds_error=False, fill_value=0.0)
    span = max(w.q_axis[-1], w.p_axis[-1])
    t = np.linspace(-span * np.sqrt(2.0), span * np.sqrt(2.0), 2 * w.q_axis.size)
    c, s = np.cos(theta), np.sin(theta)
    qq = q_axis[:, None] * c - t[None, :] * s
    pp = q_axis[:, None] * s + t[None, :] * c
    vals = interp(np.stack([qq.ravel(), pp.ravel()], axis=-1)).reshape(qq.shape)
    return np.trapezoid(vals, t, axis=1)
