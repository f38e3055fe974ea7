"""Pattern functions for direct density-matrix sampling from quadrature data.

The quadrature law Pr(q, θ) = Σ ρ_μν G_μν(q, θ) is inverted through a dual
basis F_mn = M_mn(q) e^{−i(m−n)θ}.  Bi-orthogonality decouples into one
condition per index-difference band D = m − n:

    ∫ M_{n+D,n}(q) ψ_{ν+D}(q) ψ_ν(q) dq = δ_nν,

solved here by a Gram-matrix inversion over the damped Hermite basis
φ_ν(q) = (2ν+1) ψ_{m(ν)}(q) e^{−q²/2} with the parity of m(ν) matched to
the band.  The per-band Gram residual is driven to ~1e-10 with extended
precision iterative refinement, so band overlaps are self-certifying.

The record is first folded onto the [0, π) half circle by
`detection.fold_phases`, the fold filtered back-projection uses too: the
phase integral is symmetric under Pr(q, θ+π) = Pr(−q, θ) because the
pattern functions carry parity (−1)^{m−n}.  One estimator serves every
phase schedule: ρ_{n+D,n} = Σ_k c_k e^{iDθ_k} ⟨M_{n+D,n}⟩_k over the
record's distinct folded phases θ_k.  A grid weighs its K phases equally
(c_k = 1/K, the rectangle rule, exact for K ≥ dim); a random or swept
record weighs each phase by its share of the samples (c_k = N_k/N), which
is the plain sample mean of e^{iDθ} M(q) (D'Ariano, Macchiavello & Paris,
PRA 50, 4298 (1994); Leonhardt et al., Opt. Commun. 127, 144 (1996)).
The estimator deposits each sample's linear interpolation weights on the
pattern grid (cloud in cell).  A grid deposits them in the row of the
sample's phase, for ⟨M⟩ and for ⟨M²⟩.  Any other record deposits them in
one row for ⟨M²⟩ and, for each band D, times e^{iDθ} in one complex row
for ⟨M⟩, so its tables keep their size whatever the number of phases.
Every mean follows from matrix products of those deposits with the
tabulated bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detection import QuadratureDataset, fold_phases, phase_keys
from .errors import AliasingError, CoverageError, GramConditionError
from .states import DensityMatrix, hermite_psi_all

GRID_POINTS = 4097
GRID_SPAN = 8.0
COND_LIMIT = 1e12
#: largest table size; from 28 on, band 0's Gram condition number exceeds
#: COND_LIMIT
MAX_DIM = 27


def _simpson_weights(n: int, dx: float) -> np.ndarray:
    if n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points")
    w = np.ones(n, dtype=np.longdouble)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


@dataclass
class PatternFunctionTable:
    """Sampled dual-basis functions M_mn(q), stored per band m − n >= 0.

    band_values[D] has shape (dim − D, len(q_axis)); row μ holds
    M_{μ+D, μ}.  M is symmetric in its indices.
    """

    dim: int
    q_axis: np.ndarray
    band_values: dict
    condition_numbers: dict
    biorth_residuals: dict = field(default_factory=dict)

    def values(self, m: int, n: int) -> np.ndarray:
        band = abs(m - n)
        return self.band_values[band][min(m, n)]


def build_pattern_functions(dim: int) -> PatternFunctionTable:
    """Construct the dual-basis table for indices < dim on GRID_POINTS points
    over ±GRID_SPAN.

    dim is capped at MAX_DIM, and construction refuses bands whose
    condition number exceeds 1e12.
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM} (Gram conditioning bound)")
    q_axis = np.linspace(-GRID_SPAN, GRID_SPAN, GRID_POINTS)
    ql = q_axis.astype(np.longdouble)
    wts = _simpson_weights(q_axis.size, float(q_axis[1] - q_axis[0]))

    psi = hermite_psi_all(2 * dim, q_axis).astype(np.longdouble)
    gauss = np.exp(-ql**2 / 2.0)

    band_values = {}
    conds = {}
    residuals = {}
    for band in range(dim):
        n_funcs = dim - band
        nu = np.arange(n_funcs)
        chi = psi[nu + band] * psi[nu]                       # χ_{ν+band, ν}
        m_of = 2 * nu + (band % 2)                           # parity-matched basis index
        phi = (2 * nu + 1).astype(np.longdouble)[:, None] * psi[m_of] * gauss[None, :]
        gram = (phi * wts[None, :]) @ chi.T                  # ℘_μν = ∫ φ_μ χ_ν
        gram64 = gram.astype(float)
        cond = float(np.linalg.cond(gram64))
        conds[band] = cond
        if cond > COND_LIMIT:
            raise GramConditionError(
                f"band {band}: Gram condition number {cond:.2e} exceeds {COND_LIMIT:.0e}; "
                "reduce dim")
        C = np.linalg.inv(gram64).astype(np.longdouble)
        C0 = C.copy()
        eye = np.eye(n_funcs, dtype=np.longdouble)
        for _ in range(3):
            R = eye - C @ gram
            C = C + R @ C0
        resid = float(np.max(np.abs(eye - C @ gram)))
        residuals[band] = resid
        band_values[band] = np.asarray(C @ phi, dtype=float)
    return PatternFunctionTable(dim=dim, q_axis=q_axis, band_values=band_values,
                                condition_numbers=conds, biorth_residuals=residuals)


def _cloud_in_cell(q: np.ndarray, q_axis: np.ndarray):
    """Linear-interpolation (cloud in cell) weights of samples on the pattern grid.

    Returns the mask of the samples inside the axis and, for each of those
    at q = (1 − f) q_j + f q_{j+1}, its cell j and fraction f.  Deposits of
    (1 − f) at j and f at j + 1 (w1), of (1 − f)² and f² (w2), and of
    (1 − f) f at j (w11), give the sums over the samples of the interpolant
    M(q) of a table row M sampled on q_axis (0 outside the axis, as
    np.interp):

        Σ M(q) = w1 @ M,   Σ M(q)² = w2 @ M² + 2 w11[:-1] @ (M[:-1] M[1:]).
    """
    inside = (q >= q_axis[0]) & (q <= q_axis[-1])
    q = q[inside]
    j = np.clip(np.searchsorted(q_axis, q, side="right") - 1, 0, q_axis.size - 2)
    return inside, j, (q - q_axis[j]) / (q_axis[j + 1] - q_axis[j])


def _deposit(cell: np.ndarray, rows: int, g: int, at_j: np.ndarray,
             at_next: np.ndarray | None = None) -> np.ndarray:
    """(rows, g) table of the weights at_j summed in flat cells cell and
    at_next in cell + 1, row r holding cells r·g … r·g + g − 1."""
    acc = np.bincount(cell, weights=at_j, minlength=rows * g)
    if at_next is not None:
        acc += np.bincount(cell + 1, weights=at_next, minlength=rows * g)
    return acc.reshape(rows, g)


def rho_from_quadratures(ds: QuadratureDataset, pf: PatternFunctionTable):
    """Density matrix and per-element standard errors from a homodyne record.

    The record is folded onto the [0, π) half circle and ρ_{n+D,n} =
    Σ_k c_k e^{iDθ_k} ⟨M_{n+D,n}⟩_k is summed over its distinct folded
    phases θ_k; the schedule in the record's meta picks the weights.

    A grid takes c_k = 1/K over its K phases, which is alias-free as long as
    K >= dim: a state holding at most ñ photons needs ñ + 1 equally spaced
    projection angles on [0, π), fewer are refused (AliasingError), and so
    are phases that are not equally spaced (CoverageError).  Its variance is
    Σ_k c_k² Var_k(M)/N_k, with each phase a stratum.

    A uniform_random or swept_linear record takes c_k = N_k/N: ρ̂ is the
    sample mean of e^{iDθ} M(q), unbiased for any number of phases, with
    variance (⟨M²⟩ − |ρ̂|²)/N over the record as one stratum.  For a random
    record this is the estimator's variance.  A swept record's phases are
    fixed, so the spread of e^{iDθ_k}⟨M⟩_k between its phases, which that
    variance includes, is no noise: its errors are conservative.

    Errors are the standard deviation of ρ̂ − ρ as a complex number (its
    real and imaginary variances added).
    """
    dim = pf.dim
    theta_f, q_f = fold_phases(ds.thetas, ds.qs)
    thetas, bins = np.unique(phase_keys(theta_f), return_inverse=True)
    d = thetas.size
    if d == 0:
        raise CoverageError("the record holds no samples")
    grid = ds.meta.schedule.kind == "grid"
    if grid:
        if d > 1 and np.max(np.abs(np.diff(thetas) - np.pi / d)) > 1e-8:
            raise CoverageError("phases are not equally spaced over the [0, π) half circle")
        if d < dim:
            raise AliasingError(
                f"{d} projection angles cannot resolve indices up to {dim - 1}: a state "
                f"with at most ñ photons needs ñ + 1 = {dim} equally spaced phases on [0, π)"
            )

    n_s = len(ds)
    inv_cnt = 1.0 / np.bincount(bins, minlength=d)[:, None]
    g = pf.q_axis.size
    inside, j, f = _cloud_in_cell(q_f, pf.q_axis)
    bins, lo = bins[inside], 1.0 - f
    # a grid deposits each phase in its own row, any other record in one row
    cell, rows = (bins * g + j, d) if grid else (j, 1)
    w2, w11 = _deposit(cell, rows, g, lo * lo, f * f), _deposit(cell, rows, g, lo * f)
    if grid:
        w1 = _deposit(cell, d, g, lo, f)
    rho = np.zeros((dim, dim), complex)
    err = np.zeros((dim, dim))
    for band in range(dim):
        M = pf.band_values[band]                      # row n holds M_{n+band, n}
        sums2 = w2 @ (M**2).T + 2.0 * (w11[:, :-1] @ (M[:, :-1] * M[:, 1:]).T)
        if grid:
            mean_k = (w1 @ M.T) * inv_cnt             # (d, dim − band)
            var_k = np.clip(sums2 * inv_cnt - mean_k**2, 0.0, None)
            est = np.exp(1j * band * thetas) @ mean_k / d
            # per-bin phase factors are unit modulus, so Re/Im variances add
            # to (1/d²) Σ_k Var_k(M)/N_k regardless of the phases
            sigma = np.sqrt(np.sum(var_k * inv_cnt, axis=0) / d**2)
        else:
            # one deposit of e^{iDθ}(1 − f) at j and e^{iDθ} f at j + 1 over the
            # whole record, whatever its number of phases, real and imaginary
            # parts in turn
            turn = np.exp(1j * band * thetas)[bins]
            re = _deposit(j, 1, g, turn.real * lo, turn.real * f)[0] @ M.T
            im = _deposit(j, 1, g, turn.imag * lo, turn.imag * f)[0] @ M.T
            est = (re + 1j * im) / n_s
            sigma = np.sqrt(np.clip(sums2[0] / n_s - np.abs(est) ** 2, 0.0, None) / n_s)
        n = np.arange(dim - band)
        rho[n + band, n] = est
        rho[n, n + band] = np.conj(est)
        err[n + band, n] = err[n, n + band] = sigma
    dm = DensityMatrix(dim=dim, elements=rho,
                       meta={"method": "pattern", "d_phases": d, "n_samples": n_s})
    return dm, err
