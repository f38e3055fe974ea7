"""Filtered back-projection of the Wigner function from quadrature records.

The inversion integrates the measured Pr(q_θ, θ) against the |ξ| ramp
filter over θ ∈ [0, π); samples at θ ∈ [π, 2π) are folded in via
Pr(q, θ+π) = Pr(−q, θ) by `detection.fold_phases`, the fold the pattern
estimator uses too.  The ramp is truncated at a frequency cutoff k_c with
a cosine roll-off over its top 20% (`KERNEL`), which trades statistical
noise against a small deterministic smoothing bias.

FBP reads a record only through its count table: the samples in each
(phase bin, q column) cell, Q_BINS columns over |q| ≤ Q_SPAN plus one each
side for samples beyond, and the phase each bin projects at.  No argument
sets the phase bins: the record gets PHASE_BINS = 32, or one per distinct
folded phase if it has fewer (at least 2).  A bin whose samples all hold
one phase (`detection.phase_keys`), as on a grid schedule, projects at
that phase, any other bin at its count-weighted mean phase.  A bootstrap
replicate is one multinomial draw over the table's cells and keeps its
phases; `count_table` builds it once for a run that needs both.  The
filter is a q_bins × q_bins matrix cached per (q_bins, dq, k_c) and shared
read-only by every FBP.  FBP and every replicate back-project through one
function: np.interp of each filtered projection at the pixels asked for,
added bin by bin.  The bootstrap draws, filters and back-projects
replicates in blocks, normalizes each by its grid integral, the dot
product of its projections with the bin phases' column sums of
interpolation weights (cached per phase), sums each pixel's deviations
from the first block's mean, and reports the pixels asked for.  W is
returned on the default ±6 phase-space grid; the W of a lossy record is
the closed form of `states.apply_loss`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ._rng import stream
from .detection import QuadratureDataset, distinct, fold_phases, phase_keys
from .errors import ConfigError, CoverageError
from .states import WignerGrid, default_grid_axis

Q_BINS = 256
Q_SPAN = 8.0
_EDGES = np.linspace(-Q_SPAN, Q_SPAN, Q_BINS + 1)
_CENTERS = 0.5 * (_EDGES[1:] + _EDGES[:-1])
_DQ = _EDGES[1] - _EDGES[0]
#: bootstrap replicates drawn, filtered and back-projected together
_BLOCK = 16
#: ramp-integral lags evaluated together, which bounds the cos temporaries
_LAG_CHUNK = 16
#: the ramp filter, as reports name it
KERNEL = "ram-lak-with-cosine-rolloff"
#: phase bins on [0, π) of a record with at least this many folded phases
PHASE_BINS = 32


def check_cutoff(k_c: float) -> None:
    """ConfigError unless the ramp cutoff k_c is a positive finite number."""
    if not 0.0 < k_c < np.inf:
        raise ConfigError(f"the ramp cutoff k_c must be a positive finite number, got {k_c}")


def ramp_kernel_profile(u: np.ndarray, k_c: float) -> np.ndarray:
    """κ(u) = 2 ∫_0^{k_c} ξ w(ξ) cos(ξu) dξ, the real-space ramp filter, with
    w a cosine roll-off from 1 to 0 over the top 20% of [0, k_c]."""
    xi = np.linspace(0.0, k_c, 4001)
    w = np.ones_like(xi)
    edge = 0.8 * k_c
    tail = xi > edge
    w[tail] = 0.5 * (1.0 + np.cos(np.pi * (xi[tail] - edge) / (k_c - edge)))
    integrand = xi * w
    u = np.asarray(u, float)
    out = np.empty(u.size)
    for i in range(0, u.size, _LAG_CHUNK):
        chunk = u[i:i + _LAG_CHUNK]
        out[i:i + _LAG_CHUNK] = np.trapezoid(integrand * np.cos(np.outer(chunk, xi)), xi, axis=1)
    return 2.0 * out


@lru_cache(maxsize=8)
def ramp_filter_matrix(q_bins: int, dq: float, k_c: float) -> np.ndarray:
    """κ(q_i − q_j) on a uniform grid of q_bins centres spaced dq, read-only.

    κ is even, so the ramp integral is evaluated once per lag |i − j| ∈
    [0, q_bins) and gathered into the matrix.
    """
    lag = np.abs(np.arange(q_bins)[:, None] - np.arange(q_bins)[None, :])
    kappa = ramp_kernel_profile(np.arange(q_bins) * dq, k_c)[lag]
    kappa.flags.writeable = False
    return kappa


@dataclass(frozen=True)
class CountTable:
    """A record's samples per (phase bin, q column), shape (bins, Q_BINS +
    2), where column 0 holds q < −Q_SPAN and Q_BINS + 1 holds q > Q_SPAN,
    and the phase each bin projects at."""

    hist: np.ndarray
    phases: np.ndarray


def _count_table(thetas, qs, n_phase_bins: int) -> CountTable:
    """The count table of a record on n_phase_bins phase bins.  A locked bin
    projects at its smallest phase, since a grid phase and its folded partner
    θ + π − π differ by an ulp; any other bin at its count-weighted mean."""
    dtheta = np.pi / n_phase_bins
    # bins centered on k·dθ so exact grid phases never straddle an edge;
    # the wrap region near π folds onto θ−π, −q by the same symmetry
    theta_f, q_f = fold_phases(*fold_phases(thetas, qs), lower=-dtheta / 2)
    phases, row = np.unique(theta_f, return_inverse=True)
    col = np.searchsorted(_EDGES, q_f, "right")
    col[q_f == Q_SPAN] = Q_BINS      # np.histogram closes the last bin
    # the occupied (folded phase, column) cells, at most one per sample
    cells, counts = np.unique(row * (Q_BINS + 2) + col, return_counts=True)
    theta = phases[cells // (Q_BINS + 2)]
    bins = np.clip(np.rint(theta / dtheta).astype(int), 0, n_phase_bins - 1)
    hist = np.bincount(bins * (Q_BINS + 2) + cells % (Q_BINS + 2), counts,
                       n_phase_bins * (Q_BINS + 2)).astype(int).reshape(n_phase_bins, -1)
    keys = phase_keys(theta)
    lo, hi, first = (np.full(n_phase_bins, v) for v in (np.inf, -np.inf, np.inf))
    np.minimum.at(lo, bins, keys)
    np.maximum.at(hi, bins, keys)
    np.minimum.at(first, bins, theta)
    # an empty bin, which _projections refuses, divides by 1, not 0
    mean = np.bincount(bins, counts * theta, n_phase_bins) / np.maximum(hist.sum(axis=1), 1)
    return CountTable(hist, np.where(lo == hi, first, mean))


def count_table(ds: QuadratureDataset) -> CountTable:
    """The count table both FBP functions read, built once to pass to both:
    PHASE_BINS phase bins, or one per distinct folded phase key when the
    record has fewer; CoverageError below 2 folded phases."""
    phases = distinct(ds.thetas)        # fold and key the distinct phases only
    n_keys = distinct(phase_keys(fold_phases(phases, phases)[0])).size
    if n_keys < 2:
        raise CoverageError(f"{n_keys} distinct phase(s) on [0, π); "
                            "the radon reconstruction needs at least 2")
    return _count_table(ds.thetas, ds.qs, min(PHASE_BINS, n_keys))


def _projections(hist):
    """Per-phase-bin histograms Pr_M(q | θ_bin) and sample counts of a count
    array (bins, Q_BINS + 2) or a stack of them; CoverageError if a bin is
    empty."""
    bin_counts = hist.sum(axis=-1)
    empty = np.flatnonzero(np.atleast_2d(bin_counts == 0).any(axis=0))
    if empty.size:
        raise CoverageError(f"empty phase bins {empty.tolist()}; cover [0, π) before inverting")
    return hist[..., 1:-1] / (bin_counts[..., None] * _DQ), bin_counts


def _filtered(proj, k_c: float):
    """Filtered projections G_b(q) = ∫ Pr(q'|θ_b) κ(q − q') dq' of a stack of
    projections (…, Q_BINS), as one product."""
    kappa = ramp_filter_matrix(Q_BINS, float(_DQ), k_c)
    return (proj.reshape(-1, Q_BINS) @ kappa.T * _DQ).reshape(proj.shape)


def _backproject_bins(filtered, phases, pixels=None):
    """Σ_b F_rb(q cos θ_b + p sin θ_b), W up to the factor (π / bins) / 4π²,
    at flat pixels of the default grid (all of them by default), as
    (R, pixels), from R replicates' filtered projections F (R, bins, Q_BINS)
    with bin b at θ_b = phases[b]: np.interp of each projection at the
    pixels, added bin by bin."""
    axis = default_grid_axis()
    pix = np.arange(axis.size**2) if pixels is None else np.asarray(pixels)
    q, p = axis[pix // axis.size], axis[pix % axis.size]
    w = np.zeros((len(filtered), pix.size))
    for b, th in enumerate(phases):
        x = q * np.cos(th) + p * np.sin(th)
        for r in range(len(filtered)):
            w[r] += np.interp(x, _CENTERS, filtered[r, b], left=0.0, right=0.0)
    return w


@lru_cache(maxsize=256)
def _column_sums(theta: float) -> np.ndarray:
    """Interpolation weight on each projection centre summed over the default
    grid at phase θ, read-only: the grid sum of the back-projection of F at
    θ is its dot product with F."""
    axis = default_grid_axis()
    x = (axis[:, None] * np.cos(theta) + axis * np.sin(theta)).ravel()
    x = x[(x >= _CENTERS[0]) & (x <= _CENTERS[-1])]
    t = (x - _CENTERS[0]) / _DQ
    j = np.clip(t, 0, Q_BINS - 2).astype(np.intp)
    sums = np.bincount(j, 1.0 - (t - j), Q_BINS)
    sums[1:] += np.bincount(j, t - j, Q_BINS)[:-1]     # weight t − j sits on column j + 1
    sums.flags.writeable = False
    return sums


def _backproject(proj, bin_counts, phases, k_c: float) -> WignerGrid:
    meta = {"bin_counts": bin_counts.tolist(), "k_c": k_c, "kernel": KERNEL}
    if bin_counts.min() < 100:
        meta["low_count_warning"] = True
    scale = (np.pi / len(phases)) / (4.0 * np.pi**2)
    w = _backproject_bins(_filtered(proj, k_c)[None], phases)[0] * scale
    q_axis, p_axis = default_grid_axis(), default_grid_axis()
    grid = WignerGrid(q_axis=q_axis, p_axis=p_axis,
                      values=w.reshape(q_axis.size, p_axis.size), meta=meta)
    total = grid.integral()
    grid.values /= total
    grid.meta["raw_integral"] = total
    return grid


def filtered_backprojection(ds: QuadratureDataset | CountTable,
                            k_c: float = 5.0) -> WignerGrid:
    """Reconstruct W(q, p) with ramp cutoff k_c from a quadrature dataset or
    its count table, on the table's phase bins.

    Raises ConfigError for a cutoff that is not positive, CoverageError when
    any phase bin is empty; flags bins with fewer than 100 samples in the
    result metadata.  Output is renormalized to unit integral on its grid.
    """
    check_cutoff(k_c)
    t = ds if isinstance(ds, CountTable) else count_table(ds)
    return _backproject(*_projections(t.hist), t.phases, k_c)


def _replicate_sums(phases, draws, k_c: float, pixels=None, centre=None):
    """c, Σ (W − c) and Σ (W − c)² at flat pixels of the default grid (all by
    default) over a block of count-table draws (R, bins, Q_BINS + 2)
    projected at the bin phases, each W normalized as FBP returns it; c is
    centre, or the block's mean if None.  Each replicate's grid integral is
    its filtered projections' dot product with the phases' cached column sums.
    Replicates are added in order, so a pixel's sums do not depend on which
    others are asked for.  The block's arrays are freed before the next
    block is drawn."""
    filtered = _filtered(_projections(draws)[0], k_c)
    w = _backproject_bins(filtered, phases, pixels)
    sums = np.array([_column_sums(th) for th in phases])
    total = np.einsum("rbq,bq->r", filtered, sums)
    axis = default_grid_axis()
    w /= total[:, None] * (axis[1] - axis[0]) ** 2
    zero = np.zeros(w.shape[1])
    if centre is None:
        centre = reduce(np.add, w, zero) / len(w)
    w -= centre
    return centre, reduce(np.add, w, zero), reduce(np.add, np.square(w, out=w), zero)


def bootstrap_backprojection(ds: QuadratureDataset | CountTable,
                             k_c: float = 5.0,
                             n_boot: int = 100, seed: int = 0,
                             pixels=None) -> WignerGrid:
    """Per-pixel standard error of the FBP reconstruction by resampling
    (θ, q) pairs with replacement, drawn as one multinomial(N, hist / N)
    draw over the count table's (bin, q column) cells per replicate.  Takes
    the dataset or its count table.

    Every replicate projects each phase bin at the phase the table fixes
    for it (`CountTable.phases`), through the FBP's own back-projection, so
    the error is conditional on the LO phases, which the schedule sets.

    pixels lists the (q index, p index) pairs of the default grid to report;
    every other pixel of the result is NaN.  By default all are reported.
    A pixel's error does not depend on which others are asked for, and
    asking for a few costs far less than the whole grid.  Replicates are
    drawn in blocks of _BLOCK, so memory does not grow with n_boot.
    ConfigError below 2 replicates, which give no spread, and for a cutoff
    that is not positive.
    """
    if n_boot < 2:
        raise ConfigError(f"the bootstrap needs at least 2 replicates, got {n_boot}")
    check_cutoff(k_c)
    rng = stream(seed, "bootstrap")
    table = ds if isinstance(ds, CountTable) else count_table(ds)
    q_axis = default_grid_axis()
    flat = (None if pixels is None
            else np.ravel_multi_index(np.transpose(pixels), (q_axis.size,) * 2))
    n = int(table.hist.sum())
    pvals = table.hist.ravel() / n
    centre, acc, acc2 = None, 0.0, 0.0
    for start in range(0, n_boot, _BLOCK):
        draws = rng.multinomial(n, pvals, size=min(_BLOCK, n_boot - start))
        centre, s1, s2 = _replicate_sums(table.phases, draws.reshape(-1, *table.hist.shape),
                                         k_c, flat, centre)
        acc, acc2 = acc + s1, acc2 + s2
    # deviations from the first block's mean keep the digits Σ W² − n·mean² cancels
    var = np.clip(acc2 - acc**2 / n_boot, 0.0, None) / (n_boot - 1)
    values = np.full(q_axis.size**2, np.nan)
    values[slice(None) if flat is None else flat] = np.sqrt(var)
    return WignerGrid(q_axis=q_axis, p_axis=q_axis.copy(),
                      values=values.reshape(q_axis.size, q_axis.size),
                      meta={"n_boot": n_boot})
