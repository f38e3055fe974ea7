"""Filtered back-projection of the Wigner function from quadrature records.

The inversion integrates the measured Pr(q_θ, θ) against the |ξ| ramp
filter over θ ∈ [0, π); samples at θ ∈ [π, 2π) are folded in via
Pr(q, θ+π) = Pr(−q, θ) by `detection.fold_phases`, the fold the pattern
estimator uses too.  The ramp is truncated at a frequency cutoff k_c with
a cosine roll-off over its top 20% (`KERNEL`), which trades statistical
noise against a small deterministic smoothing bias.

FBP reads a record only through its count table: the samples in each
occupied (distinct folded phase, q bin) cell, with Q_BINS bins over
|q| ≤ Q_SPAN plus one cell each side for samples beyond.  Phase-bin
histograms and counts are sums over the table, and a bootstrap replicate
is one multinomial draw of its counts; `count_table` builds it once for a
run that needs both.  The table fixes the phase each bin projects at: a
bin whose cells all hold one phase (`detection.phase_keys`), as on a grid
schedule, projects at that phase, any other bin at the table's
count-weighted mean phase, and every replicate keeps these phases.  The
filter is a q_bins × q_bins matrix cached per (q_bins, dq, k_c) and
shared read-only by every FBP.  FBP and every replicate back-project
through one function: np.interp of each filtered projection at the pixels
asked for, added bin by bin.  The bootstrap draws, filters and
back-projects replicates in blocks, normalizes each by its grid integral,
the dot product of its projections with the bin phases' column sums of
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
from .detection import QuadratureDataset, fold_phases, phase_keys
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


@dataclass
class RadonConfig:
    k_c: float = 5.0
    n_phase_bins: int = 32

    def __post_init__(self):
        if self.k_c <= 0:
            raise ConfigError("k_c must be positive")
        if self.n_phase_bins < 2:
            raise ConfigError("need at least 2 phase bins")


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


def _count_table(thetas, qs, n_phase_bins: int):
    """(cell, phase, count) per occupied (distinct folded phase, q column)
    cell, at most len(qs) of them; cell = phase bin · (Q_BINS + 2) + column,
    where column 0 holds q < −Q_SPAN and Q_BINS + 1 holds q > Q_SPAN."""
    dtheta = np.pi / n_phase_bins
    # bins centered on k·dθ so exact grid phases never straddle an edge;
    # the wrap region near π folds onto θ−π, −q by the same symmetry
    theta_f, q_f = fold_phases(*fold_phases(thetas, qs), lower=-dtheta / 2)
    phases, row = np.unique(theta_f, return_inverse=True)
    col = np.searchsorted(_EDGES, q_f, "right")
    col[q_f == Q_SPAN] = Q_BINS      # np.histogram closes the last bin
    cells, counts = np.unique(row * (Q_BINS + 2) + col, return_counts=True)
    theta = phases[cells // (Q_BINS + 2)]
    bin_idx = np.clip(np.rint(theta / dtheta).astype(int), 0, n_phase_bins - 1)
    return bin_idx * (Q_BINS + 2) + cells % (Q_BINS + 2), theta, counts


@dataclass(frozen=True)
class CountTable:
    """A record's count table for n_phase_bins phase bins: each occupied
    cell (bin · (Q_BINS + 2) + column), its phase and its sample count."""

    cell: np.ndarray
    theta: np.ndarray
    counts: np.ndarray
    n_phase_bins: int


def count_table(ds: QuadratureDataset, n_phase_bins: int) -> CountTable:
    """The count table both FBP functions read, built once to pass to both."""
    return CountTable(*_count_table(ds.thetas, ds.qs, n_phase_bins), n_phase_bins)


def _table(record, cfg: RadonConfig) -> CountTable:
    """The count table of a dataset, or the given CountTable if it has cfg's
    phase bins (ConfigError otherwise)."""
    if not isinstance(record, CountTable):
        return count_table(record, cfg.n_phase_bins)
    if record.n_phase_bins != cfg.n_phase_bins:
        raise ConfigError(f"count table has {record.n_phase_bins} phase bins, "
                          f"the config {cfg.n_phase_bins}")
    return record


def _projections(cell, counts, n_phase_bins: int):
    """Per-phase-bin histograms Pr_M(q | θ_bin) and sample counts from
    count-table entries, for one count vector or a stack of them (…, cells);
    CoverageError if a bin is empty."""
    counts = np.asarray(counts)
    stack = counts.reshape(-1, counts.shape[-1])
    hist = np.stack([np.bincount(cell, c, n_phase_bins * (Q_BINS + 2)) for c in stack])
    hist = hist.reshape(len(stack), n_phase_bins, Q_BINS + 2)
    bin_counts = hist.sum(axis=2)
    empty = np.nonzero((bin_counts == 0).any(axis=0))[0]
    if empty.size:
        raise CoverageError(f"empty phase bins {empty.tolist()}; cover [0, π) before inverting")
    proj = hist[..., 1:-1] / (bin_counts[..., None] * _DQ)
    lead = counts.shape[:-1]
    return (proj.reshape(*lead, n_phase_bins, Q_BINS),
            bin_counts.astype(int).reshape(*lead, n_phase_bins))


def _bin_phases(cell, theta, counts, n_phase_bins: int) -> np.ndarray:
    """The phase each bin projects at, fixed by a count table.

    A locked bin, one whose cells all hold one phase, projects at its
    smallest cell phase: a grid phase and its folded partner θ + π − π
    differ by an ulp.  Any other bin projects at the table's count-weighted
    mean phase.  A bootstrap replicate redraws the counts and keeps these
    phases.
    """
    bins = cell // (Q_BINS + 2)
    keys = phase_keys(theta)
    lo, hi, first = (np.full(n_phase_bins, v) for v in (np.inf, -np.inf, np.inf))
    np.minimum.at(lo, bins, keys)
    np.maximum.at(hi, bins, keys)
    np.minimum.at(first, bins, theta)
    # an empty bin, which _projections refuses, divides by 1, not 0
    mean = (np.bincount(bins, counts * theta, n_phase_bins)
            / np.maximum(np.bincount(bins, counts, n_phase_bins), 1))
    return np.where(lo == hi, first, mean)


def _filtered(proj, cfg: RadonConfig):
    """Filtered projections G_b(q) = ∫ Pr(q'|θ_b) κ(q − q') dq' of a stack of
    projections (…, Q_BINS), as one product."""
    kappa = ramp_filter_matrix(Q_BINS, float(_DQ), cfg.k_c)
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


def _backproject(proj, bin_counts, phases, cfg: RadonConfig) -> WignerGrid:
    meta = {"bin_counts": bin_counts.tolist(), "k_c": cfg.k_c, "kernel": KERNEL}
    if bin_counts.min() < 100:
        meta["low_count_warning"] = True
    scale = (np.pi / len(phases)) / (4.0 * np.pi**2)
    w = _backproject_bins(_filtered(proj, cfg)[None], phases)[0] * scale
    q_axis, p_axis = default_grid_axis(), default_grid_axis()
    grid = WignerGrid(q_axis=q_axis, p_axis=p_axis,
                      values=w.reshape(q_axis.size, p_axis.size), meta=meta)
    total = grid.integral()
    grid.values /= total
    grid.meta["raw_integral"] = total
    return grid


def filtered_backprojection(ds: QuadratureDataset | CountTable,
                            cfg: RadonConfig | None = None) -> WignerGrid:
    """Reconstruct W(q, p) from a quadrature dataset or its count table.

    Raises CoverageError when any phase bin is empty; flags bins with fewer
    than 100 samples in the result metadata.  Output is renormalized to
    unit integral on its grid.
    """
    cfg = cfg or RadonConfig()
    t = _table(ds, cfg)
    return _backproject(*_projections(t.cell, t.counts, cfg.n_phase_bins),
                        _bin_phases(t.cell, t.theta, t.counts, cfg.n_phase_bins), cfg)


def _replicate_sums(cell, phases, draws, cfg: RadonConfig, pixels=None, centre=None):
    """c, Σ (W − c) and Σ (W − c)² at flat pixels of the default grid (all by
    default) over a block of count-table draws (R, cells) projected at the
    bin phases, each W normalized as FBP returns it; c is centre, or the
    block's mean if None.  Each replicate's grid integral is its filtered
    projections' dot product with the phases' cached column sums.
    Replicates are added in order, so a pixel's sums do not depend on which
    others are asked for.  The block's arrays are freed before the next
    block is drawn."""
    filtered = _filtered(_projections(cell, draws, cfg.n_phase_bins)[0], cfg)
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
                             cfg: RadonConfig | None = None,
                             n_boot: int = 100, seed: int = 0,
                             pixels=None) -> WignerGrid:
    """Per-pixel standard error of the FBP reconstruction by resampling
    (θ, q) pairs with replacement, drawn as one multinomial(N, counts / N)
    draw of the count table per replicate.  Takes the dataset or its count
    table.

    Every replicate projects each phase bin at the phase the table fixes
    for it (`_bin_phases`), through the FBP's own back-projection, so the
    error is conditional on the LO phases, which the schedule sets.

    pixels lists the (q index, p index) pairs of the default grid to report;
    every other pixel of the result is NaN.  By default all are reported.
    A pixel's error does not depend on which others are asked for, and
    asking for a few costs far less than the whole grid.  Replicates are
    drawn in blocks of _BLOCK, so memory does not grow with n_boot.
    ConfigError below 2 replicates, which give no spread.
    """
    if n_boot < 2:
        raise ConfigError(f"the bootstrap needs at least 2 replicates, got {n_boot}")
    cfg = cfg or RadonConfig()
    rng = stream(seed, "bootstrap")
    table = _table(ds, cfg)
    cell, counts = table.cell, table.counts
    phases = _bin_phases(cell, table.theta, counts, cfg.n_phase_bins)
    q_axis = default_grid_axis()
    flat = (None if pixels is None
            else np.ravel_multi_index(np.transpose(pixels), (q_axis.size,) * 2))
    n = int(counts.sum())
    centre, acc, acc2 = None, 0.0, 0.0
    for start in range(0, n_boot, _BLOCK):
        draws = np.array([rng.multinomial(n, counts / n)
                          for _ in range(min(_BLOCK, n_boot - start))])
        centre, s1, s2 = _replicate_sums(cell, phases, draws, cfg, flat, centre)
        acc, acc2 = acc + s1, acc2 + s2
    # deviations from the first block's mean keep the digits Σ W² − n·mean² cancels
    var = np.clip(acc2 - acc**2 / n_boot, 0.0, None) / (n_boot - 1)
    values = np.full(q_axis.size**2, np.nan)
    values[slice(None) if flat is None else flat] = np.sqrt(var)
    return WignerGrid(q_axis=q_axis, p_axis=q_axis.copy(),
                      values=values.reshape(q_axis.size, q_axis.size),
                      meta={"n_boot": n_boot})
