"""Filtered back-projection of the Wigner function from quadrature records.

The inversion integrates the measured Pr(q_θ, θ) against the |ξ| ramp
filter over θ ∈ [0, π); samples at θ ∈ [π, 2π) are folded in via
Pr(q, θ+π) = Pr(−q, θ) by `detection.fold_phases`, the fold the pattern
estimator uses too.  The ramp is truncated at a frequency cutoff k_c
(with an optional cosine roll-off over its top 20%), which trades
statistical noise against a small deterministic smoothing bias.

FBP reads a record only through its count table: the samples in each
occupied (distinct folded phase, q bin) cell, with Q_BINS bins over
|q| ≤ Q_SPAN plus one cell each side for samples beyond.  Phase-bin
histograms, counts and projection phases are sums over the table, and a
bootstrap replicate is one multinomial draw of its counts; `count_table`
builds it once for a run that needs both.  A bin whose cells all hold one
phase (`detection.phase_keys`), as on a grid schedule, is locked: it
projects at that phase in every draw; any other bin projects at its
count-weighted mean phase.  The filter is a q_bins × q_bins matrix cached
per (q_bins, dq, k_c, kernel) and shared read-only by every FBP.  The
bootstrap draws, filters and back-projects replicates in blocks, sums
each pixel's deviations from the first block's mean, and reports the
pixels asked for.  A bin phase shared by at least two replicates of a
block is one fixed linear map: each pixel asked for gathers two
interpolation weights per such phase, and each replicate's grid integral,
which normalizes it, is its projections' dot product with the phase's
column sums of interpolation weights, cached per phase.  Every other
projection goes through np.interp over the whole grid.  W is returned on
the default ±6 phase-space grid; the W of a lossy record is the closed
form of `states.apply_loss`.
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
#: pixels per slab of a shared-phase gather, which bounds its temporaries
_SLAB = 2048
#: ramp-integral lags evaluated together, which bounds the cos temporaries
_LAG_CHUNK = 16


@dataclass
class RadonConfig:
    k_c: float = 5.0
    n_phase_bins: int = 32
    kernel: str = "ram-lak-with-cosine-rolloff"

    KERNELS = ("ram-lak", "ram-lak-with-cosine-rolloff")

    def __post_init__(self):
        if self.k_c <= 0:
            raise ConfigError("k_c must be positive")
        if self.n_phase_bins < 2:
            raise ConfigError("need at least 2 phase bins")
        if self.kernel not in self.KERNELS:
            raise ConfigError(f"unknown filter kernel {self.kernel!r}")


def ramp_kernel_profile(u: np.ndarray, k_c: float, kernel: str) -> np.ndarray:
    """κ(u) = 2 ∫_0^{k_c} ξ w(ξ) cos(ξu) dξ, the real-space ramp filter."""
    xi = np.linspace(0.0, k_c, 4001)
    w = np.ones_like(xi)
    if kernel == "ram-lak-with-cosine-rolloff":
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
def ramp_filter_matrix(q_bins: int, dq: float, k_c: float, kernel: str) -> np.ndarray:
    """κ(q_i − q_j) on a uniform grid of q_bins centres spaced dq, read-only.

    κ is even, so the ramp integral is evaluated once per lag |i − j| ∈
    [0, q_bins) and gathered into the matrix.
    """
    lag = np.abs(np.arange(q_bins)[:, None] - np.arange(q_bins)[None, :])
    kappa = ramp_kernel_profile(np.arange(q_bins) * dq, k_c, kernel)[lag]
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


def _projections(cell, theta, counts, n_phase_bins: int):
    """Per-phase-bin histograms Pr_M(q | θ_bin), sample counts and projection
    phases from count-table entries, for one count vector or a stack of them
    (…, cells); CoverageError if a bin is empty.

    A locked bin, one whose cells all hold one phase, projects at its
    smallest cell phase whatever the counts: a grid phase and its folded
    partner θ + π − π differ by an ulp, so their count-weighted mean would
    move with every draw.  Any other bin projects at its count-weighted
    mean phase.
    """
    counts = np.asarray(counts)
    stack = counts.reshape(-1, counts.shape[-1])
    hist = np.stack([np.bincount(cell, c, n_phase_bins * (Q_BINS + 2)) for c in stack])
    hist = hist.reshape(len(stack), n_phase_bins, Q_BINS + 2)
    bin_counts = hist.sum(axis=2)
    empty = np.nonzero((bin_counts == 0).any(axis=0))[0]
    if empty.size:
        raise CoverageError(f"empty phase bins {empty.tolist()}; cover [0, π) before inverting")
    proj = hist[..., 1:-1] / (bin_counts[..., None] * _DQ)
    bins = cell // (Q_BINS + 2)
    mean_theta = np.stack([np.bincount(bins, c * theta, n_phase_bins) for c in stack]) / bin_counts
    keys = phase_keys(theta)
    lo, hi, first = (np.full(n_phase_bins, v) for v in (np.inf, -np.inf, np.inf))
    np.minimum.at(lo, bins, keys)
    np.maximum.at(hi, bins, keys)
    np.minimum.at(first, bins, theta)
    theta_proj = np.where(lo == hi, first, mean_theta)
    lead = counts.shape[:-1]
    return (proj.reshape(*lead, n_phase_bins, Q_BINS),
            bin_counts.astype(int).reshape(*lead, n_phase_bins),
            theta_proj.reshape(*lead, n_phase_bins))


def _filtered(proj, cfg: RadonConfig):
    """Filtered projections G_b(q) = ∫ Pr(q'|θ_b) κ(q − q') dq' of a stack of
    projections (…, Q_BINS), as one product."""
    kappa = ramp_filter_matrix(Q_BINS, float(_DQ), cfg.k_c, cfg.kernel)
    return (proj.reshape(-1, Q_BINS) @ kappa.T * _DQ).reshape(proj.shape)


def _interp_weights(x):
    """Left column j and weights (…, 2) of linear interpolation at x on
    _CENTERS, zero outside them: np.interp(x, _CENTERS, f, left=0, right=0)
    = w[…, 0] f[j] + w[…, 1] f[j + 1]."""
    t = (x - _CENTERS[0]) / _DQ
    j = np.clip(t, 0, Q_BINS - 2).astype(np.intp)
    w = np.empty(x.shape + (2,))
    f = np.subtract(t, j, out=w[..., 1])
    np.subtract(1.0, f, out=w[..., 0])
    w[(x < _CENTERS[0]) | (x > _CENTERS[-1])] = 0.0
    return j, w


def _gather(x, rows):
    """Σ_m np.interp(x[:, m], _CENTERS, block m of a row, left=0, right=0)
    for each of R rows (R, k·Q_BINS) holding k blocks of Q_BINS values, as
    (R, pixels), for x (pixels, k).

    Terms are added phase by phase, weight 0 before weight 1, the row order
    of a CSR interpolation operator, so the bits equal its product.
    """
    j, w = _interp_weights(x)
    j += np.arange(0, x.shape[1] * Q_BINS, Q_BINS)
    j, w = np.ascontiguousarray(j.T), np.ascontiguousarray(w.transpose(1, 2, 0))
    out = np.zeros((len(rows), len(x)))
    term = np.empty_like(out)
    for m in range(x.shape[1]):
        for e in (0, 1):
            np.take(rows, j[m] + e, axis=1, out=term)
            term *= w[m, e]
            out += term
    return out


@lru_cache(maxsize=256)
def _column_sums(theta: float) -> np.ndarray:
    """Interpolation weight on each projection centre summed over the default
    grid at phase θ, read-only: the grid sum of the back-projection of F at
    θ is its dot product with F."""
    axis = default_grid_axis()
    j, w = _interp_weights((axis[:, None] * np.cos(theta) + axis * np.sin(theta)).ravel())
    sums = np.bincount(j, w[:, 0], Q_BINS)
    sums[1:] += np.bincount(j, w[:, 1], Q_BINS)[:-1]     # weight 1 sits on column j + 1
    sums.flags.writeable = False
    return sums


def _backproject_stack(filtered, theta_proj, n_phase_bins: int, pixels=None):
    """Unnormalized W of a stack of R replicates at flat pixels of the default
    grid (all of them by default), as (R, pixels), and each replicate's sum
    over the whole grid (R,), from their filtered projections
    (R, bins, Q_BINS) at phases (R, bins).

    A bin phase used by at least two replicates is one fixed linear map of
    their projections: the pixels asked for are gathered from two
    interpolation weights per phase, slab by slab, and the grid sum is the
    projections' dot product with the phase's cached column sums.  A phase
    used once goes through np.interp over the whole grid.
    """
    axis = default_grid_axis()
    pix = np.arange(axis.size**2) if pixels is None else np.asarray(pixels)
    scale = (np.pi / n_phase_bins) / (4.0 * np.pi**2)
    w = np.zeros((len(theta_proj), pix.size))
    total = np.zeros(len(theta_proj))
    # shared[r, b]: another replicate projects bin b at the same phase
    shared = (theta_proj[:, None] == theta_proj[None]).sum(axis=1) >= 2
    phases, rhs = [], []
    for b in np.nonzero(shared.any(axis=0))[0]:
        for th in distinct(theta_proj[shared[:, b], b]):
            phases.append(th)
            rhs.append(filtered[:, b].T * (theta_proj[:, b] == th))
    if phases:
        rhs = np.concatenate(rhs)
        cos, sin = np.cos(phases), np.sin(phases)
        q, p = axis[pix // axis.size, None], axis[pix % axis.size, None]
        rows = np.ascontiguousarray(rhs.T)
        for i in range(0, pix.size, _SLAB):
            x = q[i:i + _SLAB] * cos + p[i:i + _SLAB] * sin    # q cos θ + p sin θ
            w[:, i:i + _SLAB] = _gather(x, rows)
        w *= scale
        sums = np.concatenate([_column_sums(th) for th in phases])
        total += (sums[:, None] * rhs).sum(axis=0) * scale
    lone = np.nonzero(~shared)
    if lone[0].size:
        grid = np.zeros((len(theta_proj), axis.size**2))
        for r, b in zip(*lone):
            th = theta_proj[r, b]
            x = axis[:, None] * np.cos(th) + axis * np.sin(th)
            grid[r] += np.interp(x.ravel(), _CENTERS, filtered[r, b], left=0.0, right=0.0)
        grid *= scale
        w += grid[:, pix]
        total += grid.sum(axis=1)
    return w, total


def _backproject(proj, bin_counts, theta_proj, cfg: RadonConfig) -> WignerGrid:
    meta = {"bin_counts": bin_counts.tolist(), "k_c": cfg.k_c, "kernel": cfg.kernel}
    if bin_counts.min() < 100:
        meta["low_count_warning"] = True
    w, _ = _backproject_stack(_filtered(proj, cfg)[None], theta_proj[None], cfg.n_phase_bins)
    q_axis, p_axis = default_grid_axis(), default_grid_axis()
    grid = WignerGrid(q_axis=q_axis, p_axis=p_axis,
                      values=w[0].reshape(q_axis.size, p_axis.size), meta=meta)
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
    table = _table(ds, cfg)
    return _backproject(*_projections(table.cell, table.theta, table.counts,
                                      cfg.n_phase_bins), cfg)


def _replicate_sums(cell, theta, draws, cfg: RadonConfig, pixels=None, centre=None):
    """c, Σ (W − c) and Σ (W − c)² at flat pixels of the default grid (all by
    default) over a block of count-table draws (R, cells), each W normalized
    as FBP returns it; c is centre, or the block's mean if None.  Replicates
    are added in order, so a pixel's sums do not depend on which others are
    asked for.  The block's arrays are freed before the next block is drawn."""
    proj, _, theta_proj = _projections(cell, theta, draws, cfg.n_phase_bins)
    w, total = _backproject_stack(_filtered(proj, cfg), theta_proj, cfg.n_phase_bins, pixels)
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
    (θ, q) pairs with replacement, drawn as its exact equivalent for FBP:
    one multinomial(N, counts / N) draw of the count table per replicate.
    Takes the dataset or its count table.

    pixels lists the (q index, p index) pairs of the default grid to report;
    every other pixel of the result is NaN.  By default all are reported.
    A pixel's error does not depend on which others are asked for, and on
    locked phase bins asking for a few costs far less than the whole grid.
    Replicates are drawn in blocks of _BLOCK, so memory does not grow with
    n_boot.  ConfigError below 2 replicates, which give no spread.
    """
    if n_boot < 2:
        raise ConfigError(f"the bootstrap needs at least 2 replicates, got {n_boot}")
    cfg = cfg or RadonConfig()
    rng = stream(seed, "bootstrap")
    table = _table(ds, cfg)
    cell, theta, counts = table.cell, table.theta, table.counts
    q_axis = default_grid_axis()
    flat = (None if pixels is None
            else np.ravel_multi_index(np.transpose(pixels), (q_axis.size,) * 2))
    n = int(counts.sum())
    centre, acc, acc2 = None, 0.0, 0.0
    for start in range(0, n_boot, _BLOCK):
        draws = np.array([rng.multinomial(n, counts / n)
                          for _ in range(min(_BLOCK, n_boot - start))])
        centre, s1, s2 = _replicate_sums(cell, theta, draws, cfg, flat, centre)
        acc, acc2 = acc + s1, acc2 + s2
    # deviations from the first block's mean keep the digits Σ W² − n·mean² cancels
    var = np.clip(acc2 - acc**2 / n_boot, 0.0, None) / (n_boot - 1)
    values = np.full(q_axis.size**2, np.nan)
    values[slice(None) if flat is None else flat] = np.sqrt(var)
    return WignerGrid(q_axis=q_axis, p_axis=q_axis.copy(),
                      values=values.reshape(q_axis.size, q_axis.size),
                      meta={"n_boot": n_boot})
