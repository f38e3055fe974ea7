"""Fock-space states and exact forward maps.

Conventions used throughout the package: quadratures q = (a + a†)/√2,
p = (a − a†)/i√2 with [q, p] = i, so the vacuum has Var(q) = 1/2.  The
oscillator eigenfunctions are normalized with ψ0(q) = π^(−1/4) exp(−q²/2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._config import FromDict
from .errors import (ConfigError, PurityError, ReferencePointError, TruncationError,
                     UnsupportedStateError)

HERMITE_N_MAX = 200

DEFAULT_DIM = 20
MAX_DIM = 120

#: pdf values below this are an error in the state, not rounding, and refused
PDF_FLOOR = -1e-9

#: default phase-space grid: 201 x 201 points over [-6, 6]^2 (vacuum units)
DEFAULT_GRID_POINTS = 201
DEFAULT_GRID_SPAN = 6.0


def check_pdf_floor(values: np.ndarray) -> None:
    """Raise FloatingPointError if a probability lies below PDF_FLOOR."""
    if values.min() < PDF_FLOOR:
        raise FloatingPointError(f"quadrature pdf negative beyond floor: {values.min():.2e}")


def default_grid_axis(points: int = DEFAULT_GRID_POINTS, span: float = DEFAULT_GRID_SPAN):
    return np.linspace(-span, span, points)


def hermite_psi_all(n_max: int, q_axis) -> np.ndarray:
    """All oscillator eigenfunctions ψ_0..ψ_nmax on a grid, shape (n_max+1, len(q)).

    Uses the orthonormal-function upward recurrence
    ψ_{k+1} = sqrt(2/(k+1)) q ψ_k − sqrt(k/(k+1)) ψ_{k−1},
    which keeps every row at unit norm (no factorials, no overflow).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > HERMITE_N_MAX:
        raise ValueError(f"n={n_max} exceeds the validated stability bound {HERMITE_N_MAX}")
    q = np.asarray(q_axis, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("q_axis must be finite")
    out = np.empty((n_max + 1, q.size), dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * q**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * q * out[0]
    for k in range(1, n_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * q * out[k] - np.sqrt(k / (k + 1)) * out[k - 1]
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("Hermite recurrence produced non-finite values")
    return out


@dataclass
class DensityMatrix:
    """Truncated Fock-basis density matrix, entry (n, m) = <n|rho|m>."""

    dim: int
    elements: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=complex)
        if self.elements.shape != (self.dim, self.dim):
            raise ValueError("elements must be dim x dim")
        herm_err = np.max(np.abs(self.elements - self.elements.conj().T))
        if herm_err > 1e-9:
            raise ValueError(f"density matrix not Hermitian (max dev {herm_err:.2e})")
        # store exactly Hermitian
        self.elements = 0.5 * (self.elements + self.elements.conj().T)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.elements)))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.elements @ self.elements)))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.elements)).copy()

    def validate_constructed(self):
        """Invariants for analytically constructed states."""
        if abs(self.trace - 1.0) > 1e-9:
            raise ValueError(f"trace {self.trace} deviates from 1")
        evals = np.linalg.eigvalsh(self.elements)
        if evals.min() < -1e-9:
            raise ValueError(f"negative eigenvalue {evals.min():.2e}")


@dataclass
class WignerGrid:
    """Real phase-space function W(q, p) on a rectangular grid.

    values[i, j] = W(q_axis[i], p_axis[j]).
    """

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.q_axis = np.asarray(self.q_axis, float)
        self.p_axis = np.asarray(self.p_axis, float)
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.q_axis.size, self.p_axis.size):
            raise ValueError("values shape must be (len(q_axis), len(p_axis))")

    @property
    def dq(self) -> float:
        return float(self.q_axis[1] - self.q_axis[0])

    @property
    def dp(self) -> float:
        return float(self.p_axis[1] - self.p_axis[0])

    def integral(self) -> float:
        return float(self.values.sum() * self.dq * self.dp)


@dataclass
class WavefunctionSamples:
    """Reconstructed Schrödinger wave function on a position grid."""

    q_axis: np.ndarray
    amplitude: np.ndarray
    purity: float


@dataclass
class StateSpec(FromDict):
    """Constructor recipe for an analytically known state.

    FIELDS names the parameters each kind reads: the kind needs them (phi
    defaults to 0) and refuses any other unless it keeps its default.
    `from_dict` is the inverse of to_dict; α may be a [re, im] pair or a
    real scalar, which is kept as given.
    """

    kind: str
    n: int | None = None
    alpha: complex | None = None
    nbar: float | None = None
    r: float | None = None
    phi: float = 0.0
    truncation_dim: int = DEFAULT_DIM

    FIELDS = {"vacuum": (), "fock": ("n",), "coherent": ("alpha",), "thermal": ("nbar",),
              "squeezed_vacuum": ("r", "phi"), "squeezed_coherent": ("alpha", "r", "phi")}
    KINDS = tuple(FIELDS)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown state kind {self.kind!r}")
        for name in ("n", "alpha", "nbar", "r", "phi"):
            reads, value = name in self.FIELDS[self.kind], getattr(self, name)
            if reads and value is None:
                raise ConfigError(f"a {self.kind} state needs {name}")
            if not reads and value != getattr(StateSpec, name):   # the field's default
                raise ConfigError(f"a {self.kind} state takes no {name}")
        if (self.n or 0) < 0 or (self.nbar or 0) < 0:
            raise ConfigError("n and nbar must be >= 0")
        if not 1 <= self.truncation_dim <= MAX_DIM:
            raise ConfigError(f"truncation_dim must be in 1..{MAX_DIM}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "truncation_dim": self.truncation_dim}
        for name in self.FIELDS[self.kind]:
            value = getattr(self, name)
            d[name] = [float(np.real(value)), float(np.imag(value))] if name == "alpha" else value
        return d


LEAK_TOL = 1e-6


def _coherent_amplitudes(alpha, dim: int) -> np.ndarray:
    """<n|α> = e^{−|α|²/2} α^n/√n! for n < dim, by c_n = c_{n−1} α/√n.

    α may be an array of amplitudes; the result is then (dim, *α.shape).
    """
    alpha = np.asarray(alpha, complex)
    c = np.empty((dim,) + alpha.shape, complex)
    c[0] = np.exp(-0.5 * np.abs(alpha) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


def _squeezed_vacuum_amplitudes(r: float, phi: float, dim: int) -> np.ndarray:
    """Fock amplitudes of S(ζ)|0>, ζ = r e^{iφ}, S = exp[(ζ* a² − ζ a†²)/2].

    c_0 = (cosh r)^{-1/2} and c_{2k} = c_{2k−2} (−e^{iφ} tanh r) √((2k−1)/2k),
    i.e. c_{2k} = c_0 (−e^{iφ} tanh r)^k √((2k)!)/(2^k k!); odd terms vanish
    (pair production).  The φ=0 state is squeezed in q: Var(q) = e^{−2r}/2.
    """
    c = np.zeros(dim, complex)
    c[0] = 1.0 / math.sqrt(math.cosh(r))
    t = -np.exp(1j * phi) * math.tanh(r)
    for n in range(2, dim, 2):
        c[n] = c[n - 2] * t * math.sqrt((n - 1) / n)
    return c


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def _squeezed_coherent_vector(alpha: complex, r: float, phi: float, dim: int) -> np.ndarray:
    """D(α)S(ζ)|0> by its Fock recurrence, on a padded range of photon numbers.

    The state is the eigenvector of a + t a† with eigenvalue γ = α + t α*,
    t = e^{iφ} tanh r, so √(n+1) c_{n+1} = γ c_n − t √n c_{n−1}, started
    from c_0 = (cosh r)^{-1/2} exp(−|α|²/2 − α*² t/2) and normalized over
    the padded range.  Each coefficient is a fixed sequence of scalar
    operations, so the bits do not depend on the BLAS build or threads.
    """
    pad = max(2 * dim, dim + 40)
    t = np.exp(1j * phi) * math.tanh(r)
    gamma = alpha + t * np.conj(alpha)
    vec = np.zeros(pad, complex)
    vec[0] = (np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * np.conj(alpha) ** 2 * t)
              / math.sqrt(math.cosh(r)))
    vec[1] = gamma * vec[0]
    for n in range(1, pad - 1):
        vec[n + 1] = (gamma * vec[n] - t * math.sqrt(n) * vec[n - 1]) / math.sqrt(n + 1)
    vec /= math.sqrt(np.sum(np.abs(vec) ** 2))
    tail = np.sum(np.abs(vec[-6:]) ** 2)
    if tail > 1e-12:
        raise TruncationError("padded workspace too small for squeezed_coherent state")
    return vec[:dim]


def _populate(spec: StateSpec, dim: int) -> tuple[np.ndarray, float]:
    """Return (rho, leaked probability beyond the truncation)."""
    if spec.kind == "vacuum":
        rho = np.zeros((dim, dim), complex)
        rho[0, 0] = 1.0
        return rho, 0.0
    if spec.kind == "fock":
        if spec.n >= dim:
            return np.zeros((dim, dim), complex), 1.0
        rho = np.zeros((dim, dim), complex)
        rho[spec.n, spec.n] = 1.0
        return rho, 0.0
    if spec.kind == "coherent":
        c = _coherent_amplitudes(spec.alpha, dim)
        leak = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
        return np.outer(c, c.conj()), leak
    if spec.kind == "thermal":
        nbar = spec.nbar
        n = np.arange(dim)
        p = (nbar / (1 + nbar)) ** n / (1 + nbar)
        leak = (nbar / (1 + nbar)) ** dim
        return np.diag(p).astype(complex), leak
    if spec.kind == "squeezed_vacuum":
        c_ext = _squeezed_vacuum_amplitudes(spec.r, spec.phi, dim + 40)
        leak = float(np.sum(np.abs(c_ext[dim:]) ** 2))
        c = c_ext[:dim]
        return np.outer(c, c.conj()), leak
    if spec.kind == "squeezed_coherent":
        c_ext = _squeezed_coherent_vector(spec.alpha, spec.r, spec.phi, dim + 40)
        leak = float(np.sum(np.abs(c_ext[dim:]) ** 2))
        c = c_ext[:dim]
        return np.outer(c, c.conj()), leak
    raise UnsupportedStateError(spec.kind)


def make_state(spec: StateSpec) -> DensityMatrix:
    """Exact truncated Fock representation of an analytic state.

    Auto-grows the truncation until the leaked probability is below 1e-6,
    up to dim = 120, then raises TruncationError.
    """
    dim = spec.truncation_dim
    while True:
        rho, leak = _populate(spec, dim)
        if leak <= LEAK_TOL:
            break
        if dim >= MAX_DIM:
            raise TruncationError(
                f"state {spec.kind} leaks {leak:.2e} beyond dim={dim}; "
                f"will not grow past {MAX_DIM}"
            )
        dim = min(MAX_DIM, max(dim + 8, int(dim * 1.5)))
    # renormalize away the (<= 1e-6) truncation leak so constructed states
    # carry trace 1 to machine accuracy
    rho = rho / np.real(np.trace(rho))
    dm = DensityMatrix(dim=dim, elements=rho, meta={"spec": spec.to_dict(), "leak": leak})
    dm.validate_constructed()
    return dm


def apply_loss(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """The state after a beam splitter of transmission η, the binomial loss
    channel: ρ'_mn = Σ_k √(C(m+k,k) C(n+k,k)) η^((m+n)/2) (1−η)^k ρ_(m+k,n+k).

    η ∈ (0, 1]; η = 1 is the identity.  Any other η is a ConfigError.
    """
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"loss transmission eta must be in (0, 1], got {eta}")
    out = np.zeros_like(rho.elements)
    for k in range(rho.dim):
        m = np.arange(rho.dim - k)
        b = np.sqrt([math.comb(j + k, k) for j in m]) * eta ** (m / 2) * (1.0 - eta) ** (k / 2)
        out[:rho.dim - k, :rho.dim - k] += b[:, None] * rho.elements[k:, k:] * b
    return DensityMatrix(dim=rho.dim, elements=out)


def quadrature_pdf(rho: DensityMatrix, theta: float, q_axis) -> np.ndarray:
    """Pr(q, θ) = Σ_{μν} ρ_{μν} ψ_μ(q) ψ_ν(q) e^{i(ν−μ)θ}."""
    q = np.asarray(q_axis, float)
    psi = hermite_psi_all(rho.dim - 1, q)
    u = psi * np.exp(1j * np.arange(rho.dim) * theta)[:, None]
    pr = np.real(np.einsum("nq,nm,mq->q", u.conj(), rho.elements, u, optimize=True))
    check_pdf_floor(pr)
    return np.clip(pr, 0.0, None)


def wigner_kernel_laguerre(n: int, m: int, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Closed Gaussian-Laguerre form of the Fock-basis Wigner kernel W_nm(q, p).

    For m >= n:  W_nm = (−1)^n/π sqrt(n!/m!) [√2(q+ip)]^{m−n}
                 e^{−q²−p²} L_n^{m−n}(2(q²+p²));  W_mn = conj(W_nm).
    """
    if m < n:
        return np.conj(wigner_kernel_laguerre(m, n, Q, P))
    k = m - n
    r2 = Q**2 + P**2
    pref = (-1.0) ** n / np.pi * math.sqrt(math.factorial(n) / math.factorial(m))
    if k == 0:
        cross = 1.0
    else:
        cross = (np.sqrt(2.0) * (Q + 1j * P)) ** k
    return pref * cross * np.exp(-r2) * _genlaguerre(n, k, 2.0 * r2)


def _genlaguerre(n: int, k: int, x) -> np.ndarray:
    """Generalized Laguerre polynomial L_n^k(x) by the three-term recurrence
    (j+1) L_{j+1} = (2j + 1 + k − x) L_j − (j + k) L_{j−1}."""
    x = np.asarray(x, float)
    if n == 0:
        return np.ones_like(x)
    prev, cur = 1.0, 1.0 + k - x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1 + k - x) * cur - (j + k) * prev) / (j + 1)
    return cur


def wigner_kernel_fourier(n: int, m: int, Q: np.ndarray, P: np.ndarray, x_span: float = 12.0, x_points: int = 1201) -> np.ndarray:
    """W_nm by direct numerical Fourier integral of the defining transform.

    W_nm(q,p) = (1/2π) ∫ ψ_n(q + x/2) ψ_m(q − x/2) e^{−ipx} dx.  Slow; used
    as the independent cross-check of the Laguerre form.
    """
    x = np.linspace(-x_span, x_span, x_points)
    dx = x[1] - x[0]
    qf = Q.ravel()[:, None]
    psi_n = hermite_psi_all(n, (qf + x / 2).ravel())[n].reshape(qf.size, x.size)
    psi_m = hermite_psi_all(m, (qf - x / 2).ravel())[m].reshape(qf.size, x.size)
    phase = np.exp(-1j * np.outer(P.ravel(), x))
    vals = (psi_n * psi_m * phase) @ np.full(x.size, dx)
    return (vals / (2 * np.pi)).reshape(Q.shape)


def _grid_mesh(q_axis, p_axis):
    q = np.asarray(q_axis, float)
    p = np.asarray(p_axis, float)
    return np.meshgrid(q, p, indexing="ij")


def wigner_from_rho(rho: DensityMatrix, q_axis=None, p_axis=None) -> WignerGrid:
    """W(q,p) = Σ_nm ρ_nm W_nm(q,p) on a rectangular grid."""
    q_axis = default_grid_axis() if q_axis is None else np.asarray(q_axis, float)
    p_axis = default_grid_axis() if p_axis is None else np.asarray(p_axis, float)
    Q, P = _grid_mesh(q_axis, p_axis)
    acc = np.zeros(Q.shape, complex)
    for n in range(rho.dim):
        acc += rho.elements[n, n].real * wigner_kernel_laguerre(n, n, Q, P)
        for m in range(n + 1, rho.dim):
            if rho.elements[n, m] == 0:
                continue
            acc += 2.0 * np.real(rho.elements[n, m] * wigner_kernel_laguerre(n, m, Q, P))
    resid = np.max(np.abs(acc.imag))
    assert resid <= 1e-9, f"imaginary residue {resid:.2e} in Wigner construction"
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=acc.real)


def rho_from_wigner(w: WignerGrid, dim: int) -> DensityMatrix:
    """Invert the Wigner expansion: ρ_nm = 2π ∫∫ W(q,p) W_nm*(q,p) dq dp.

    Uses kernel orthogonality; flags the result when the grid is too coarse
    (recovered trace off by more than 0.05).
    """
    Q, P = _grid_mesh(w.q_axis, w.p_axis)
    area = w.dq * w.dp
    rho = np.zeros((dim, dim), complex)
    for n in range(dim):
        for m in range(n, dim):
            kern = wigner_kernel_laguerre(n, m, Q, P)
            val = 2 * np.pi * np.sum(w.values * np.conj(kern)) * area
            rho[n, m] = val
            rho[m, n] = np.conj(val)
    trace = float(np.real(np.trace(rho)))
    meta = {}
    if abs(trace - 1.0) > 0.05:
        meta["coarse_grid_warning"] = True
        warnings.warn(f"rho_from_wigner: trace deviation {trace - 1:.3f}; grid may be too coarse")
    return DensityMatrix(dim=dim, elements=rho, meta=meta)


def q_function(rho: DensityMatrix, q_axis=None, p_axis=None) -> WignerGrid:
    """Husimi Q on the (q,p) grid with α = (q+ip)/√2.

    Normalized against dq dp (the α→(q,p) Jacobian is 1/2), i.e.
    Q(q,p) = <α|ρ|α>/(2π), so the grid integral is 1.  Equals the Wigner
    function convolved with the vacuum Gaussian.
    """
    q_axis = default_grid_axis() if q_axis is None else np.asarray(q_axis, float)
    p_axis = default_grid_axis() if p_axis is None else np.asarray(p_axis, float)
    Q, P = _grid_mesh(q_axis, p_axis)
    c = _coherent_amplitudes(((Q + 1j * P) / np.sqrt(2.0)).ravel(), rho.dim)
    vals = np.real(np.einsum("np,nm,mp->p", c.conj(), rho.elements, c, optimize=True))
    vals = np.clip(vals, 0.0, None).reshape(Q.shape) / (2 * np.pi)
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=vals)


def position_matrix_element(rho: DensityMatrix, q_axis, q_ref: float) -> np.ndarray:
    """<q|ρ|q_ref> for all q on the axis."""
    psi_q = hermite_psi_all(rho.dim - 1, np.asarray(q_axis, float))
    psi_ref = hermite_psi_all(rho.dim - 1, np.array([q_ref]))[:, 0]
    return np.einsum("nq,nm,m->q", psi_q, rho.elements, psi_ref, optimize=True)


def wavefunction_from_rho(rho: DensityMatrix, q_axis=None, q_ref: float = 0.0) -> WavefunctionSamples:
    """Reconstruct ψ(q) = <q|ρ|q_ref> / sqrt(<q_ref|ρ|q_ref>) for near-pure states.

    The nonphysical global phase is fixed by making ψ real-positive at the
    peak of |ψ|.  Odd states vanish at the default reference q_ref = 0 and
    raise ReferencePointError; pass another reference column instead.
    """
    q_axis = default_grid_axis(801, 8.0) if q_axis is None else np.asarray(q_axis, float)
    purity = rho.purity
    if purity < 0.99:
        raise PurityError(f"Tr[rho^2] = {purity:.4f} < 0.99; state too mixed for a wave function")
    diag_ref = position_matrix_element(rho, np.array([q_ref]), q_ref)[0].real
    col = position_matrix_element(rho, q_axis, q_ref)
    peak_diag = np.max(np.abs(col))
    if diag_ref <= 1e-6 * peak_diag**2 or diag_ref <= 0:
        raise ReferencePointError(
            f"<q'|rho|q'> ~ {diag_ref:.2e} at q'={q_ref}; choose a different reference column"
        )
    psi = col / math.sqrt(diag_ref)
    peak = int(np.argmax(np.abs(psi)))
    phase = psi[peak] / abs(psi[peak])
    psi = psi / phase
    return WavefunctionSamples(q_axis=q_axis, amplitude=psi, purity=purity)


def quadrature_operators(dim: int):
    """Truncated matrices (q̂, p̂)."""
    a = _annihilation(dim)
    ad = a.conj().T
    q = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    return q, p


def quadrature_moments(rho: DensityMatrix, theta: float):
    """(mean, variance) of q̂_θ computed operator-side (no sampling)."""
    q, p = quadrature_operators(rho.dim)
    qt = q * np.cos(theta) + p * np.sin(theta)
    m1 = float(np.real(np.trace(rho.elements @ qt)))
    m2 = float(np.real(np.trace(rho.elements @ (qt @ qt))))
    return m1, m2 - m1**2
