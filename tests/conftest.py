import numpy as np
import pytest

from ohtlab import states


@pytest.fixture(scope="session")
def vacuum():
    return states.make_state(states.StateSpec("vacuum"))


@pytest.fixture(scope="session")
def fock1():
    return states.make_state(states.StateSpec("fock", n=1, truncation_dim=6))


@pytest.fixture(scope="session")
def coherent1():
    return states.make_state(states.StateSpec("coherent", alpha=1.0))


@pytest.fixture(scope="session")
def thermal1():
    return states.make_state(states.StateSpec("thermal", nbar=1.0))


@pytest.fixture(scope="session")
def squeezed05():
    return states.make_state(states.StateSpec("squeezed_vacuum", r=0.5))


@pytest.fixture(scope="session")
def constructed_states(vacuum, fock1, coherent1, thermal1, squeezed05):
    return {
        "vacuum": vacuum,
        "fock1": fock1,
        "coherent": coherent1,
        "thermal": thermal1,
        "squeezed": squeezed05,
    }


def lossy_wigner(rho, eta: float, q_axis=None, p_axis=None) -> states.WignerGrid:
    """W of the record that detection efficiency η gives for ρ, on the
    default grid by default.  The record holds the lossy mode's quadrature
    divided by √η, so W(q, p) = η W_lossy(√η q, √η p), with the lossy state
    from the closed-form loss channel."""
    q = states.default_grid_axis() if q_axis is None else np.asarray(q_axis, float)
    p = states.default_grid_axis() if p_axis is None else np.asarray(p_axis, float)
    w = states.wigner_from_rho(states.apply_loss(rho, eta), np.sqrt(eta) * q, np.sqrt(eta) * p)
    return states.WignerGrid(q_axis=q, p_axis=p, values=eta * w.values)


def gaussian_quadrature_variance(r: float, theta: float, eta_eff: float = 1.0) -> float:
    """Covariance-matrix oracle for squeezed vacuum: the θ-quadrature variance
    of S(r)|0> is (e^{−2r} cos²θ + e^{2r} sin²θ)/2, plus detection smearing."""
    ideal = (np.exp(-2 * r) * np.cos(theta) ** 2 + np.exp(2 * r) * np.sin(theta) ** 2) / 2.0
    return ideal + (1.0 / eta_eff - 1.0) / 2.0


def variance_stderr(sample_var: float, n: int) -> float:
    """Large-N standard error of a sample variance of near-Gaussian data."""
    return sample_var * np.sqrt(2.0 / (n - 1))
