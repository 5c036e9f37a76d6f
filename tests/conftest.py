import numpy as np
import pytest

from latent_elevator import (
    AnalyticDenoiser,
    ddim_step,
    forward_diffuse,
    make_schedule,
    project_clean,
)
from latent_elevator import sampler
from latent_elevator.harness import DEFAULT_CONFIG
from latent_elevator.synth import make_gp_prior


@pytest.fixture(scope="session")
def sched_t2i():
    return make_schedule("linear_beta", 1000, beta_start=1e-4, beta_end=2e-2)


@pytest.fixture(scope="session")
def sched_t2v():
    return make_schedule("scaled_linear_beta", 1000, beta_start=1e-4, beta_end=2e-2)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def std_normal_prior():
    # rho=0, flat unit spectrum, zero mean: the identity-covariance prior
    return make_gp_prior(4, 2, 4, 4, rho=0.0, spectrum_kind="flat")


def recipe_denoiser(which: str, shape) -> AnalyticDenoiser:
    """Analytic denoiser over the default recipe's ``"t2v"`` or ``"t2i"``
    prior at ``shape``."""
    p = DEFAULT_CONFIG["priors"][which]
    return AnalyticDenoiser(
        make_gp_prior(*shape, p["rho"], p["spectrum_kind"], p["variance_scale"])
    )


def invert_hop(model, z, t_from, t_to, s):
    """One DDIM inversion hop from ``t_from`` up to ``t_to``, as the clean
    projection (``z`` itself at 0) and the re-noising it stands for, both
    with the model's noise estimate at ``t_to`` on ``z``."""
    sampler._check_order(t_to, t_from, s)
    eps = model.predict_eps(z, t_to, s)
    z0 = z if t_from == 0 else project_clean(z, eps, t_from, s)
    return forward_diffuse(z0, t_to, eps, s)


def invert_by_hops(model, z0, grid, target_t, s):
    """DDIM inversion as the explicit chain of ``invert_hop`` hops up the
    grid from 0 to ``target_t``: the oracle for the program's closed form,
    which evaluates no model and shares no hop arithmetic with it."""
    ascending = [0, *reversed(grid.steps[grid.index_of(target_t):])]
    z = z0
    for a, b in zip(ascending[:-1], ascending[1:]):
        z = invert_hop(model, z, a, b, s)
    return z


def sample_by_hops(model, z, chain, s):
    """DDIM denoising as the explicit chain of ``ddim_step`` hops down the
    descending timesteps ``chain``: the oracle for the program's closed form
    of ``ddim_sample`` and of ``sdedit_chain``'s steps."""
    for t, t_prev in zip(chain[:-1], chain[1:]):
        z = ddim_step(model, z, t, t_prev, s)
    return z


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix, the oracle-side spectral basis."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def dense_covariance(prior) -> np.ndarray:
    """Brute-force covariance matrix of a separable prior, built from
    explicit Kronecker factors (independent of the library's eigen path)."""
    f, c, h, w = prior.shape
    idx = np.arange(f)
    c_t = prior.temporal_rho ** np.abs(idx[:, None] - idx[None, :])
    f2 = np.kron(dft_matrix(h), dft_matrix(w))
    c_s = (f2.conj().T @ np.diag(prior.spatial_spectrum.ravel()) @ f2).real
    return prior.variance_scale * np.kron(c_t, np.kron(np.eye(c), c_s))
