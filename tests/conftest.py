import numpy as np
import pytest

from latent_elevator import (
    AnalyticDenoiser,
    ddim_step,
    forward_diffuse,
    make_schedule,
)
from latent_elevator import sampler
from latent_elevator.harness import DEFAULT_CONFIG
from latent_elevator.schedule import _check_floor, _check_same_shape, _check_timestep
from latent_elevator.synth import make_gp_prior


@pytest.fixture(scope="session")
def sched_t2i():
    return make_schedule("linear_beta", 1000)


@pytest.fixture(scope="session")
def sched_t2v():
    return make_schedule("scaled_linear_beta", 1000)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def std_normal_prior():
    # rho=0, flat unit spectrum, zero mean: the identity-covariance prior
    return make_gp_prior(4, 2, 4, 4, rho=0.0, spectrum_kind="flat")


def recipe_denoiser(which: str, shape) -> AnalyticDenoiser:
    """Analytic denoiser over the default recipe's ``"t2v"`` or ``"t2i"``
    prior at ``shape``, on that model's recipe schedule."""
    p, sched = DEFAULT_CONFIG["priors"][which], DEFAULT_CONFIG["schedules"]
    return AnalyticDenoiser(
        make_gp_prior(*shape, p["rho"], p["spectrum_kind"], p["variance_scale"]),
        make_schedule(sched[which], sched["total_steps"]),
    )


def project_clean(z_t, eps_pred, t, s):
    """The clean latent ``(z_t - sqrt(1 - ab) * eps_pred) / sqrt(ab)`` that
    a noise prediction implies at ``t``: the oracle for the clean
    projections the program's closed-form chains make."""
    _check_same_shape(z_t, eps_pred)
    _check_timestep(s, t, lo=1)
    _check_floor(s, t)
    ab = s.alpha_bar[t]
    return (z_t - np.sqrt(1.0 - ab) * eps_pred) / np.sqrt(ab)


def invert_hop(model, z, t_from, t_to):
    """One DDIM inversion hop from ``t_from`` up to ``t_to`` under the
    model's schedule, as the clean projection (``z`` itself at 0) and the
    re-noising it stands for, both with the model's noise estimate at
    ``t_to`` on ``z``."""
    s = model.schedule
    sampler._check_order(t_to, t_from, s)
    eps = model.predict_eps(z, t_to)
    z0 = z if t_from == 0 else project_clean(z, eps, t_from, s)
    return forward_diffuse(z0, t_to, eps, s)


def invert_by_hops(model, z0, grid):
    """DDIM inversion as the explicit chain of ``invert_hop`` hops up the
    whole grid from 0 to ``grid.steps[0]``: the oracle for the program's
    closed form, which evaluates no model and shares no hop arithmetic
    with it."""
    ascending = [0, *reversed(grid.steps)]
    z = z0
    for a, b in zip(ascending[:-1], ascending[1:]):
        z = invert_hop(model, z, a, b)
    return z


def sample_by_hops(model, z, chain):
    """DDIM denoising as the explicit chain of ``ddim_step`` hops down the
    descending timesteps ``chain``: the oracle for the program's closed form
    of ``ddim_sample`` and of ``sdedit_chain``'s denoising."""
    for t, t_prev in zip(chain[:-1], chain[1:]):
        z = ddim_step(model, z, t, t_prev)
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
