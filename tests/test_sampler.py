import decimal
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latent_elevator import (
    AnalyticDenoiser,
    CrossFrameDenoiser,
    ddim_invert,
    ddim_sample,
    ddim_step,
    forward_diffuse,
    make_attention_params,
    select_timesteps,
)
import latent_elevator
from latent_elevator import sampler
from latent_elevator.metrics import _relative_error
from latent_elevator.sampler import sdedit_chain
from latent_elevator.schedule import NoiseSchedule, TimestepGrid
from latent_elevator.synth import make_gp_prior, sample_prior

from conftest import (
    invert_by_hops,
    invert_hop,
    project_clean,
    recipe_denoiser,
    sample_by_hops,
)

SHAPE = (2, 1, 4, 4)


class ConstantModel:
    """Predicts a fixed tensor regardless of input."""

    def __init__(self, value, schedule):
        self.value = value
        self.schedule = schedule

    def predict_eps(self, z, t):
        return np.broadcast_to(self.value, z.shape).copy()


def zero_model(schedule):
    return ConstantModel(0.0, schedule)


def custom_schedule(alpha_bar):
    return NoiseSchedule(alpha_bar=np.asarray(alpha_bar, dtype=float), kind="linear_beta")


class TestDdimStep:
    def test_zero_model_rescale(self, sched_t2i, rng):
        z = rng.standard_normal(SHAPE)
        out = ddim_step(zero_model(sched_t2i), z, 500, 480)
        ratio = np.sqrt(sched_t2i.alpha_bar[480] / sched_t2i.alpha_bar[500])
        np.testing.assert_allclose(out, ratio * z, rtol=1e-12)

    def test_perfect_prediction_tracks_forward(self, sched_t2i, rng):
        z0 = rng.standard_normal(SHAPE)
        eps = rng.standard_normal(SHAPE)
        z_t = forward_diffuse(z0, 600, eps, sched_t2i)
        out = ddim_step(ConstantModel(eps, sched_t2i), z_t, 600, 400)
        np.testing.assert_allclose(out, forward_diffuse(z0, 400, eps, sched_t2i),
                                   rtol=1e-9, atol=1e-12)

    def test_hand_case(self):
        # alpha_bar 0.25 -> 0.81 with unit latent and unit prediction
        s = custom_schedule([1.0, 0.81, 0.25])
        out = ddim_step(ConstantModel(1.0, s), np.ones(SHAPE), 2, 1)
        expected = 0.9 * ((1 - np.sqrt(0.75)) / 0.5) + np.sqrt(1 - 0.81)
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        assert out[0, 0, 0, 0] == pytest.approx(0.6770441675420776)

    def test_order_violation(self, sched_t2i):
        z = np.zeros(SHAPE)
        with pytest.raises(ValueError, match="order violation"):
            ddim_step(zero_model(sched_t2i), z, 100, 100)
        with pytest.raises(ValueError, match="order violation"):
            ddim_step(zero_model(sched_t2i), z, 100, 200)


class TestInversion:
    def test_one_step_invert_then_sample_linear_model(self, sched_t2i, rng):
        """Closed-form oracle: for the flat unit prior both hops are scalar
        maps; their product is computed directly from alpha_bar and stays
        within 1e-4 of unity on an adjacent grid pair."""
        prior = make_gp_prior(*SHAPE, rho=0.0, spectrum_kind="flat")
        den = AnalyticDenoiser(prior, sched_t2i)
        a, b = 480, 500
        ab_a, ab_b = sched_t2i.alpha_bar[a], sched_t2i.alpha_bar[b]
        ca, sa = np.sqrt(ab_a), np.sqrt(1 - ab_a)
        cb, sb = np.sqrt(ab_b), np.sqrt(1 - ab_b)
        e = sb  # model coefficient at the upper timestep, unit eigenvalue
        w_coef = cb * (1 - sa * e) / ca + sb * e
        m_coef = ca * (1 - sb * e) / cb + sa * e
        z = rng.standard_normal(SHAPE)
        up = invert_hop(den, z, a, b)
        np.testing.assert_allclose(up, w_coef * z, rtol=1e-12)
        down = ddim_step(den, up, b, a)
        np.testing.assert_allclose(down, w_coef * m_coef * z, rtol=1e-12)
        assert np.linalg.norm(down - z) / np.linalg.norm(z) < 1e-4

    def test_invert_smallest_step_single_hop(self, sched_t2i, rng):
        grid = select_timesteps(sched_t2i, 10)
        z0 = rng.standard_normal(SHAPE)
        t_min = grid.steps[-1]
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"), sched_t2i)
        np.testing.assert_allclose(
            ddim_invert(den, z0, TimestepGrid(steps=(t_min,))),
            invert_hop(den, z0, 0, t_min),
            rtol=1e-12,
        )

    def test_full_adjointness_standard_normal(self, sched_t2i, rng):
        # dense grid: invert-then-sample is the identity to 1e-4
        prior = make_gp_prior(*SHAPE, rho=0.0, spectrum_kind="flat")
        den = AnalyticDenoiser(prior, sched_t2i)
        grid = select_timesteps(sched_t2i, 400)
        z0 = rng.standard_normal(SHAPE)
        top = ddim_invert(den, z0, grid)
        back = ddim_sample(den, top, grid)
        assert np.linalg.norm(back - z0) / np.linalg.norm(z0) < 1e-4

    def test_reconstruction_error_shrinks_with_grid_density(self, sched_t2i):
        """Stateless one-call-per-hop inversion reconstructs with an error
        that is first order, O(1/K): doubling the grid halves it. The
        50-step error on the detail-rich prior sits near 1.8e-2."""
        prior = make_gp_prior(4, 2, 8, 8, rho=0.0, spectrum_kind="broadband")
        den = AnalyticDenoiser(prior, sched_t2i)
        errs = {}
        for k in (50, 100, 200):
            grid = select_timesteps(sched_t2i, k)
            z0 = sample_prior(prior, np.random.default_rng(12))
            top = ddim_invert(den, z0, grid)
            back = ddim_sample(den, top, grid)
            errs[k] = np.linalg.norm(back - z0) / np.linalg.norm(z0)
        assert errs[200] < errs[100] < errs[50] < 0.03
        assert 0.45 <= errs[100] / errs[50] <= 0.55
        assert 0.45 <= errs[200] / errs[100] <= 0.55


def _odd_mean_prior():
    shape = (3, 2, 5, 7)
    mean = np.random.default_rng(3).standard_normal(shape)
    return make_gp_prior(*shape, rho=0.7, spectrum_kind="broadband", mean=mean)


CLOSED_FORM_PRIORS = {
    "recipe_projector": lambda: recipe_denoiser("t2i", (4, 2, 8, 8)).prior,
    "odd_nonzero_mean_rho_0.7": _odd_mean_prior,
    "variance_1e300": lambda: make_gp_prior(*SHAPE, rho=0.5, spectrum_kind="lowpass",
                                            variance_scale=1e300),
    "variance_1e-300_rho_0.999999": lambda: make_gp_prior(
        *SHAPE, rho=0.999999, spectrum_kind="broadband", variance_scale=1e-300),
}


class TestClosedFormInversion:
    """For an analytic model ``ddim_invert`` evaluates no model: it applies
    the composed hop gains per eigenmode. It must match the hop-by-hop
    chain at every grid target ``t``, inverting up the sub-grid of the
    grid's steps from ``t`` down."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PRIORS))
    def test_matches_hop_chain_at_every_target(self, name, sched_t2i):
        prior = CLOSED_FORM_PRIORS[name]()
        den = AnalyticDenoiser(prior, sched_t2i)
        steps = select_timesteps(sched_t2i, 50).steps
        z0 = sample_prior(prior, np.random.default_rng(1))
        worst = 0.0
        for i in range(len(steps)):
            grid = TimestepGrid(steps=steps[i:])
            expected = invert_by_hops(den, z0, grid)
            got = ddim_invert(den, z0, grid)
            worst = max(worst, np.linalg.norm(got - expected) / np.linalg.norm(expected))
        assert worst < 1e-12, (name, worst)

    def test_errors_match_hop_chain(self, sched_t2i):
        prior = make_gp_prior(*SHAPE, spectrum_kind="flat")
        grid = select_timesteps(sched_t2i, 10)
        short = custom_schedule([1.0, 0.8, 0.5])
        floor = custom_schedule([1.0, 0.5, 1e-9, 1e-10])
        cases = [  # one fault each
            (np.zeros((2, 1, 4, 5)), grid, sched_t2i, "shape mismatch"),
            (np.zeros(SHAPE), TimestepGrid(steps=(3, 1)), short, "timestep out of range"),
            (np.zeros(SHAPE), TimestepGrid(steps=(3, 2)), floor,
             "degenerate alpha_bar at t=2"),
        ]
        for z0, g, sched, message in cases:
            den = AnalyticDenoiser(prior, sched)
            with pytest.raises(ValueError, match=message):
                ddim_invert(den, z0, g)
            with pytest.raises(ValueError, match=message):
                invert_by_hops(den, z0, g)


def _rel_err(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


def _sdedit_draw(z_clean, grid, s, rng):
    """``sdedit_chain``'s start: its one draw, diffused to ``grid.steps[0]``."""
    return forward_diffuse(z_clean, grid.steps[0], rng.standard_normal(z_clean.shape), s)


def _raised(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


class TestClosedFormChains:
    """For an analytic model ``ddim_sample`` and the denoising of
    ``sdedit_chain`` evaluate no model: they apply the composed step gains
    per eigenmode. They must match the ``ddim_step`` loop.

    One pairing has no relative error to compare: under the 1e-300 prior, a
    chain that ends at 0 should land on the (zero) prior mean plus about
    1e-298 of its input, and the closed form does (``got`` is held to
    1e-14 of the input here, and ``test_tiny_variance_chain_is_exact``
    holds it to the exact answer). The step loop instead cancels to
    rounding. Its last hop ``z / r + k * eps`` subtracts two terms of about
    ``max|z| / r`` each, where ``r = sqrt(alpha_bar)`` at the hop's start is
    at least ``r_top``, its value at the chain's top step. Each term carries
    at most ``ROUNDINGS`` roundings: its coefficient, its product and, on
    the noise side, the prediction's gain, two frame rotations and four DFT
    passes. So the loop is held to ``2 * ROUNDINGS * eps / r_top * max|z|``;
    over seeds it reads 0.8 to 1.7 ``eps / r_top``."""

    TINY = "variance_1e-300_rho_0.999999"
    ROUNDINGS = 8

    def check(self, name, chain, got, expected, z, s):
        if name == self.TINY and chain[-1] == 0:
            assert np.abs(got).max() < 1e-14 * np.abs(z).max()
            eps, r_top = np.finfo(np.float64).eps, np.sqrt(s.alpha_bar[chain[0]])
            assert np.abs(expected).max() <= 2 * self.ROUNDINGS * eps / r_top * np.abs(z).max()
            return 0.0
        return _rel_err(got, expected)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PRIORS))
    def test_ddim_sample_matches_step_loop(self, name, sched_t2i):
        prior = CLOSED_FORM_PRIORS[name]()
        den = AnalyticDenoiser(prior, sched_t2i)
        steps = select_timesteps(sched_t2i, 50).steps
        z = np.random.default_rng(1).standard_normal(prior.shape)
        worst = 0.0
        for start in (0, 17, 49):
            grid = TimestepGrid(steps=steps[start:])
            chain = [*grid.steps, 0]
            got = ddim_sample(den, z, grid)
            expected = sample_by_hops(den, z, chain)
            worst = max(worst, self.check(name, chain, got, expected, z, sched_t2i))
        assert worst < 1e-12, (name, worst)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PRIORS))
    def test_sdedit_chain_matches_step_loop(self, name, sched_t2i):
        prior = CLOSED_FORM_PRIORS[name]()
        den = AnalyticDenoiser(prior, sched_t2i)
        steps = select_timesteps(sched_t2i, 50).steps
        z_clean = sample_prior(prior, np.random.default_rng(1))
        worst = 0.0
        # the recipe's 9 hops down from the top, one hop mid-grid, the whole
        # grid and its last step, each then projected to 0
        for grid_steps in (steps[:10], steps[20:22], steps, steps[-1:]):
            grid = TimestepGrid(steps=grid_steps)
            chain = [*grid.steps, 0]
            rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
            got = sdedit_chain(den, z_clean, grid, rng)
            z = _sdedit_draw(z_clean, grid, sched_t2i, oracle_rng)
            expected = sample_by_hops(den, z, chain)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            worst = max(worst, self.check(name, chain, got, expected, z, sched_t2i))
        assert worst < 1e-12, (name, worst)

    def test_overflowing_prior_variance_matches_step_loop(self, sched_t2i, rng):
        # a prior built directly may take variance_scale 1e308; some
        # eigenvalues overflow to inf, where the noise estimate is 0 and a
        # step just rescales
        with np.errstate(over="ignore"):
            den = AnalyticDenoiser(make_gp_prior(*SHAPE, rho=0.5, spectrum_kind="lowpass",
                                                 variance_scale=1e308), sched_t2i)
        assert np.any(den.eps_gain(0.5) == 0)
        grid = select_timesteps(sched_t2i, 50)
        z = rng.standard_normal(SHAPE)
        expected = sample_by_hops(den, z, [*grid.steps, 0])
        assert _rel_err(ddim_sample(den, z, grid), expected) < 1e-12

    def test_tiny_variance_chain_is_exact(self, sched_t2i):
        """A chain to 0 under the 1e-300 prior matches, per mode, the product
        of hop gains ``r_b / r_a + k * g`` taken in 400-digit decimal
        arithmetic, where their cancellation costs nothing."""
        den = AnalyticDenoiser(CLOSED_FORM_PRIORS[self.TINY](), sched_t2i)
        grid = select_timesteps(sched_t2i, 50)
        D = decimal.Decimal

        def exact_gain(lam):
            gain = D(1)
            for a, b in grid.hops():
                ab_a, ab_b = D(sched_t2i.alpha_bar[a]), D(sched_t2i.alpha_bar[b])
                r_a, q_a, r_b, q_b = ab_a.sqrt(), (1 - ab_a).sqrt(), ab_b.sqrt(), (1 - ab_b).sqrt()
                g = q_a / (ab_a * D(lam) + 1 - ab_a)
                gain *= r_b / r_a + (q_b - r_b * q_a / r_a) * g
            return float(gain)

        with decimal.localcontext(prec=400):
            expected = np.vectorize(exact_gain)(den._lam)
        assert np.all(expected > 0) and expected.max() < 1e-290
        z = np.random.default_rng(1).standard_normal(SHAPE)
        exact = den.from_modes(expected * den.to_modes(z))
        # the latents are about 1e-299, where norms underflow unscaled
        assert _relative_error(ddim_sample(den, z, grid), exact) < 1e-12

    @pytest.mark.parametrize("variance", [0.0, 5e-324])
    def test_underflowed_eigenvalue_chain(self, variance, sched_t2i, rng):
        """An eigenvalue that underflowed to 0 (or the division by a
        subnormal one that overflows) gives the clean-projection factor
        ``f = 0`` without a warning, so a chain to 0 lands exactly on the
        zero mean, where the step loop's gain cancels to rounding."""
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, rho=0.5, spectrum_kind="lowpass",
                                             variance_scale=variance), sched_t2i)
        assert np.any(den._lam == 0)
        z = rng.standard_normal(SHAPE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ddim_sample(den, z, select_timesteps(sched_t2i, 50))
        assert np.all(np.isfinite(out)) and np.abs(out).max() < 1e-300

    def test_errors_match_step_loop(self, sched_t2i, rng):
        prior = make_gp_prior(*SHAPE, spectrum_kind="flat")
        grid = select_timesteps(sched_t2i, 10)
        z = rng.standard_normal(SHAPE)
        short = custom_schedule([1.0, 0.8, 0.5])
        floor = custom_schedule([1.0, 0.5, 1e-9, 1e-10])
        cases = [  # (latent, grid, schedule), one fault each
            (z, TimestepGrid(steps=(3, 1)), short),
            (z, TimestepGrid(steps=(3, 2)), floor),
            (np.zeros((2, 1, 4, 5)), grid, sched_t2i),
        ]
        for z_in, g, sched in cases:
            den = AnalyticDenoiser(prior, sched)
            chain = [*g.steps, 0]
            assert _raised(lambda: ddim_sample(den, z_in, g)) == _raised(
                lambda: sample_by_hops(den, z_in, chain))
            got = _raised(lambda: sdedit_chain(den, z_in, g, np.random.default_rng(0)))
            expected = _raised(lambda: sample_by_hops(
                den, _sdedit_draw(z_in, g, sched, np.random.default_rng(0)), chain))
            assert got == expected


def _composed_step(model, z, t, t_prev):
    """``ddim_step`` as the clean projection and re-noising it computes."""
    s = model.schedule
    sampler._check_order(t, t_prev, s)
    eps = model.predict_eps(z, t)
    return forward_diffuse(project_clean(z, eps, t, s), t_prev, eps, s)


class ReadOnlyModel:
    """A ``Denoiser`` whose predictions are read-only arrays."""

    def __init__(self, model):
        self.model = model
        self.schedule = model.schedule

    def predict_eps(self, z, t):
        eps = self.model.predict_eps(z, t)
        eps.setflags(write=False)
        return eps


class TestHopFormula:
    """``ddim_step`` applies the hop ``(r_b / r_a) * z + k * eps`` in one
    output array; it must match the projection and re-noising it stands
    for, with the same errors."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PRIORS))
    def test_matches_projection_composition(self, name, sched_t2i):
        prior = CLOSED_FORM_PRIORS[name]()
        den = AnalyticDenoiser(prior, sched_t2i)
        z = np.random.default_rng(1).standard_normal(prior.shape)
        chain = [*select_timesteps(sched_t2i, 50).steps, 0]
        worst = 0.0
        for a, b in zip(chain[:-1], chain[1:]):
            got = ddim_step(den, z, a, b)
            expected = _composed_step(den, z, a, b)
            if name == TestClosedFormChains.TINY and b == 0:
                # both cancel to rounding noise; see TestClosedFormChains
                for out in (got, expected):
                    assert np.abs(out).max() < 1e-14 * np.abs(z).max()
                continue
            worst = max(worst, _rel_err(got, expected))
        assert worst < 1e-14, (name, worst)

    def test_errors_match_projection_composition(self, sched_t2i, rng):
        prior = make_gp_prior(*SHAPE, spectrum_kind="flat")
        den = AnalyticDenoiser(prior, sched_t2i)
        z = rng.standard_normal(SHAPE)
        short = AnalyticDenoiser(prior, custom_schedule([1.0, 0.8, 0.5]))
        floor = AnalyticDenoiser(prior, custom_schedule([1.0, 0.5, 1e-9, 1e-10]))
        wrong_shape = ConstantModel(np.zeros((2, 1, 4, 5)), sched_t2i)
        cases = [  # (model, z, hi, lo), one fault each
            (den, z, 300, 300),
            (short, z, 3, 1),
            (floor, z, 3, 2),
            (wrong_shape, z, 500, 400),
            (den, np.zeros((2, 1, 4, 5)), 500, 400),
        ]
        for model, z_in, hi, lo in cases:
            assert _raised(lambda: ddim_step(model, z_in, hi, lo)) == _raised(
                lambda: _composed_step(model, z_in, hi, lo))

    def test_read_only_predictions(self, rng):
        den = recipe_denoiser("t2v", SHAPE)
        z = rng.standard_normal(SHAPE)
        model = ReadOnlyModel(den)
        np.testing.assert_array_equal(ddim_step(model, z, 500, 480),
                                      ddim_step(den, z, 500, 480))
        inflated = CrossFrameDenoiser(model, make_attention_params(SHAPE[1], seed=0), 0.3)
        assert np.all(np.isfinite(ddim_step(inflated, z, 500, 480)))


def _warm_peak_kib(call) -> float:
    """Peak traced allocation of a warm call, in KiB."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class TestWarmStepMemory:
    """At the default 16x4x16x16 shape a latent is 128 KiB. A step holds
    its input, the model's prediction, its output and one product; the
    analytic model at most two mode arrays of about 1.15 latents more. The
    unfused step held 641 KiB (analytic) and 1476 KiB (inflated)."""

    SHAPE = (16, 4, 16, 16)

    def test_analytic_step(self, rng):
        den = recipe_denoiser("t2v", self.SHAPE)
        z = rng.standard_normal(self.SHAPE)
        assert _warm_peak_kib(lambda: ddim_step(den, z, 500, 480)) < 448

    def test_inflated_step(self, rng):
        den = CrossFrameDenoiser(recipe_denoiser("t2i", self.SHAPE),
                                 make_attention_params(self.SHAPE[1], seed=0), 0.3)
        z = rng.standard_normal(self.SHAPE)
        assert _warm_peak_kib(lambda: ddim_step(den, z, 500, 480)) < 640


# Run in a fresh interpreter: inside the test session, earlier tests have
# already grown glibc's trim threshold past any one step's temporaries.
_WARM_SAMPLES = """
import json, resource, time
from latent_elevator import baseline_sample, elevate_sample, make_default_plan

def usage():
    u = resource.getrusage(resource.RUSAGE_SELF)
    return u.ru_minflt, u.ru_utime + u.ru_stime, time.perf_counter()

def cost(sample, n):
    for _ in range(2):
        sample(plan)
    start = usage()
    for _ in range(n):
        sample(plan)
    faults, cpu, wall = (b - a for a, b in zip(start, usage()))
    return {"faults_per_sample": faults / n, "cpu_per_wall": cpu / wall}

plan = make_default_plan()
print(json.dumps({"baseline": cost(baseline_sample, 20), "elevate": cost(elevate_sample, 5)}))
"""


class TestWarmSampleCost:
    """Warm default samples in a fresh process, twenty ``t2v`` baseline ones
    and then five ``elevate`` ones: the transform and trace intermediates
    come from the thread's workspace, and ``lpff`` filters through one
    16 x 16 matrix, so they fault in almost no fresh pages (104 per baseline
    sample when every transform pass and trace statistic allocated its own,
    480 to 800 per ``elevate`` sample when ``lpff`` made two complex copies
    of the latent), and they run on one thread, so no BLAS call on a latent,
    the DFT passes' GEMMs among them, wakes a second one."""

    @pytest.fixture(scope="class")
    def cost(self):
        src = str(Path(latent_elevator.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", _WARM_SAMPLES], env=env,
                             capture_output=True, text=True, check=True).stdout
        return json.loads(out)

    def test_few_page_faults(self, cost):
        assert cost["baseline"]["faults_per_sample"] < 10

    def test_one_thread_of_cpu_time(self, cost):
        assert cost["baseline"]["cpu_per_wall"] <= 1.25

    def test_elevate_few_page_faults(self, cost):
        assert cost["elevate"]["faults_per_sample"] < 10

    def test_elevate_one_thread_of_cpu_time(self, cost):
        assert cost["elevate"]["cpu_per_wall"] <= 1.25


class TestSamplingLoops:
    def test_single_step_grid_projects(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"), sched_t2i)
        grid = TimestepGrid(steps=(700,))
        z = rng.standard_normal(SHAPE)
        step = ddim_step(den, z, 700, 0)
        out = ddim_sample(den, z, grid)
        assert _rel_err(out, step) < 1e-12
        eps = den.predict_eps(z, 700)
        np.testing.assert_allclose(out, project_clean(z, eps, 700, sched_t2i),
                                   rtol=1e-12)

    def test_eta0_is_seed_independent(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"), sched_t2i)
        grid = select_timesteps(sched_t2i, 20)
        z = rng.standard_normal(SHAPE)
        # the global stream is the only one a generator-free sampler could read
        np.random.seed(111)
        a = ddim_sample(den, z, grid)
        np.random.seed(222)
        b = ddim_sample(den, z, grid)
        np.testing.assert_array_equal(a, b)

    @given(seed=st.integers(0, 2**31), k=st.integers(1, 12), top=st.integers(1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_perfect_model_telescoping(self, sched_t2i, seed, k, top):
        r = np.random.default_rng(seed)
        z0 = r.standard_normal(SHAPE)
        eps = r.standard_normal(SHAPE)
        steps = sorted(r.choice(np.arange(1, top + 1), size=min(k, top),
                                replace=False).tolist(), reverse=True)
        z = forward_diffuse(z0, steps[0], eps, sched_t2i)
        out = sample_by_hops(ConstantModel(eps, sched_t2i), z, [*steps, 0])
        np.testing.assert_allclose(out, z0, rtol=1e-6, atol=1e-9)


class TestSdedit:
    def test_full_depth_reaches_zero(self, sched_t2i, rng):
        """Over the whole grid the edit denoises its draw all the way to
        timestep 0."""
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"), sched_t2i)
        grid = select_timesteps(sched_t2i, 10)
        z_clean = rng.standard_normal(SHAPE)
        z = sdedit_chain(den, z_clean, grid, np.random.default_rng(5))
        assert np.all(np.isfinite(z))
        z_top = _sdedit_draw(z_clean, grid, sched_t2i, np.random.default_rng(5))
        expected = sample_by_hops(den, z_top, [*grid.steps, 0])
        assert _rel_err(z, expected) < 1e-12

    def test_degenerate_prior_contracts_toward_mean(self, sched_t2i):
        """A vanishing-variance prior pulls the edited latent toward its
        mean: verified empirically over 50 seeds."""
        mean = np.random.default_rng(0).standard_normal(SHAPE)
        prior = make_gp_prior(*SHAPE, variance_scale=1e-6, mean=mean)
        den = AnalyticDenoiser(prior, sched_t2i)
        grid = select_timesteps(sched_t2i, 10)
        below = TimestepGrid(steps=grid.steps[4:8])  # three hops, then to 0
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(seed + 100)
            z_in = mean + rng.standard_normal(SHAPE)
            clean = sdedit_chain(den, z_in, below, rng)
            if np.linalg.norm(clean - mean) < np.linalg.norm(z_in - mean):
                wins += 1
        assert wins >= 45

    def test_preconditions(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"), sched_t2i)
        grid = select_timesteps(sched_t2i, 10)
        z = rng.standard_normal(SHAPE)
        with pytest.raises(ValueError, match="not on the grid"):
            grid.index_of(123)  # where a chain down the grid from 123 would start
        with pytest.raises(ValueError, match="strictly decreasing"):
            TimestepGrid(steps=(grid.steps[4], grid.steps[2]))  # no chain walks up
        with pytest.raises(ValueError, match="timestep out of range"):
            sdedit_chain(den, z, TimestepGrid(steps=(sched_t2i.total_steps + 1,)), rng)
