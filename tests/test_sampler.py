import tracemalloc

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
    project_clean,
    select_timesteps,
)
from latent_elevator import sampler
from latent_elevator.sampler import sdedit_chain
from latent_elevator.schedule import NoiseSchedule, TimestepGrid
from latent_elevator.synth import make_gp_prior, sample_prior

from conftest import invert_by_hops, invert_hop, recipe_denoiser, sample_by_hops

SHAPE = (2, 1, 4, 4)


class ConstantModel:
    """Predicts a fixed tensor regardless of input."""

    def __init__(self, value):
        self.value = value

    def predict_eps(self, z, t, s):
        return np.broadcast_to(self.value, z.shape).copy()


def zero_model():
    return ConstantModel(0.0)


def custom_schedule(alpha_bar):
    return NoiseSchedule(total_steps=len(alpha_bar) - 1,
                         alpha_bar=np.asarray(alpha_bar, dtype=float),
                         kind="linear_beta")


class TestDdimStep:
    def test_zero_model_rescale(self, sched_t2i, rng):
        z = rng.standard_normal(SHAPE)
        out = ddim_step(zero_model(), z, 500, 480, sched_t2i)
        ratio = np.sqrt(sched_t2i.alpha_bar[480] / sched_t2i.alpha_bar[500])
        np.testing.assert_allclose(out, ratio * z, rtol=1e-12)

    def test_perfect_prediction_tracks_forward(self, sched_t2i, rng):
        z0 = rng.standard_normal(SHAPE)
        eps = rng.standard_normal(SHAPE)
        z_t = forward_diffuse(z0, 600, eps, sched_t2i)
        out = ddim_step(ConstantModel(eps), z_t, 600, 400, sched_t2i)
        np.testing.assert_allclose(out, forward_diffuse(z0, 400, eps, sched_t2i),
                                   rtol=1e-9, atol=1e-12)

    def test_hand_case(self):
        # alpha_bar 0.25 -> 0.81 with unit latent and unit prediction
        s = custom_schedule([1.0, 0.81, 0.25])
        out = ddim_step(ConstantModel(1.0), np.ones(SHAPE), 2, 1, s)
        expected = 0.9 * ((1 - np.sqrt(0.75)) / 0.5) + np.sqrt(1 - 0.81)
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        assert out[0, 0, 0, 0] == pytest.approx(0.6770441675420776)

    def test_order_violation(self, sched_t2i):
        z = np.zeros(SHAPE)
        with pytest.raises(ValueError, match="order violation"):
            ddim_step(zero_model(), z, 100, 100, sched_t2i)
        with pytest.raises(ValueError, match="order violation"):
            ddim_step(zero_model(), z, 100, 200, sched_t2i)


class TestInversion:
    def test_one_step_invert_then_sample_linear_model(self, sched_t2i, rng):
        """Closed-form oracle: for the flat unit prior both hops are scalar
        maps; their product is computed directly from alpha_bar and stays
        within 1e-4 of unity on an adjacent grid pair."""
        prior = make_gp_prior(*SHAPE, rho=0.0, spectrum_kind="flat")
        den = AnalyticDenoiser(prior)
        a, b = 480, 500
        ab_a, ab_b = sched_t2i.alpha_bar[a], sched_t2i.alpha_bar[b]
        ca, sa = np.sqrt(ab_a), np.sqrt(1 - ab_a)
        cb, sb = np.sqrt(ab_b), np.sqrt(1 - ab_b)
        e = sb  # model coefficient at the upper timestep, unit eigenvalue
        w_coef = cb * (1 - sa * e) / ca + sb * e
        m_coef = ca * (1 - sb * e) / cb + sa * e
        z = rng.standard_normal(SHAPE)
        up = invert_hop(den, z, a, b, sched_t2i)
        np.testing.assert_allclose(up, w_coef * z, rtol=1e-12)
        down = ddim_step(den, up, b, a, sched_t2i)
        np.testing.assert_allclose(down, w_coef * m_coef * z, rtol=1e-12)
        assert np.linalg.norm(down - z) / np.linalg.norm(z) < 1e-4

    def test_invert_target_not_on_grid(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 10)
        with pytest.raises(ValueError, match="not on the grid"):
            ddim_invert(den, rng.standard_normal(SHAPE), grid, 123, sched_t2i)

    def test_invert_smallest_step_single_hop(self, sched_t2i, rng):
        grid = select_timesteps(sched_t2i, 10)
        z0 = rng.standard_normal(SHAPE)
        t_min = grid.steps[-1]
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        np.testing.assert_allclose(
            ddim_invert(den, z0, grid, t_min, sched_t2i),
            invert_hop(den, z0, 0, t_min, sched_t2i),
            rtol=1e-12,
        )

    def test_full_adjointness_standard_normal(self, sched_t2i, rng):
        # dense grid: invert-then-sample is the identity to 1e-4
        prior = make_gp_prior(*SHAPE, rho=0.0, spectrum_kind="flat")
        den = AnalyticDenoiser(prior)
        grid = select_timesteps(sched_t2i, 400)
        z0 = rng.standard_normal(SHAPE)
        top = ddim_invert(den, z0, grid, grid.steps[0], sched_t2i)
        back = ddim_sample(den, top, grid, sched_t2i)
        assert np.linalg.norm(back - z0) / np.linalg.norm(z0) < 1e-4

    def test_reconstruction_error_shrinks_with_grid_density(self, sched_t2i):
        """Stateless one-call-per-hop inversion reconstructs with an error
        that is first order, O(1/K): doubling the grid halves it. The
        50-step error on the detail-rich prior sits near 1.8e-2."""
        prior = make_gp_prior(4, 2, 8, 8, rho=0.0, spectrum_kind="broadband")
        den = AnalyticDenoiser(prior)
        errs = {}
        for k in (50, 100, 200):
            grid = select_timesteps(sched_t2i, k)
            z0 = sample_prior(prior, np.random.default_rng(12))
            top = ddim_invert(den, z0, grid, grid.steps[0], sched_t2i)
            back = ddim_sample(den, top, grid, sched_t2i)
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
    chain at every grid target."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PRIORS))
    def test_matches_hop_chain_at_every_target(self, name, sched_t2i):
        prior = CLOSED_FORM_PRIORS[name]()
        den = AnalyticDenoiser(prior)
        grid = select_timesteps(sched_t2i, 50)
        z0 = sample_prior(prior, np.random.default_rng(1))
        worst = 0.0
        for t in grid.steps:
            expected = invert_by_hops(den, z0, grid, t, sched_t2i)
            got = ddim_invert(den, z0, grid, t, sched_t2i)
            worst = max(worst, np.linalg.norm(got - expected) / np.linalg.norm(expected))
        assert worst < 1e-12, (name, worst)

    def test_errors_match_hop_chain(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 10)
        with pytest.raises(ValueError, match="not on the grid"):
            ddim_invert(den, rng.standard_normal(SHAPE), grid, 123, sched_t2i)
        with pytest.raises(ValueError, match="shape mismatch"):
            ddim_invert(den, np.zeros((2, 1, 4, 5)), grid, grid.steps[0], sched_t2i)
        short = custom_schedule([1.0, 0.8, 0.5])
        with pytest.raises(ValueError, match="timestep out of range"):
            ddim_invert(den, np.zeros(SHAPE), TimestepGrid(steps=(3, 1)), 3, short)
        floor = custom_schedule([1.0, 0.5, 1e-9, 1e-10])
        with pytest.raises(ValueError, match="degenerate alpha_bar at t=2"):
            ddim_invert(den, np.zeros(SHAPE), TimestepGrid(steps=(3, 2)), 3, floor)


def _rel_err(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


def _sdedit_draw(z_clean, chain, s, rng):
    """``sdedit_chain``'s start: its one draw, diffused to ``chain[0]``."""
    return forward_diffuse(z_clean, chain[0], rng.standard_normal(z_clean.shape), s)


def _raised(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


class TestClosedFormChains:
    """For an analytic model ``ddim_sample`` and the denoising steps of
    ``sdedit_chain`` evaluate no model: they apply the composed step gains
    per eigenmode. They must match the ``ddim_step`` loop.

    One pairing has no relative error to compare: under the 1e-300 prior, a
    chain that ends at 0 should land on the (zero) prior mean plus about
    1e-298 of its input, but both forms cancel a step's gain down to
    rounding, about 1e-16 of the input. There both are held to that
    rounding bound instead."""

    TINY = "variance_1e-300_rho_0.999999"

    def check(self, name, chain, got, expected, z):
        if name == self.TINY and chain[-1] == 0:
            for out in (got, expected):
                assert np.abs(out).max() < 1e-14 * np.abs(z).max()
            return 0.0
        return _rel_err(got, expected)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PRIORS))
    def test_ddim_sample_matches_step_loop(self, name, sched_t2i):
        prior = CLOSED_FORM_PRIORS[name]()
        den = AnalyticDenoiser(prior)
        steps = select_timesteps(sched_t2i, 50).steps
        z = np.random.default_rng(1).standard_normal(prior.shape)
        worst = 0.0
        for start in (0, 17, 49):
            grid = TimestepGrid(steps=steps[start:])
            chain = [*grid.steps, 0]
            got = ddim_sample(den, z, grid, sched_t2i)
            expected = sample_by_hops(den, z, chain, sched_t2i)
            worst = max(worst, self.check(name, chain, got, expected, z))
        assert worst < 1e-12, (name, worst)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PRIORS))
    def test_sdedit_chain_matches_step_loop(self, name, sched_t2i):
        prior = CLOSED_FORM_PRIORS[name]()
        den = AnalyticDenoiser(prior)
        chain_to_0 = [*select_timesteps(sched_t2i, 50).steps, 0]
        z_clean = sample_prior(prior, np.random.default_rng(1))
        worst = 0.0
        # chains ending above 0 (the recipe's 9 steps down from the top, and
        # one hop) and at 0 (the whole grid, and its last hop)
        for chain in (chain_to_0[:10], chain_to_0[20:22], chain_to_0, chain_to_0[-2:]):
            rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
            got, t_out = sdedit_chain(den, z_clean, chain, sched_t2i, rng)
            z = _sdedit_draw(z_clean, chain, sched_t2i, oracle_rng)
            expected = sample_by_hops(den, z, chain, sched_t2i)
            assert t_out == chain[-1]
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            worst = max(worst, self.check(name, chain, got, expected, z))
        assert worst < 1e-12, (name, worst)

    def test_overflowing_prior_variance_matches_step_loop(self, sched_t2i, rng):
        # the config accepts variance_scale 1e308; some eigenvalues overflow
        # to inf, where the noise estimate is 0 and a step just rescales
        with np.errstate(over="ignore"):
            den = AnalyticDenoiser(make_gp_prior(*SHAPE, rho=0.5, spectrum_kind="lowpass",
                                                 variance_scale=1e308))
        assert np.any(den.eps_gain(0.5) == 0)
        grid = select_timesteps(sched_t2i, 50)
        z = rng.standard_normal(SHAPE)
        expected = sample_by_hops(den, z, [*grid.steps, 0], sched_t2i)
        assert _rel_err(ddim_sample(den, z, grid, sched_t2i), expected) < 1e-12

    def test_errors_match_step_loop(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 10)
        z = rng.standard_normal(SHAPE)
        short = custom_schedule([1.0, 0.8, 0.5])
        floor = custom_schedule([1.0, 0.5, 1e-9, 1e-10])
        cases = [  # (ddim_sample args, sdedit_chain args), one fault each
            ((z, TimestepGrid(steps=(3, 1)), short), (z, [3, 1], short)),
            ((z, TimestepGrid(steps=(3, 2)), floor), (z, [3, 2], floor)),
            ((np.zeros((2, 1, 4, 5)), grid, sched_t2i),
             (np.zeros((2, 1, 4, 5)), [*grid.steps, 0], sched_t2i)),
            (None, (z, [grid.steps[4], grid.steps[2]], sched_t2i)),
        ]
        for sample_args, sdedit_args in cases:
            if sample_args is not None:
                z_in, g, sched = sample_args
                assert _raised(lambda: ddim_sample(den, z_in, g, sched)) == _raised(
                    lambda: sample_by_hops(den, z_in, [*g.steps, 0], sched))
            z_in, chain, sched = sdedit_args
            got = _raised(lambda: sdedit_chain(den, z_in, chain, sched,
                                               np.random.default_rng(0)))
            expected = _raised(lambda: sample_by_hops(
                den, _sdedit_draw(z_in, chain, sched, np.random.default_rng(0)),
                chain, sched))
            assert got == expected


def _composed_step(model, z, t, t_prev, s):
    """``ddim_step`` as the clean projection and re-noising it computes."""
    sampler._check_order(t, t_prev, s)
    eps = model.predict_eps(z, t, s)
    return forward_diffuse(project_clean(z, eps, t, s), t_prev, eps, s)


class ReadOnlyModel:
    """A ``Denoiser`` whose predictions are read-only arrays."""

    def __init__(self, model):
        self.model = model

    def predict_eps(self, z, t, s):
        eps = self.model.predict_eps(z, t, s)
        eps.setflags(write=False)
        return eps


class TestHopFormula:
    """``ddim_step`` applies the hop ``(r_b / r_a) * z + k * eps`` in one
    output array; it must match the projection and re-noising it stands
    for, with the same errors."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PRIORS))
    def test_matches_projection_composition(self, name, sched_t2i):
        prior = CLOSED_FORM_PRIORS[name]()
        den = AnalyticDenoiser(prior)
        z = np.random.default_rng(1).standard_normal(prior.shape)
        chain = [*select_timesteps(sched_t2i, 50).steps, 0]
        worst = 0.0
        for a, b in zip(chain[:-1], chain[1:]):
            got = ddim_step(den, z, a, b, sched_t2i)
            expected = _composed_step(den, z, a, b, sched_t2i)
            if name == TestClosedFormChains.TINY and b == 0:
                # both cancel to rounding noise; see TestClosedFormChains
                for out in (got, expected):
                    assert np.abs(out).max() < 1e-14 * np.abs(z).max()
                continue
            worst = max(worst, _rel_err(got, expected))
        assert worst < 1e-14, (name, worst)

    def test_errors_match_projection_composition(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        z = rng.standard_normal(SHAPE)
        short = custom_schedule([1.0, 0.8, 0.5])
        floor = custom_schedule([1.0, 0.5, 1e-9, 1e-10])
        wrong_shape = ConstantModel(np.zeros((2, 1, 4, 5)))
        cases = [  # (model, z, hi, lo, schedule), one fault each
            (den, z, 300, 300, sched_t2i),
            (den, z, 3, 1, short),
            (den, z, 3, 2, floor),
            (wrong_shape, z, 500, 400, sched_t2i),
            (den, np.zeros((2, 1, 4, 5)), 500, 400, sched_t2i),
        ]
        for model, z_in, hi, lo, sched in cases:
            assert _raised(lambda: ddim_step(model, z_in, hi, lo, sched)) == _raised(
                lambda: _composed_step(model, z_in, hi, lo, sched))

    def test_read_only_predictions(self, sched_t2i, rng):
        den = recipe_denoiser("t2v", SHAPE)
        z = rng.standard_normal(SHAPE)
        model = ReadOnlyModel(den)
        np.testing.assert_array_equal(ddim_step(model, z, 500, 480, sched_t2i),
                                      ddim_step(den, z, 500, 480, sched_t2i))
        inflated = CrossFrameDenoiser(model, make_attention_params(SHAPE[1], seed=0), 0.3)
        assert np.all(np.isfinite(ddim_step(inflated, z, 500, 480, sched_t2i)))


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

    def test_analytic_step(self, sched_t2i, rng):
        den = recipe_denoiser("t2v", self.SHAPE)
        z = rng.standard_normal(self.SHAPE)
        assert _warm_peak_kib(lambda: ddim_step(den, z, 500, 480, sched_t2i)) < 448

    def test_inflated_step(self, sched_t2i, rng):
        den = CrossFrameDenoiser(recipe_denoiser("t2i", self.SHAPE),
                                 make_attention_params(self.SHAPE[1], seed=0), 0.3)
        z = rng.standard_normal(self.SHAPE)
        assert _warm_peak_kib(lambda: ddim_step(den, z, 500, 480, sched_t2i)) < 640


class TestSamplingLoops:
    def test_single_step_grid_projects(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = TimestepGrid(steps=(700,))
        z = rng.standard_normal(SHAPE)
        step = ddim_step(den, z, 700, 0, sched_t2i)
        out = ddim_sample(den, z, grid, sched_t2i)
        assert _rel_err(out, step) < 1e-12
        eps = den.predict_eps(z, 700, sched_t2i)
        np.testing.assert_allclose(out, project_clean(z, eps, 700, sched_t2i),
                                   rtol=1e-12)

    def test_eta0_is_seed_independent(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 20)
        z = rng.standard_normal(SHAPE)
        # the global stream is the only one a generator-free sampler could read
        np.random.seed(111)
        a = ddim_sample(den, z, grid, sched_t2i)
        np.random.seed(222)
        b = ddim_sample(den, z, grid, sched_t2i)
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
        out = sample_by_hops(ConstantModel(eps), z, [*steps, 0], sched_t2i)
        np.testing.assert_allclose(out, z0, rtol=1e-6, atol=1e-9)


class TestSdedit:
    def test_full_depth_reaches_zero(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 10)
        z, t_out = sdedit_chain(den, rng.standard_normal(SHAPE), [*grid.steps, 0],
                                sched_t2i, rng)
        assert t_out == 0
        assert np.all(np.isfinite(z))

    def test_degenerate_prior_contracts_toward_mean(self, sched_t2i):
        """A vanishing-variance prior pulls the edited latent toward its
        mean: verified empirically over 50 seeds."""
        mean = np.random.default_rng(0).standard_normal(SHAPE)
        prior = make_gp_prior(*SHAPE, variance_scale=1e-6, mean=mean)
        den = AnalyticDenoiser(prior)
        grid = select_timesteps(sched_t2i, 10)
        chain = list(grid.steps[4:8])  # three hops down the grid
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(seed + 100)
            z_in = mean + rng.standard_normal(SHAPE)
            out, t_out = sdedit_chain(den, z_in, chain, sched_t2i, rng)
            eps_hat = den.predict_eps(out, t_out, sched_t2i)
            clean = project_clean(out, eps_hat, t_out, sched_t2i)
            if np.linalg.norm(clean - mean) < np.linalg.norm(z_in - mean):
                wins += 1
        assert wins >= 45

    def test_preconditions(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 10)
        z = rng.standard_normal(SHAPE)
        with pytest.raises(ValueError, match="not on the grid"):
            grid.index_of(123)  # where a chain down the grid from 123 would start
        with pytest.raises(ValueError, match="order violation"):
            sdedit_chain(den, z, [grid.steps[4], grid.steps[2]], sched_t2i, rng)
