import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latent_elevator import (
    AnalyticDenoiser,
    SamplerConfig,
    ddim_invert,
    ddim_invert_step,
    ddim_sample,
    ddim_step,
    forward_diffuse,
    project_clean,
    select_timesteps,
    step_sigma,
)
from latent_elevator.sampler import sdedit_chain
from latent_elevator.schedule import NoiseSchedule, TimestepGrid
from latent_elevator.synth import make_gp_prior, sample_prior

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


class TestSigma:
    def test_zero_eta(self, sched_t2i):
        assert step_sigma(sched_t2i, 500, 480, 0.0) == 0.0

    def test_final_step_is_deterministic(self, sched_t2i):
        assert step_sigma(sched_t2i, 20, 0, 1.0) == 0.0

    @given(
        t=st.integers(2, 1000),
        gap=st.integers(1, 500),
        eta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_direction_coefficient_nonnegative(self, sched_t2i, t, gap, eta):
        t_prev = max(t - gap, 0)
        if t_prev == t:
            return
        sigma = step_sigma(sched_t2i, t, t_prev, eta)
        assert 1.0 - sched_t2i.alpha_bar[t_prev] - sigma ** 2 >= -1e-12


class TestDdimStep:
    def test_zero_model_rescale(self, sched_t2i, rng):
        z = rng.standard_normal(SHAPE)
        out = ddim_step(zero_model(), z, 500, 480, sched_t2i, SamplerConfig())
        ratio = np.sqrt(sched_t2i.alpha_bar[480] / sched_t2i.alpha_bar[500])
        np.testing.assert_allclose(out, ratio * z, rtol=1e-12)

    def test_perfect_prediction_tracks_forward(self, sched_t2i, rng):
        z0 = rng.standard_normal(SHAPE)
        eps = rng.standard_normal(SHAPE)
        z_t = forward_diffuse(z0, 600, eps, sched_t2i)
        out = ddim_step(ConstantModel(eps), z_t, 600, 400, sched_t2i, SamplerConfig())
        np.testing.assert_allclose(out, forward_diffuse(z0, 400, eps, sched_t2i),
                                   rtol=1e-9, atol=1e-12)

    def test_hand_case(self):
        # alpha_bar 0.25 -> 0.81 with unit latent and unit prediction
        s = custom_schedule([1.0, 0.81, 0.25])
        out = ddim_step(ConstantModel(1.0), np.ones(SHAPE), 2, 1, s, SamplerConfig())
        expected = 0.9 * ((1 - np.sqrt(0.75)) / 0.5) + np.sqrt(1 - 0.81)
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        assert out[0, 0, 0, 0] == pytest.approx(0.6770441675420776)

    def test_order_violation(self, sched_t2i):
        z = np.zeros(SHAPE)
        with pytest.raises(ValueError, match="order violation"):
            ddim_step(zero_model(), z, 100, 100, sched_t2i, SamplerConfig())
        with pytest.raises(ValueError, match="order violation"):
            ddim_step(zero_model(), z, 100, 200, sched_t2i, SamplerConfig())

    def test_eta_without_rng(self, sched_t2i):
        with pytest.raises(ValueError, match="requires a random generator"):
            ddim_step(zero_model(), np.zeros(SHAPE), 100, 50, sched_t2i,
                      SamplerConfig(eta=1.0))

    def test_eta_bounds(self):
        with pytest.raises(ValueError, match="eta"):
            SamplerConfig(eta=1.5)


class TestInversion:
    def test_zero_model_rescale(self, sched_t2i, rng):
        z = rng.standard_normal(SHAPE)
        out = ddim_invert_step(zero_model(), z, 200, 400, sched_t2i)
        ratio = np.sqrt(sched_t2i.alpha_bar[400] / sched_t2i.alpha_bar[200])
        np.testing.assert_allclose(out, ratio * z, rtol=1e-12)

    def test_equal_timesteps_rejected(self, sched_t2i):
        with pytest.raises(ValueError, match="order violation"):
            ddim_invert_step(zero_model(), np.zeros(SHAPE), 300, 300, sched_t2i)

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
        up = ddim_invert_step(den, z, a, b, sched_t2i)
        np.testing.assert_allclose(up, w_coef * z, rtol=1e-12)
        down = ddim_step(den, up, b, a, sched_t2i, SamplerConfig())
        np.testing.assert_allclose(down, w_coef * m_coef * z, rtol=1e-12)
        assert np.linalg.norm(down - z) / np.linalg.norm(z) < 1e-4

    def test_invert_target_not_on_grid(self, sched_t2i, rng):
        grid = select_timesteps(sched_t2i, 10)
        with pytest.raises(ValueError, match="not on the grid"):
            ddim_invert(zero_model(), rng.standard_normal(SHAPE), grid, 123, sched_t2i)

    def test_invert_zero_model_telescopes(self, sched_t2i, rng):
        grid = select_timesteps(sched_t2i, 10)
        z0 = rng.standard_normal(SHAPE)
        out = ddim_invert(zero_model(), z0, grid, 500, sched_t2i)
        np.testing.assert_allclose(out, np.sqrt(sched_t2i.alpha_bar[500]) * z0,
                                   rtol=1e-12)

    def test_invert_smallest_step_single_hop(self, sched_t2i, rng):
        grid = select_timesteps(sched_t2i, 10)
        z0 = rng.standard_normal(SHAPE)
        t_min = grid.steps[-1]
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        np.testing.assert_array_equal(
            ddim_invert(den, z0, grid, t_min, sched_t2i),
            ddim_invert_step(den, z0, 0, t_min, sched_t2i),
        )

    def test_full_adjointness_standard_normal(self, sched_t2i, rng):
        # dense grid: invert-then-sample is the identity to 1e-4
        prior = make_gp_prior(*SHAPE, rho=0.0, spectrum_kind="flat")
        den = AnalyticDenoiser(prior)
        grid = select_timesteps(sched_t2i, 400)
        z0 = rng.standard_normal(SHAPE)
        top = ddim_invert(den, z0, grid, grid.steps[0], sched_t2i)
        back = ddim_sample(den, top, grid, sched_t2i, SamplerConfig())
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
            back = ddim_sample(den, top, grid, sched_t2i, SamplerConfig())
            errs[k] = np.linalg.norm(back - z0) / np.linalg.norm(z0)
        assert errs[200] < errs[100] < errs[50] < 0.03
        assert 0.45 <= errs[100] / errs[50] <= 0.55
        assert 0.45 <= errs[200] / errs[100] <= 0.55


class TestSamplingLoops:
    def test_single_step_grid_projects(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = TimestepGrid(steps=(700,))
        z = rng.standard_normal(SHAPE)
        out = ddim_sample(den, z, grid, sched_t2i, SamplerConfig())
        np.testing.assert_array_equal(
            out, ddim_step(den, z, 700, 0, sched_t2i, SamplerConfig())
        )
        eps = den.predict_eps(z, 700, sched_t2i)
        np.testing.assert_allclose(out, project_clean(z, eps, 700, sched_t2i),
                                   rtol=1e-12)

    def test_eta0_is_seed_independent(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 20)
        z = rng.standard_normal(SHAPE)
        a = ddim_sample(den, z, grid, sched_t2i, SamplerConfig(eta=0.0),
                        np.random.default_rng(1))
        b = ddim_sample(den, z, grid, sched_t2i, SamplerConfig(eta=0.0),
                        np.random.default_rng(999))
        np.testing.assert_array_equal(a, b)

    def test_eta1_seeded_reproducible(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 20)
        z = rng.standard_normal(SHAPE)
        a = ddim_sample(den, z, grid, sched_t2i, SamplerConfig(eta=1.0),
                        np.random.default_rng(7))
        b = ddim_sample(den, z, grid, sched_t2i, SamplerConfig(eta=1.0),
                        np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @given(seed=st.integers(0, 2**31), k=st.integers(1, 12), top=st.integers(1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_perfect_model_telescoping(self, sched_t2i, seed, k, top):
        r = np.random.default_rng(seed)
        z0 = r.standard_normal(SHAPE)
        eps = r.standard_normal(SHAPE)
        steps = sorted(r.choice(np.arange(1, top + 1), size=min(k, top),
                                replace=False).tolist(), reverse=True)
        grid = TimestepGrid(steps=tuple(steps))
        z = forward_diffuse(z0, steps[0], eps, sched_t2i)
        out = ddim_sample(ConstantModel(eps), z, grid, sched_t2i, SamplerConfig())
        np.testing.assert_allclose(out, z0, rtol=1e-6, atol=1e-9)


class TestSdedit:
    def test_full_depth_reaches_zero(self, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(*SHAPE, spectrum_kind="flat"))
        grid = select_timesteps(sched_t2i, 10)
        z, t_out = sdedit_chain(den, rng.standard_normal(SHAPE), [*grid.steps, 0],
                                sched_t2i, SamplerConfig(), rng)
        assert t_out == 0
        assert np.all(np.isfinite(z))

    def test_one_step_perfect_model(self, sched_t2i):
        # replicate the internal forward draw with an identical generator
        grid = select_timesteps(sched_t2i, 10)
        t = grid.steps[3]
        z0 = np.random.default_rng(2).standard_normal(SHAPE)
        eps = np.random.default_rng(5).standard_normal(SHAPE)
        out, t_out = sdedit_chain(ConstantModel(eps), z0, [t, grid.steps[4]], sched_t2i,
                                  SamplerConfig(), np.random.default_rng(5))
        assert t_out == grid.steps[4]
        np.testing.assert_allclose(project_clean(out, eps, t_out, sched_t2i), z0,
                                   rtol=1e-6, atol=1e-9)

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
            out, t_out = sdedit_chain(den, z_in, chain, sched_t2i, SamplerConfig(), rng)
            eps_hat = den.predict_eps(out, t_out, sched_t2i)
            clean = project_clean(out, eps_hat, t_out, sched_t2i)
            if np.linalg.norm(clean - mean) < np.linalg.norm(z_in - mean):
                wins += 1
        assert wins >= 45

    def test_preconditions(self, sched_t2i, rng):
        den = zero_model()
        grid = select_timesteps(sched_t2i, 10)
        z = rng.standard_normal(SHAPE)
        with pytest.raises(ValueError, match="not on the grid"):
            grid.index_of(123)  # where a chain down the grid from 123 would start
        with pytest.raises(ValueError, match="order violation"):
            sdedit_chain(den, z, [grid.steps[4], grid.steps[2]], sched_t2i,
                         SamplerConfig(), rng)
