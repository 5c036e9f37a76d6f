import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latent_elevator import (
    NoiseSchedule,
    TimestepGrid,
    forward_diffuse,
    make_schedule,
    project_clean,
    select_refine_steps,
    select_timesteps,
    snr,
    snr_matched_timestep,
)

KINDS = ("linear_beta", "scaled_linear_beta", "cosine")


def custom_schedule(alpha_bar):
    return NoiseSchedule(
        total_steps=len(alpha_bar) - 1,
        alpha_bar=np.asarray(alpha_bar, dtype=float),
        kind="linear_beta",
    )


class TestMakeSchedule:
    def test_linear_matches_loop_oracle(self, sched_t2i):
        # oracle: plain running product over the beta grid
        betas = np.linspace(1e-4, 2e-2, 1000)
        acc = 1.0
        bar = [1.0]
        for b in betas:
            acc *= 1.0 - b
            bar.append(acc)
        np.testing.assert_allclose(sched_t2i.alpha_bar, bar, rtol=1e-12)
        assert sched_t2i.alpha_bar[1000] == pytest.approx(4.0358297653756764e-05)

    def test_single_step(self):
        s = make_schedule("linear_beta", 1, beta_start=0.5, beta_end=0.5000000001)
        np.testing.assert_allclose(s.alpha_bar, [1.0, 0.5], atol=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_head_and_monotone(self, kind):
        params = {} if kind == "cosine" else {"beta_start": 1e-3, "beta_end": 0.1}
        s = make_schedule(kind, 10, **params)
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all(s.alpha_bar > 0)

    @pytest.mark.parametrize(
        "params",
        [
            {"beta_start": 0.02, "beta_end": 0.01},
            {"beta_start": 0.0, "beta_end": 0.01},
            {"beta_start": 0.5, "beta_end": 1.5},
        ],
    )
    def test_invalid_beta_params(self, params):
        with pytest.raises(ValueError, match="invalid params"):
            make_schedule("linear_beta", 10, **params)

    @pytest.mark.parametrize("kind,params", [
        ("cosine", {"beta_start": 1e-4}),
        ("cosine", {"offset": 0.01}),
        ("linear_beta", {"beta_start": 1e-4}),
        ("scaled_linear_beta", {"beta_start": 1e-4, "beta_end": 2e-2, "offset": 0.01}),
    ])
    def test_params_are_the_kinds(self, kind, params):
        # a param the kind does not read, or a missing one, is an error
        with pytest.raises(ValueError, match=f"kind '{kind}' reads"):
            make_schedule(kind, 10, **params)

    def test_invalid_kind_and_steps(self):
        with pytest.raises(ValueError, match="invalid params"):
            make_schedule("quadratic", 10, beta_start=1e-4, beta_end=2e-2)
        with pytest.raises(ValueError, match="invalid params"):
            make_schedule("linear_beta", 0, beta_start=1e-4, beta_end=2e-2)

    @given(
        kind=st.sampled_from(KINDS),
        total=st.integers(1, 200),
        b0=st.floats(1e-6, 0.05),
        ratio=st.floats(1.5, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_over_random_params(self, kind, total, b0, ratio):
        params = {} if kind == "cosine" else {"beta_start": b0, "beta_end": min(b0 * ratio, 0.9)}
        s = make_schedule(kind, total, **params)
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all((s.alpha_bar > 0) & (s.alpha_bar <= 1))

    def test_default_kinds_differ(self, sched_t2i, sched_t2v):
        assert not np.allclose(sched_t2i.alpha_bar, sched_t2v.alpha_bar)


class TestForwardAndProject:
    def test_t0_identity(self, sched_t2i, rng):
        z0 = rng.standard_normal((2, 1, 4, 4))
        eps = rng.standard_normal((2, 1, 4, 4))
        np.testing.assert_array_equal(forward_diffuse(z0, 0, eps, sched_t2i), z0)

    def test_zero_clean(self, sched_t2i, rng):
        eps = rng.standard_normal((2, 1, 4, 4))
        t = 300
        out = forward_diffuse(np.zeros_like(eps), t, eps, sched_t2i)
        np.testing.assert_allclose(out, np.sqrt(1 - sched_t2i.alpha_bar[t]) * eps)

    def test_forward_hand_case(self):
        # alpha_bar = 0.25: every entry 0.5 + sqrt(0.75)
        s = custom_schedule([1.0, 0.25])
        out = forward_diffuse(np.ones((1, 1, 2, 2)), 1, np.ones((1, 1, 2, 2)), s)
        np.testing.assert_allclose(out, 0.5 + math.sqrt(0.75))
        assert out[0, 0, 0, 0] == pytest.approx(1.3660254037844386)

    def test_project_hand_case(self):
        s = custom_schedule([1.0, 0.25])
        out = project_clean(np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2)), 1, s)
        np.testing.assert_allclose(out, (1 - math.sqrt(0.75)) / 0.5)
        assert out[0, 0, 0, 0] == pytest.approx(0.26794919243112275)

    def test_project_zero_eps(self, sched_t2i, rng):
        z = rng.standard_normal((2, 1, 4, 4))
        t = 700
        out = project_clean(z, np.zeros_like(z), t, sched_t2i)
        np.testing.assert_allclose(out, z / np.sqrt(sched_t2i.alpha_bar[t]))

    @given(t=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, sched_t2i, t, seed):
        r = np.random.default_rng(seed)
        z0 = r.standard_normal((2, 2, 3, 3))
        eps = r.standard_normal((2, 2, 3, 3))
        z_t = forward_diffuse(z0, t, eps, sched_t2i)
        np.testing.assert_allclose(project_clean(z_t, eps, t, sched_t2i), z0,
                                   rtol=1e-6, atol=1e-8)

    @given(a=st.floats(-100, 100), t=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_forward_is_homogeneous(self, sched_t2i, a, t):
        r = np.random.default_rng(1)
        z0 = r.standard_normal((2, 1, 3, 3))
        eps = r.standard_normal((2, 1, 3, 3))
        np.testing.assert_allclose(
            forward_diffuse(a * z0, t, a * eps, sched_t2i),
            a * forward_diffuse(z0, t, eps, sched_t2i),
            rtol=1e-6, atol=1e-9,
        )

    def test_shape_mismatch(self, sched_t2i):
        with pytest.raises(ValueError, match="shape mismatch"):
            forward_diffuse(np.zeros((2, 1, 4, 4)), 1, np.zeros((2, 1, 4, 5)), sched_t2i)

    def test_timestep_range(self, sched_t2i):
        z = np.zeros((1, 1, 2, 2))
        with pytest.raises(ValueError, match="timestep out of range"):
            forward_diffuse(z, 1001, z, sched_t2i)
        with pytest.raises(ValueError, match="timestep out of range"):
            project_clean(z, z, 0, sched_t2i)

    def test_degenerate_alpha_floor(self):
        s = custom_schedule([1.0, 1e-9])
        z = np.ones((1, 1, 2, 2))
        with pytest.raises(ValueError, match="degenerate alpha_bar"):
            project_clean(z, z, 1, s)


class TestTimestepSelection:
    def test_include_top_stride_rule(self, sched_t2i):
        assert select_timesteps(sched_t2i, 4).steps == (1000, 750, 500, 250)

    def test_full_grid(self):
        s = make_schedule("linear_beta", 10, beta_start=1e-3, beta_end=2e-2)
        assert select_timesteps(s, 10).steps == tuple(range(10, 0, -1))

    def test_out_of_range(self, sched_t2i):
        with pytest.raises(ValueError, match="out of range"):
            select_timesteps(sched_t2i, 1001)
        with pytest.raises(ValueError, match="out of range"):
            select_timesteps(sched_t2i, 0)

    @given(total=st.integers(1, 500), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_grid_properties(self, total, data):
        k = data.draw(st.integers(1, total))
        s = make_schedule("linear_beta", total, beta_start=1e-4, beta_end=2e-2)
        grid = select_timesteps(s, k)
        assert len(grid.steps) == k
        assert grid.steps[0] == total
        assert grid.steps[-1] > 0
        assert all(a > b for a, b in zip(grid.steps, grid.steps[1:]))
        assert grid.refine_set == frozenset()

    def test_refine_empty_and_full(self, sched_t2i):
        grid = select_timesteps(sched_t2i, 10)
        assert select_refine_steps(grid, 0).refine_set == frozenset()
        assert select_refine_steps(grid, 10).refine_set == set(grid.steps)

    def test_refine_even_spread_from_start(self):
        grid = TimestepGrid(steps=(100, 80, 60, 40, 20))
        assert select_refine_steps(grid, 2).refine_set == {100, 60}

    def test_refine_always_contains_first_step(self, sched_t2i):
        grid = select_timesteps(sched_t2i, 50)
        for k in range(1, 51):
            assert grid.steps[0] in select_refine_steps(grid, k).refine_set

    def test_refine_out_of_range(self):
        grid = TimestepGrid(steps=(10, 5))
        with pytest.raises(ValueError, match="out of range"):
            select_refine_steps(grid, 3)

    def test_hops_end_at_zero(self):
        grid = TimestepGrid(steps=(100, 60, 20), refine_set={100})
        assert list(grid.hops()) == [(100, 60), (60, 20), (20, 0)]

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            TimestepGrid(steps=(10, 10, 5))
        with pytest.raises(ValueError, match="strictly decreasing"):
            TimestepGrid(steps=(5, 10))
        with pytest.raises(ValueError, match=">= 1"):
            TimestepGrid(steps=(5, 0))
        with pytest.raises(ValueError, match="subset"):
            TimestepGrid(steps=(10, 5), refine_set={7})


class TestSnr:
    def test_hand_values(self):
        s = custom_schedule([1.0, 0.8, 0.5])
        assert snr(s, 2) == pytest.approx(1.0)
        assert snr(s, 1) == pytest.approx(4.0)

    def test_monotone_decreasing(self, sched_t2i):
        values = [snr(sched_t2i, t) for t in range(1, 1001, 37)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range_errors(self, sched_t2i):
        with pytest.raises(ValueError, match="timestep out of range"):
            snr(sched_t2i, 0)
        with pytest.raises(ValueError, match="timestep out of range"):
            snr(sched_t2i, 1001)

    def test_matched_timestep_identity(self, sched_t2i):
        for t in (1, 17, 500, 1000):
            assert snr_matched_timestep(sched_t2i, sched_t2i, t) == t

    def test_matched_timestep_cross(self, sched_t2i, sched_t2v):
        for t in (100, 500, 900):
            u = snr_matched_timestep(sched_t2i, sched_t2v, t)
            # the matched index realizes the smallest log-SNR gap
            target = math.log(snr(sched_t2i, t))
            gaps = [abs(math.log(snr(sched_t2v, v)) - target) for v in range(1, 1001)]
            assert abs(math.log(snr(sched_t2v, u)) - target) == pytest.approx(min(gaps))
