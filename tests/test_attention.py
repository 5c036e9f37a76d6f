import math
import tracemalloc
import warnings

import numpy as np
import pytest

from latent_elevator import (
    AttentionParams,
    CrossFrameDenoiser,
    first_only_cross_frame,
    make_attention_params,
)
import latent_elevator.attention as attention_module
from latent_elevator.attention import _EXP_LIMIT, _EXP_LIMIT_F32, attention
from latent_elevator.elevate import elevate_sample
from latent_elevator.harness import make_default_plan
from latent_elevator.workspace import _scratch

from conftest import recipe_denoiser


def naive_attention(q, k, v):
    """Double-loop softmax oracle."""
    n, d = q.shape
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        logits = np.array([q[i] @ k[j] / np.sqrt(d) for j in range(k.shape[0])])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        for j in range(k.shape[0]):
            out[i] += weights[j] * v[j]
    return out


F32_EPS = float(np.finfo(np.float32).eps)


def f32_atol(q, k, v):
    """The float32 path's error bound. A weight is off by its logit's
    float32 rounding, about eps times the kernel's bound B, and by exp's,
    about eps; a weighted mean of values moves by at most twice that
    relative error times max|v|, and the cast values and the value GEMM's
    sums add about one more eps of max|v|: ``2 eps (B + 2) max|v|``."""
    bound = _logit_bound(q.reshape(-1, q.shape[-1]), k, v)
    return 2 * F32_EPS * (bound + 2) * np.abs(v).max()


class TestAttention:
    def test_single_key_broadcasts_value(self, rng):
        q = rng.standard_normal((5, 3))
        k = rng.standard_normal((1, 3))
        v = rng.standard_normal((1, 3))
        # the one weight is exp(0) = 1, so the output is v rounded once to
        # float32, within half an eps
        np.testing.assert_allclose(attention(q, k, v), np.repeat(v, 5, axis=0),
                                   rtol=F32_EPS / 2)

    def test_saturated_match(self):
        # orthogonal keys, one overwhelming match per query
        k = np.eye(4) * 30.0
        v = np.arange(16, dtype=float).reshape(4, 4)
        q = np.eye(4) * 30.0
        out = attention(q, k, v)
        np.testing.assert_allclose(out, v, atol=1e-3)

    def test_matches_naive_oracle(self, rng):
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        np.testing.assert_allclose(attention(q, k, v), naive_attention(q, k, v),
                                   rtol=1e-6, atol=1e-9)

    def test_rows_sum_to_one(self, rng):
        # with V = I the output rows are exactly the softmax rows
        q = rng.standard_normal((5, 4)) * 3
        k = rng.standard_normal((7, 4)) * 3
        rows = attention(q, k, np.eye(7))
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(5), atol=1e-9)
        assert np.all(rows >= 0)

    def test_joint_key_value_permutation_invariance(self, rng):
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((6, 3))
        v = rng.standard_normal((6, 3))
        perm = np.random.default_rng(1).permutation(6)
        # each side within f32_atol of the exact result
        np.testing.assert_allclose(attention(q, k, v),
                                   attention(q, k[perm], v[perm]),
                                   rtol=0, atol=2 * f32_atol(q, k, v))

    def test_broadcasts_over_leading_query_axes(self, rng):
        q = rng.standard_normal((2, 3, 5, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 2))
        out = attention(q, k, v)
        assert out.shape == (2, 3, 5, 2)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(out[i, j], attention(q[i, j], k, v),
                                           rtol=1e-12, atol=1e-15)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="shape mismatch"):
            attention(rng.standard_normal((3, 4)), rng.standard_normal((5, 3)),
                      rng.standard_normal((5, 4)))
        with pytest.raises(ValueError, match="shape mismatch"):
            attention(rng.standard_normal((3, 4)), rng.standard_normal((5, 4)),
                      rng.standard_normal((4, 4)))


class TestQueryBlocks:
    """300 keys make blocks of 218 query rows, so 750 rows span three full
    blocks and a 96-row remainder."""

    def test_several_blocks_and_a_remainder(self, rng):
        q = rng.standard_normal((3, 250, 4))
        k = rng.standard_normal((300, 4))
        v = rng.standard_normal((300, 2))
        out = attention(q, k, v)
        assert out.shape == (3, 250, 2)
        for i in range(3):
            np.testing.assert_allclose(out[i], naive_attention(q[i], k, v),
                                       rtol=0, atol=f32_atol(q, k, v))

    def test_large_logits_stay_finite(self, rng):
        # logits near 1e3 overflow exp unless each row's max is subtracted
        q = rng.standard_normal((750, 4)) * 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = attention(q, rng.standard_normal((300, 4)), np.eye(300))
        assert np.all(np.isfinite(rows))
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(750), atol=1e-12)

    def test_default_scale_is_warning_free(self, rng):
        q = rng.standard_normal((3, 250, 4))
        k = rng.standard_normal((300, 4))
        v = rng.standard_normal((300, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(q, k, v)
        assert np.all(np.isfinite(out))

    def test_empty_query(self, rng):
        out = attention(np.empty((0, 4)), rng.standard_normal((5, 4)),
                        rng.standard_normal((5, 3)))
        assert out.shape == (0, 3)

    def test_zero_width_values(self, rng):
        out = attention(rng.standard_normal((2, 3, 4)), rng.standard_normal((5, 4)),
                        np.empty((5, 0)))
        assert out.shape == (2, 3, 0)

    def test_memory_does_not_grow_with_frames_times_keys_squared(self, rng):
        # F * n^2 float64 logits would take 16 * 1024^2 * 8 B = 128 MiB
        params = make_attention_params(4, seed=1)
        frames = rng.standard_normal((16, 1024, 4))
        tracemalloc.start()
        try:
            first_only_cross_frame(frames, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_warm_call_reuses_its_workspace(self, rng):
        # 16 frames of 256 tokens: one 256 KiB float32 logits block per 256
        # rows. Fresh, the float64 blocks and the value GEMM's output took
        # 1212 KiB, and a fresh float32 cast of all the queries made the
        # peak 348 KiB; from the workspace the call holds its 128 KiB output,
        # one block's 4 KiB of cast queries and small arrays
        q = rng.standard_normal((16, 256, 4))
        k, v = rng.standard_normal((256, 4)), rng.standard_normal((256, 4))
        first = attention(q, k, v)
        tracemalloc.start()
        try:
            out = attention(q, k, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 320 * 1024
        np.testing.assert_array_equal(out, first)
        assert not np.shares_memory(out, first)


def _logit_bound(q, k, v):
    """The kernel's overflow bound on its centered logits, plus ``log n``
    and ``log max|v|``."""
    k_c = k - k.mean(axis=0)
    norms = np.linalg.norm(q, axis=1).max() * np.linalg.norm(k_c, axis=1).max()
    return (norms / math.sqrt(q.shape[1]) + math.log(len(k))
            + math.log(max(np.abs(v).max(), 1.0)))


def bound_at(rng, bound, n_keys=7, v_scale=1.0):
    """Queries, ``n_keys`` off-center keys and values whose kernel bound is
    ``bound``, which must exceed the bound's ``log n`` and ``log max|v|``."""
    q = rng.standard_normal((5, 4))
    k = rng.standard_normal((n_keys, 4)) + 3.0  # off-center keys
    v = rng.standard_normal((n_keys, 3)) * v_scale
    # the bound is linear in the query scale beyond its log terms
    logs = _logit_bound(np.zeros_like(q), k, v)
    q *= (bound - logs) / (_logit_bound(q, k, v) - logs)
    assert _logit_bound(q, k, v) == pytest.approx(bound)
    return q, k, v


def huge_values(rng, scale):
    # log(1e306) alone exceeds the limit; the weights stay ordinary
    q = rng.standard_normal((5, 4)) * scale
    k = rng.standard_normal((7, 4))
    v = rng.standard_normal((7, 3)) * 1e306
    return q, k, v


def huge_keys(rng):
    # 300 keys near 1e306 sum past the float64 max; 3 keys of +-1.7e308
    # have a finite mean, 5.7e307, but a key minus it overflows. The keys
    # are then used as given, on the shifted path.
    q = rng.standard_normal((5, 4)) * 1e-3
    same_sign = rng.uniform(1e306, 2e306, (300, 4))
    mixed = np.array([[1.7e308], [-1.7e308], [1.7e308]]) * rng.uniform(0.99, 1, (3, 4))
    return [(q, k, rng.standard_normal((k.shape[0], 3))) for k in (same_sign, mixed)]


def extreme_keys_d1(rng):
    # one-wide keys near the float64 max: their logits are finite, but the
    # keys times log2(e) are not, so the shifted regime scales its logits
    # after subtracting the row max. The first keys' sum overflows, and the
    # second's centered squares do, so both calls take that regime.
    near_max = np.array([[1.7e308], [1.6e308], [1.65e308]])
    opposite = np.array([[1.7e308], [-1.7e308]])
    return [(np.array([[1.0], [0.5]]), near_max, rng.standard_normal((3, 2))),
            (np.zeros((2, 1)), opposite, rng.standard_normal((2, 2)))]


def huge_flat_values(rng):
    # 6 weights of at most 1 times |v| < 1.5e307 sum below the float64
    # max, so the unnormalized product of a row-max softmax is finite
    # here, and so must the kernel's be, however flat the weights
    v = rng.uniform(-1.5e307, 1.5e307, (6, 2))
    return [(rng.standard_normal((4, 3)) * q_scale, rng.standard_normal((6, 3)), v)
            for q_scale in (0.0, 1.0, 1e3)]


def near_max_keys(rng):
    # nearly equal keys near the float64 max: as given, every logit
    # overflows to inf and the row max subtracted leaves NaN; centered,
    # they are about 1e293, and softmax ignores the centering
    n = rng.standard_normal
    return [(100 * np.abs(n((5, 4))), 1e307 + 1e291 * n((7, 4)), n((7, 3)))]


def float64_kernel(q, k, v):
    """The kernel's float64 arithmetic, step for step, on one block of
    query rows: the bound from the centered keys; below the float64 limit
    the centered keys times ``log2(e) / sqrt(d)``, at or above it the
    centered keys, or the keys as given where a centered entry is not
    finite, times ``1/sqrt(d)`` and the row max subtracted before the
    logits are scaled by ``log2(e)``; then ``exp2``, the value GEMM with its
    ones column, and each row times its normalizer's reciprocal."""
    n, d = k.shape
    log2e = math.log2(math.e)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = k - k.mean(axis=0)
        bound = (np.linalg.norm(q, axis=1).max() * np.linalg.norm(centered, axis=1).max()
                 / math.sqrt(d) + math.log(n) + math.log(max(np.abs(v).max(), 1.0)))
    shift = not bound < _EXP_LIMIT
    v_ones = np.ones((n, v.shape[1] + 1))
    v_ones[:, :-1] = v
    keys = k if shift and not np.all(np.isfinite(centered)) else centered
    e = q @ (keys.T * ((1.0 if shift else log2e) / math.sqrt(d)))
    if shift:
        e -= e.max(axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            e *= log2e
    num = np.exp2(e) @ v_ones
    return num[:, :-1] * (1.0 / num[:, -1:])


OVERFLOW_CASES = {
    "below_guard": lambda rng: [bound_at(rng, _EXP_LIMIT - 10.0)],
    "above_guard": lambda rng: [bound_at(rng, _EXP_LIMIT + 10.0)],
    "huge_values": lambda rng: [huge_values(rng, 1.0)],
    "huge_values_x30": lambda rng: [huge_values(rng, 30.0)],
    "huge_keys": huge_keys,
    "extreme_keys_d1": extreme_keys_d1,
    "huge_flat_values": huge_flat_values,
    "near_max_keys": near_max_keys,
}


class TestOverflowGuard:
    """At or above ``_EXP_LIMIT`` a weight or a numerator could overflow,
    and the kernel subtracts each row's max from the logits of the centered
    keys, or of the keys as given where centering overflows; below it, it
    uses the centered keys unshifted. Both sides match the oracle."""

    @pytest.mark.parametrize("margin", [-10.0, 10.0])
    def test_both_sides_of_the_guard_match_oracle(self, rng, margin):
        q, k, v = bound_at(rng, _EXP_LIMIT + margin)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(q, k, v)
        np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_huge_values_take_the_guard_and_match_oracle(self, rng, scale):
        q, k, v = huge_values(rng, scale)
        assert _logit_bound(q, k, v) > _EXP_LIMIT
        np.testing.assert_allclose(attention(q, k, v), naive_attention(q, k, v),
                                   rtol=1e-12, atol=0)

    def test_huge_keys_match_oracle(self, rng):
        for q, k, v in huge_keys(rng) + extreme_keys_d1(rng):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = attention(q, k, v)
            np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-12, atol=0)

    def test_near_max_keys_match_the_centered_oracle(self, rng):
        [(q, k, v)] = near_max_keys(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(q, k, v)
        np.testing.assert_allclose(out, naive_attention(q, k - k.mean(axis=0), v),
                                   rtol=1e-12, atol=0)

    def test_huge_values_stay_finite(self, rng):
        for q, k, v in huge_flat_values(rng):
            out = attention(q, k, v)
            assert np.all(np.isfinite(out))
            assert np.all(np.abs(out) <= np.abs(v).max())

    @pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
    def test_returns_the_float64_result_bitwise(self, rng, case):
        # every case's bound is above the float32 limit, so the float32
        # path leaves its bytes as they were
        for q, k, v in OVERFLOW_CASES[case](rng):
            np.testing.assert_array_equal(attention(q, k, v), float64_kernel(q, k, v))


class TestFloat32Path:
    """Below ``_EXP_LIMIT_F32`` the blocks run in float32, to within
    ``f32_atol`` of the oracle; above it, in float64 as before."""

    @pytest.mark.parametrize("margin", [-10.0, 10.0])
    def test_both_sides_of_the_float32_limit_match_oracle(self, rng, margin):
        q, k, v = bound_at(rng, _EXP_LIMIT_F32 + margin)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(q, k, v)
        if margin < 0:
            np.testing.assert_allclose(out, naive_attention(q, k, v),
                                       rtol=0, atol=f32_atol(q, k, v))
        else:
            np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-12, atol=0)
            np.testing.assert_array_equal(out, float64_kernel(q, k, v))

    def test_a_logit_at_the_limit_stays_finite(self):
        # two opposite keys, already centered, and a query along them: one
        # logit meets the Cauchy-Schwarz bound, at the limit less log 2
        x = np.array([[3.0, -1.0, 2.0, 1.0]])
        k, v = np.vstack([x, -x]), np.array([[1.0, -1.0], [0.5, 0.25]])
        logit = _EXP_LIMIT_F32 - 1e-6 - math.log(2)
        q = x * (logit * 2.0 / np.sum(x * x))
        assert _logit_bound(q, k, v) < _EXP_LIMIT_F32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(q, k, v)
        np.testing.assert_allclose(out, naive_attention(q, k, v),
                                   rtol=0, atol=f32_atol(q, k, v))

    def test_near_equal_logits_keep_a_normalizer_of_at_least_one(self, rng):
        # keys 1e3 off center and within 1e-4 of each other: as given, the
        # logits would reach about +-1e3 and overflow or underflow float32's
        # exp; centered, each row's logits are near 0 and average 0, so its
        # largest weight, and its normalizer, is at least 1
        q = rng.standard_normal((8, 4))
        k = 1e3 + rng.standard_normal((50, 4)) * 1e-4
        v = rng.standard_normal((50, 3))
        out = attention(q, k, v)
        # the kernel leaves its float32 numerators, normalizer last, in this
        # thread's workspace
        num = _scratch("num", (8, 4), np.float32)
        assert np.all(num[:, -1] >= 1.0)
        np.testing.assert_allclose(out, naive_attention(q, k, v),
                                   rtol=0, atol=f32_atol(q, k, v))

    def test_float32_inputs_above_the_limit_stay_float64(self, rng):
        # the float64 regimes run in float64 whatever the input dtype
        q, k, v = (a.astype(np.float32) for a in bound_at(rng, _EXP_LIMIT_F32 + 10.0))
        assert _EXP_LIMIT_F32 < _logit_bound(q, k, v) < _EXP_LIMIT
        out = attention(q, k, v)
        assert out.dtype == np.float64
        # the oracle's dot products are float64 on the same values
        exact = naive_attention(*(a.astype(np.float64) for a in (q, k, v)))
        np.testing.assert_allclose(out, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bound", [1.0, 10.0, 40.0, 79.9])
    def test_bound_sweep_within_f32_atol(self, bound):
        # 20 draws per bound; a bound of 1 is below log 7, so it takes two
        # keys and values under 1
        n_keys, v_scale = (2, 0.1) if bound < 2 else (7, 1.0)
        for seed in range(20):
            q, k, v = bound_at(np.random.default_rng(seed), bound, n_keys, v_scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = attention(q, k, v)
            num = _scratch("num", (5, 4), np.float32)
            assert np.all(num[:, -1] >= 1.0)
            np.testing.assert_allclose(out, naive_attention(q, k, v),
                                       rtol=0, atol=f32_atol(q, k, v))

    @pytest.mark.parametrize("big", ["keys", "queries"])
    def test_operands_past_the_float32_max_run_in_float64(self, rng, big):
        # keys of 1e39 and queries of 1e-40 bound their logits well below
        # the limit, but the keys' float32 cast would overflow to inf and
        # turn every output NaN; so would the queries' the other way round
        q, k = rng.standard_normal((5, 4)) * 1e-40, rng.standard_normal((7, 4)) * 1e39
        if big == "queries":
            q, k = q * 1e79, k * 1e-79
        v = rng.standard_normal((7, 3))
        assert _logit_bound(q, k, v) < _EXP_LIMIT_F32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(q, k, v)
        np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-12, atol=0)

    def test_tiny_values_are_scaled_not_flushed(self, rng):
        # values of 1e-60 are zero in float32; scaled by a power of two into
        # [0.5, 1) and back, they keep float32's relative precision
        q, k = rng.standard_normal((5, 4)), rng.standard_normal((7, 4))
        v = rng.standard_normal((7, 3)) * 1e-60
        np.testing.assert_allclose(attention(q, k, v), naive_attention(q, k, v),
                                   rtol=0, atol=f32_atol(q, k, v))


class TestRegimeTraffic:
    """Which regime the recipe's calls take, read by a spy on every call."""

    @staticmethod
    def _bounds(monkeypatch, plans):
        # ``first_only_cross_frame`` calls the module attribute
        bounds, kernel = [], attention_module.attention

        def spy(q, k, v):
            bounds.append(_logit_bound(q.reshape(-1, q.shape[-1]), k, v))
            return kernel(q, k, v)

        monkeypatch.setattr(attention_module, "attention", spy)
        for plan in plans:
            elevate_sample(plan)
        return bounds

    def test_elevate_runs_every_call_in_float32(self, monkeypatch):
        # the float32 regime is what makes ``elevate`` fast; a recipe change
        # that moved its calls to float64 would lose that silently
        bounds = self._bounds(monkeypatch, (make_default_plan(seed=s) for s in range(4)))
        assert len(bounds) == 4 * 50
        assert max(bounds) < _EXP_LIMIT_F32

    def test_image_baseline_regimes(self, monkeypatch):
        # reported, not pinned: an image model bounded under every schedule
        # is expected to move these counts
        plans = (make_default_plan(seed=s, num_refine_steps=0) for s in range(2))
        bounds = np.array(self._bounds(monkeypatch, plans))
        assert len(bounds) == 2 * 50
        below = [int(np.sum(bounds < limit)) for limit in (_EXP_LIMIT_F32, _EXP_LIMIT)]
        print(f"\nREGIMES baseline_t2i seeds 0-1: float32 {below[0]}, "
              f"float64 {below[1] - below[0]}, float64 shifted {len(bounds) - below[1]}")


class TestFirstOnlyCrossFrame:
    def test_single_frame_is_self_attention(self, rng):
        params = make_attention_params(4, seed=3)
        frames = rng.standard_normal((1, 6, 4))
        out = first_only_cross_frame(frames, params)
        expected = attention(frames[0] @ params.w_q, frames[0] @ params.w_k,
                             frames[0] @ params.w_v)
        np.testing.assert_allclose(out[0], expected, rtol=1e-9, atol=1e-12)

    def test_identical_frames_identical_outputs(self, rng):
        params = make_attention_params(4, seed=3)
        frame = rng.standard_normal((1, 6, 4))
        frames = np.repeat(frame, 5, axis=0)
        out = first_only_cross_frame(frames, params)
        for i in range(1, 5):
            np.testing.assert_allclose(out[i], out[0], rtol=1e-9, atol=1e-12)

    def test_matches_per_frame_oracle(self, rng):
        params = make_attention_params(4, seed=9)
        frames = rng.standard_normal((3, 5, 4))
        out = first_only_cross_frame(frames, params)
        k0 = frames[0] @ params.w_k
        v0 = frames[0] @ params.w_v
        q = frames @ params.w_q
        for i in range(3):
            expected = naive_attention(q[i], k0, v0)
            np.testing.assert_allclose(out[i], expected, rtol=0, atol=f32_atol(q, k0, v0))

    def test_is_attention_of_the_first_frame(self, rng):
        # the kernel in full, one softmax over all frames' queries at once
        params = make_attention_params(4, seed=5)
        frames = rng.standard_normal((3, 6, 4))
        q, k0, v0 = frames @ params.w_q, frames[0] @ params.w_k, frames[0] @ params.w_v
        logits = q @ k0.T / np.sqrt(4)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        # the kernel folds log2(e)/sqrt(d) into the keys and normalizes its
        # outputs, not its weights, and runs its blocks in float32
        np.testing.assert_allclose(first_only_cross_frame(frames, params),
                                   e / e.sum(axis=-1, keepdims=True) @ v0,
                                   rtol=0, atol=f32_atol(q, k0, v0))

    def test_empty_frame_stack_rejected(self):
        with pytest.raises(ValueError, match="F >= 1"):
            first_only_cross_frame(np.empty((0, 6, 4)), make_attention_params(4))

    def test_params_validation(self):
        with pytest.raises(ValueError, match="share one shape"):
            AttentionParams(np.eye(3), np.eye(3), np.eye(4))
        with pytest.raises(ValueError, match="finite"):
            AttentionParams(np.full((2, 2), np.nan), np.eye(2), np.eye(2))

    def test_non_square_projections_rejected(self):
        # attended tokens are blended back into the C-wide prediction
        tall = np.eye(4)[:, :3]
        with pytest.raises(ValueError, match="square"):
            AttentionParams(tall, tall, tall)
        assert make_attention_params(5).width == 5

    def test_orthonormal_projections(self):
        params = make_attention_params(6, seed=0)
        for m in (params.w_q, params.w_k, params.w_v):
            np.testing.assert_allclose(m.T @ m, np.eye(6), atol=1e-12)


class TestCrossFrameWrapper:
    def test_mix_zero_is_bitwise_identity(self, rng):
        base = recipe_denoiser("t2i", (4, 4, 8, 8))
        wrapped = CrossFrameDenoiser(base, make_attention_params(4), mix=0.0)
        z = rng.standard_normal((4, 4, 8, 8))
        np.testing.assert_array_equal(
            wrapped.predict_eps(z, 300),
            base.predict_eps(z, 300),
        )

    def test_mix_one_identical_frames_share_prediction(self, rng):
        base = recipe_denoiser("t2i", (4, 4, 8, 8))
        wrapped = CrossFrameDenoiser(base, make_attention_params(4), mix=1.0)
        frame = rng.standard_normal((1, 4, 8, 8))
        z = np.repeat(frame, 4, axis=0)
        out = wrapped.predict_eps(z, 300)
        for i in range(1, 4):
            np.testing.assert_allclose(out[i], out[0], rtol=1e-9, atol=1e-12)

    def test_mix_one_reduces_adjacent_frame_spread(self):
        """Frame-0 anchoring shrinks the spread of per-frame predictions:
        median over 50 random latents."""
        base = recipe_denoiser("t2i", (6, 4, 8, 8))
        params = make_attention_params(4, seed=2)
        plain = CrossFrameDenoiser(base, params, mix=0.0)
        anchored = CrossFrameDenoiser(base, params, mix=1.0)

        def spread(model, z):
            eps = model.predict_eps(z, 400)
            return np.mean(np.linalg.norm(np.diff(eps, axis=0), axis=(1, 2)))

        diffs = []
        for seed in range(50):
            z = np.random.default_rng(seed).standard_normal((6, 4, 8, 8))
            diffs.append(spread(plain, z) - spread(anchored, z))
        assert np.median(diffs) > 0

    def test_shape_and_determinism(self, rng):
        base = recipe_denoiser("t2i", (3, 4, 4, 4))
        wrapped = CrossFrameDenoiser(base, make_attention_params(4), mix=0.5)
        z = rng.standard_normal((3, 4, 4, 4))
        a = wrapped.predict_eps(z, 100)
        b = wrapped.predict_eps(z, 100)
        assert a.shape == z.shape
        np.testing.assert_array_equal(a, b)

    def test_runs_on_its_base_schedule(self):
        base = recipe_denoiser("t2i", (3, 4, 4, 4))
        wrapped = CrossFrameDenoiser(base, make_attention_params(4), mix=0.5)
        assert wrapped.schedule is base.schedule

    def test_incompatible_channel_width(self, rng):
        base = recipe_denoiser("t2i", (3, 4, 4, 4))
        wrapped = CrossFrameDenoiser(base, make_attention_params(3), mix=0.5)
        with pytest.raises(ValueError, match="shape mismatch: token width 4 vs 3"):
            wrapped.predict_eps(rng.standard_normal((3, 4, 4, 4)), 100)

    def test_mix_bounds(self):
        base = recipe_denoiser("t2i", (2, 4, 4, 4))
        with pytest.raises(ValueError, match="mix"):
            CrossFrameDenoiser(base, make_attention_params(4), mix=1.5)


def test_submodule_import_is_not_shadowed():
    # ``import pkg.mod as m`` binds the package attribute ``mod``; a
    # re-exported function of the same name would hide the module
    import latent_elevator.attention as module

    assert module.CrossFrameDenoiser is CrossFrameDenoiser
