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
from latent_elevator.attention import _EXP_LIMIT, attention

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


class TestAttention:
    def test_single_key_broadcasts_value(self, rng):
        q = rng.standard_normal((5, 3))
        k = rng.standard_normal((1, 3))
        v = rng.standard_normal((1, 3))
        np.testing.assert_allclose(attention(q, k, v), np.repeat(v, 5, axis=0),
                                   rtol=1e-12)

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
        np.testing.assert_allclose(attention(q, k, v),
                                   attention(q, k[perm], v[perm]),
                                   rtol=1e-9, atol=1e-12)

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
                                       rtol=1e-12, atol=1e-12)

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
        # 16 frames of 256 tokens: one 512 KiB logits block per 256 rows.
        # Fresh, the blocks and the value GEMM's output took 1212 KiB; from
        # the workspace the call holds its 128 KiB output and small arrays
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


class TestOverflowGuard:
    """The kernel skips the row-max pass unless its logit bound could
    overflow a weight or a numerator; both sides match the oracle."""

    @pytest.mark.parametrize("margin", [-10.0, 10.0])
    def test_both_sides_of_the_guard_match_oracle(self, rng, margin):
        q = rng.standard_normal((5, 4))
        k = rng.standard_normal((7, 4)) + 3.0  # off-center keys
        v = rng.standard_normal((7, 3))
        # the bound is linear in the query scale beyond its log terms
        logs = _logit_bound(np.zeros_like(q), k, v)
        q *= (_EXP_LIMIT + margin - logs) / (_logit_bound(q, k, v) - logs)
        assert _logit_bound(q, k, v) == pytest.approx(_EXP_LIMIT + margin)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(q, k, v)
        np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_huge_values_take_the_guard_and_match_oracle(self, rng, scale):
        # log(1e306) alone exceeds the limit; the weights stay ordinary
        q = rng.standard_normal((5, 4)) * scale
        k = rng.standard_normal((7, 4))
        v = rng.standard_normal((7, 3)) * 1e306
        assert _logit_bound(q, k, v) > _EXP_LIMIT
        np.testing.assert_allclose(attention(q, k, v), naive_attention(q, k, v),
                                   rtol=1e-12, atol=0)

    def test_huge_keys_match_oracle(self, rng):
        # 300 keys near 1e306 sum past the float64 max; 3 keys of +-1.7e308
        # have a finite mean, 5.7e307, but a key minus it overflows. The
        # keys are then used as given, on the shifted path.
        q = rng.standard_normal((5, 4)) * 1e-3
        same_sign = rng.uniform(1e306, 2e306, (300, 4))
        mixed = np.array([[1.7e308], [-1.7e308], [1.7e308]]) * rng.uniform(0.99, 1, (3, 4))
        for k in (same_sign, mixed):
            v = rng.standard_normal((k.shape[0], 3))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = attention(q, k, v)
            np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-12, atol=0)

    def test_huge_values_stay_finite(self, rng):
        # 6 weights of at most 1 times |v| < 1.5e307 sum below the float64
        # max, so the unnormalized product of a row-max softmax is finite
        # here, and so must the kernel's be, however flat the weights
        v = rng.uniform(-1.5e307, 1.5e307, (6, 2))
        for q_scale in (0.0, 1.0, 1e3):
            out = attention(rng.standard_normal((4, 3)) * q_scale,
                            rng.standard_normal((6, 3)), v)
            assert np.all(np.isfinite(out))
            assert np.all(np.abs(out) <= np.abs(v).max())


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
        for i in range(3):
            expected = naive_attention(frames[i] @ params.w_q, k0, v0)
            np.testing.assert_allclose(out[i], expected, rtol=1e-6, atol=1e-9)

    def test_is_attention_of_the_first_frame(self, rng):
        # the kernel in full, one softmax over all frames' queries at once
        params = make_attention_params(4, seed=5)
        frames = rng.standard_normal((3, 6, 4))
        q, k0, v0 = frames @ params.w_q, frames[0] @ params.w_k, frames[0] @ params.w_v
        logits = q @ k0.T / np.sqrt(4)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        # the kernel folds 1/sqrt(d) into the keys and normalizes its outputs,
        # not its weights: the same arithmetic up to rounding order
        np.testing.assert_allclose(first_only_cross_frame(frames, params),
                                   e / e.sum(axis=-1, keepdims=True) @ v0,
                                   rtol=1e-12, atol=1e-15)

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
