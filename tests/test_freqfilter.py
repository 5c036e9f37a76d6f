import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latent_elevator import gaussian_mask, lpff
from latent_elevator.freqfilter import LowPassMask, check_axes


def dft_filter_oracle(video, gains):
    """O(F^2) DFT-matrix filter along the frame axis."""
    f = video.shape[0]
    idx = np.arange(f)
    dft = np.exp(-2j * np.pi * np.outer(idx, idx) / f)
    idft = np.exp(2j * np.pi * np.outer(idx, idx) / f) / f
    flat = video.reshape(f, -1)
    filtered = idft @ (gains[:, None] * (dft @ flat))
    return filtered.reshape(video.shape)


class TestGaussianMask:
    def test_two_frame_hand_values(self):
        mask = gaussian_mask(2, 0.25)
        np.testing.assert_allclose(mask.gains, [1.0, math.exp(-2.0)], rtol=1e-12)
        assert mask.gains[1] == pytest.approx(0.1353352832366127)

    def test_infinite_cutoff_is_identity(self):
        np.testing.assert_array_equal(gaussian_mask(8, math.inf).gains, np.ones(8))

    @given(frames=st.integers(1, 32), d0=st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_range(self, frames, d0):
        g = gaussian_mask(frames, d0).gains
        assert g[0] == 1.0
        assert np.all((g >= 0) & (g <= 1))
        for k in range(frames):
            assert g[k] == pytest.approx(g[(frames - k) % frames])

    @pytest.mark.parametrize("d0", [1e-155, 1e-170, 1e-300])
    def test_tiny_d0_is_dc_only_without_warnings(self, d0):
        # d0 = 1e-155 overflows the exponent; below ~1e-162 d0**2 underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = gaussian_mask(16, d0, spatial_shape=(6, 5))
        np.testing.assert_array_equal(mask.gains, np.eye(16)[0])
        np.testing.assert_array_equal(mask.spatial_gains, np.eye(30)[0].reshape(6, 5))

    def test_gains_unchanged_at_recipe_d0(self):
        d0 = 0.25
        mask = gaussian_mask(16, d0, spatial_shape=(16, 16))
        f = np.fft.fftfreq(16)
        gains = np.exp(-(f ** 2) / (2.0 * d0 ** 2))
        gains[0] = 1.0
        spatial = np.exp(-(f[:, None] ** 2 + f[None, :] ** 2) / (2.0 * d0 ** 2))
        spatial[0, 0] = 1.0
        assert mask.gains.tobytes() == gains.tobytes()
        assert mask.spatial_gains.tobytes() == spatial.tobytes()

    def test_invalid_d0(self):
        with pytest.raises(ValueError, match="invalid d0"):
            gaussian_mask(8, 0.0)
        with pytest.raises(ValueError, match="invalid d0"):
            gaussian_mask(8, -1.0)

    def test_mask_validation(self):
        with pytest.raises(ValueError, match="zero frequency"):
            LowPassMask(gains=np.array([0.5, 0.2]))
        with pytest.raises(ValueError, match="lie in"):
            LowPassMask(gains=np.array([1.0, 1.2]))
        with pytest.raises(ValueError, match="symmetric"):
            LowPassMask(gains=np.array([1.0, 0.5, 0.4, 0.6]))


class TestLpff:
    def test_matches_dft_oracle(self, rng):
        video = rng.standard_normal((8, 2, 4, 4))
        mask = gaussian_mask(8, 0.2)
        out = lpff(video, mask)
        np.testing.assert_allclose(out, dft_filter_oracle(video, mask.gains).real,
                                   rtol=1e-6, atol=1e-9)

    def test_constant_in_time_is_fixed_point(self, rng):
        frame = rng.standard_normal((1, 2, 4, 4))
        video = np.repeat(frame, 8, axis=0)
        np.testing.assert_allclose(lpff(video, gaussian_mask(8, 0.1)), video,
                                   rtol=1e-6, atol=1e-9)

    def test_all_ones_mask_is_identity(self, rng):
        video = rng.standard_normal((6, 1, 4, 4))
        np.testing.assert_allclose(lpff(video, gaussian_mask(6, math.inf)), video,
                                   rtol=1e-6, atol=1e-12)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal((6, 1, 3, 3))
        y = r.standard_normal((6, 1, 3, 3))
        mask = gaussian_mask(6, 0.3)
        np.testing.assert_allclose(
            lpff(a * x + b * y, mask),
            a * lpff(x, mask) + b * lpff(y, mask),
            rtol=1e-6, atol=1e-8,
        )

    def test_per_bin_energy_never_grows(self, rng):
        video = rng.standard_normal((8, 2, 4, 4))
        mask = gaussian_mask(8, 0.15)
        before = np.abs(np.fft.fft(video, axis=0))
        after = np.abs(np.fft.fft(lpff(video, mask), axis=0))
        assert np.all(after <= before + 1e-9)

    def test_highband_attenuation_bound(self, rng):
        # white-in-time input: output high-band energy is bounded by the
        # worst squared gain over the band
        video = rng.standard_normal((16, 1, 4, 4))
        d0 = 0.2
        mask = gaussian_mask(16, d0)
        freqs = np.fft.fftfreq(16)
        band = np.abs(freqs) > d0
        out = lpff(video, mask)
        e_in = (np.abs(np.fft.fft(video, axis=0)) ** 2)[band].sum()
        e_out = (np.abs(np.fft.fft(out, axis=0)) ** 2)[band].sum()
        gmax = mask.gains[band].max()
        assert e_out <= gmax ** 2 * e_in + 1e-6

    def test_real_output_imaginary_residual(self, rng):
        video = rng.standard_normal((8, 1, 4, 4))
        mask = gaussian_mask(8, 0.25)
        # recompute the complex path: the residual discarded by lpff
        freq = np.fft.fft(video, axis=0) * mask.gains[:, None, None, None]
        residual = np.abs(np.fft.ifft(freq, axis=0).imag).max()
        assert residual < 1e-9

    def test_spatial_temporal_matches_composed_oracle(self, rng):
        video = rng.standard_normal((4, 2, 6, 6))
        mask = gaussian_mask(4, 0.25, spatial_shape=(6, 6))
        out = lpff(video, mask)
        step1 = dft_filter_oracle(video, mask.gains).real
        freq = np.fft.fft2(step1, axes=(-2, -1)) * mask.spatial_gains
        expected = np.fft.ifft2(freq, axes=(-2, -1)).real
        np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-9)

    def test_spatial_gains_decide_the_spatial_pass(self, rng):
        # a temporal-only mask filters as the temporal stage of the
        # spatial-temporal one: the spatial pass runs iff the mask has gains.
        # The temporal stage is a circulant matrix, so it matches numpy's
        # FFT filter to rounding (1e-14 relative), and the spatial stage,
        # which is that FFT filter, matches exactly on the same input.
        video = rng.standard_normal((4, 2, 6, 6))
        temporal = gaussian_mask(4, 0.25)
        both = gaussian_mask(4, 0.25, spatial_shape=(6, 6))
        assert temporal.spatial_gains is None
        np.testing.assert_array_equal(temporal.gains, both.gains)
        out = lpff(video, temporal)
        expected = np.fft.ifft(np.fft.fft(video, axis=0)
                               * both.gains[:, None, None, None], axis=0).real
        assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()
        spatial = np.fft.ifft2(np.fft.fft2(out, axes=(-2, -1)) * both.spatial_gains,
                               axes=(-2, -1)).real
        np.testing.assert_array_equal(lpff(video, both), spatial)

    def test_spatial_mask_shape_checked_before_any_transform(self, rng, monkeypatch):
        calls = []

        def counting(fn):
            return lambda *a, **k: calls.append(fn.__name__) or fn(*a, **k)

        for name in ("fft", "ifft", "fft2", "ifft2"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        video = rng.standard_normal((4, 1, 4, 4))
        with pytest.raises(ValueError, match="spatial gains"):
            lpff(video, gaussian_mask(4, 0.2, spatial_shape=(5, 5)))
        assert calls == []
        lpff(video, gaussian_mask(4, 0.2, spatial_shape=(4, 4)))
        assert calls == ["fft", "ifft", "fft2", "ifft2"]

    def test_shape_and_axes_validation(self, rng):
        video = rng.standard_normal((4, 1, 4, 4))
        with pytest.raises(ValueError, match="mask shape mismatch"):
            lpff(video, gaussian_mask(8, 0.2))
        with pytest.raises(ValueError, match="mask shape mismatch"):
            lpff(video, gaussian_mask(4, 0.2, spatial_shape=(5, 5)))
        with pytest.raises(ValueError, match="axes"):
            check_axes(("spatial",))
