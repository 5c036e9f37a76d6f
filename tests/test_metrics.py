import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latent_elevator import (
    MetricReport,
    compute_report,
    flicker_energy,
    frame_consistency,
    gaussian_mask,
    lpff,
    spatial_detail,
    spectrum_distance,
)
from latent_elevator import metrics
from latent_elevator.metrics import DETAIL_BAND, FLICKER_CUTOFF
from latent_elevator.synth import make_gp_prior, sample_prior, spatial_frequency_grid


class TestFrameConsistency:
    def test_identical_frames(self, rng):
        frame = rng.standard_normal((1, 2, 4, 4))
        assert frame_consistency(np.repeat(frame, 5, axis=0)) == pytest.approx(1.0)

    def test_antipodal_frames(self, rng):
        frame = rng.standard_normal((1, 1, 4, 4))
        video = np.concatenate([frame, -frame, frame], axis=0)
        assert frame_consistency(video) == pytest.approx(-1.0)

    def test_three_frame_hand_case(self):
        # dot-product oracle computed inline
        f0 = np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 1, 2, 2)
        f1 = np.array([1.0, 1.0, 0.0, 0.0]).reshape(1, 1, 2, 2)
        f2 = np.array([0.0, 1.0, 0.0, 0.0]).reshape(1, 1, 2, 2)
        video = np.concatenate([f0, f1, f2], axis=0)
        expected = 0.5 * (1 / np.sqrt(2) + 1 / np.sqrt(2))
        assert frame_consistency(video) == pytest.approx(expected, abs=1e-9)

    def test_errors(self, rng):
        with pytest.raises(ValueError, match="too few frames"):
            frame_consistency(rng.standard_normal((1, 1, 4, 4)))
        video = rng.standard_normal((3, 1, 4, 4))
        video[1] = 0.0
        with pytest.raises(ValueError, match="zero frame"):
            frame_consistency(video)

    @given(seed=st.integers(0, 2**31), scale=st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_per_frame_scale_invariance(self, seed, scale):
        r = np.random.default_rng(seed)
        video = r.standard_normal((4, 1, 3, 3))
        scales = r.uniform(0.1, 10.0, size=(4, 1, 1, 1)) * scale
        assert frame_consistency(video * scales) == pytest.approx(
            frame_consistency(video), rel=1e-9
        )


class TestFlickerEnergy:
    def test_constant_video(self, rng):
        frame = rng.standard_normal((1, 1, 4, 4))
        assert flicker_energy(np.repeat(frame, 8, axis=0), 0.25) == pytest.approx(0.0)

    def test_alternating_frames(self):
        video = np.ones((8, 1, 2, 2))
        video[1::2] = -1.0
        assert flicker_energy(video, 0.25) == pytest.approx(1.0)
        assert flicker_energy(video, 0.49) == pytest.approx(1.0)

    def test_white_in_time_matches_bin_fraction(self):
        # expectation oracle: energy fraction equals the bin-count fraction
        f = 16
        expected = (np.abs(np.fft.fftfreq(f)) > 0.25).mean()
        r = np.random.default_rng(3)
        values = [flicker_energy(r.standard_normal((f, 1, 3, 3)), 0.25)
                  for _ in range(100)]
        assert np.mean(values) == pytest.approx(expected, rel=0.10)

    def test_degenerate_input(self):
        with pytest.raises(ValueError, match="degenerate"):
            flicker_energy(np.zeros((4, 1, 2, 2)), 0.25)

    @given(d0=st.floats(0.05, 0.45), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_lpff_never_increases_flicker(self, d0, seed):
        video = np.random.default_rng(seed).standard_normal((8, 1, 3, 3))
        mask = gaussian_mask(8, d0)
        assert flicker_energy(lpff(video, mask), d0) <= flicker_energy(video, d0) + 1e-9


class TestSpatialDetail:
    def test_constant_frames(self):
        assert spatial_detail(np.ones((2, 1, 4, 4)), 0.25) == pytest.approx(0.0)

    def test_checkerboard(self):
        y, x = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        board = ((-1.0) ** (y + x)).reshape(1, 1, 4, 4)
        video = np.repeat(board, 2, axis=0)
        assert spatial_detail(video, 0.25) == pytest.approx(1.0)

    def test_lowpass_below_broadband(self):
        lo = make_gp_prior(2, 1, 16, 16, spectrum_kind="lowpass")
        hi = make_gp_prior(2, 1, 16, 16, spectrum_kind="broadband")
        r = np.random.default_rng(4)
        lo_scores = [spatial_detail(sample_prior(lo, r)) for _ in range(100)]
        hi_scores = [spatial_detail(sample_prior(hi, r)) for _ in range(100)]
        assert np.median(lo_scores) < np.median(hi_scores)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            spatial_detail(np.zeros((2, 1, 4, 4)))


class TestSpectrumDistance:
    def test_sample_from_own_prior_is_close(self):
        prior = make_gp_prior(16, 4, 16, 16, rho=0.0, spectrum_kind="broadband")
        r = np.random.default_rng(1)
        dists = [spectrum_distance(sample_prior(prior, r), prior) for _ in range(100)]
        assert np.median(dists) < 0.15

    def test_other_prior_is_farther(self):
        t2i = make_gp_prior(16, 4, 16, 16, rho=0.0, spectrum_kind="broadband")
        t2v = make_gp_prior(16, 4, 16, 16, rho=0.9, spectrum_kind="lowpass")
        r = np.random.default_rng(1)
        own = np.median([spectrum_distance(sample_prior(t2i, r), t2i)
                         for _ in range(100)])
        other = np.median([spectrum_distance(sample_prior(t2v, r), t2i)
                           for _ in range(100)])
        assert other > own

    def test_exact_spectrum_gives_zero(self):
        # a real field with DFT coefficients sqrt(S): S is symmetric, so the
        # inverse transform is real and the per-bin energy is exactly S
        prior = make_gp_prior(1, 1, 8, 8, spectrum_kind="broadband")
        field = np.fft.ifft2(np.sqrt(prior.spatial_spectrum), norm="ortho")
        assert np.abs(field.imag).max() < 1e-12
        video = field.real[None, None]  # (1, 1, 8, 8)
        assert spectrum_distance(video, prior) == pytest.approx(0.0, abs=1e-9)

    def test_shape_mismatch(self, rng):
        prior = make_gp_prior(2, 1, 8, 8, spectrum_kind="flat")
        with pytest.raises(ValueError, match="shape mismatch"):
            spectrum_distance(rng.standard_normal((2, 1, 4, 4)), prior)

    def test_metrics_do_not_mutate_input(self, rng):
        video = rng.standard_normal((4, 1, 8, 8))
        copy = video.copy()
        prior = make_gp_prior(4, 1, 8, 8, spectrum_kind="flat")
        frame_consistency(video)
        flicker_energy(video, 0.2)
        spatial_detail(video, 0.2)
        spectrum_distance(video, prior)
        np.testing.assert_array_equal(video, copy)


class TestThresholds:
    """The fixed thresholds measure something at the smallest accepted
    shapes, F in {2, 3} and H, W in {2, 3}: DC lies below each (a metric
    counts only bins above its threshold) and at least one bin above."""

    SHAPES = [(f, 1, h, w) for f in (2, 3) for h in (2, 3) for w in (2, 3)]

    def test_band_must_exclude_dc_and_keep_a_bin(self):
        for f, _, h, w in self.SHAPES:
            temporal = np.abs(np.fft.fftfreq(f))
            assert temporal[0] == 0 <= FLICKER_CUTOFF < temporal.max()
            spatial = spatial_frequency_grid(h, w)
            assert spatial[0, 0] == 0 <= DETAIL_BAND < spatial.max()

    def test_accepted_extremes_measure_a_band(self, rng):
        for shape in self.SHAPES:
            video = rng.standard_normal(shape)
            assert 0 < flicker_energy(video) < 1
            assert 0 < spatial_detail(video) < 1


class TestReport:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            MetricReport(
                frame_consistency=float("nan"),
                flicker_energy=0.0,
                spatial_detail=0.0,
                spectrum_distance_t2i=0.0,
                spectrum_distance_t2v=0.0,
            )

    def test_field_names_stable(self):
        assert MetricReport.field_names() == [
            "frame_consistency",
            "flicker_energy",
            "spatial_detail",
            "spectrum_distance_t2i",
            "spectrum_distance_t2v",
        ]

    @pytest.mark.parametrize("shape", [(4, 2, 6, 8), (3, 3, 5, 7), (16, 4, 16, 16)])
    def test_one_half_spectrum_matches_full_spectrum_definitions(self, shape, rng):
        """``compute_report`` mirrors one ``rfft2`` half spectrum where the
        metrics are defined on the full 2-D DFT of each frame."""
        v = rng.standard_normal(shape)
        t2v = make_gp_prior(*shape, rho=0.9, spectrum_kind="lowpass")
        t2i = make_gp_prior(*shape, rho=0.0, spectrum_kind="broadband")
        report = compute_report(v, t2v, t2i)
        energy = (np.abs(np.fft.fft2(v, axes=(-2, -1))) ** 2).sum(axis=1)
        # the metrics below are blind to a mirror that flips rows wrongly:
        # their masks and spectra are symmetric under k -> -k
        np.testing.assert_allclose(metrics._bin_energy(v), energy, rtol=1e-12)
        high = spatial_frequency_grid(*shape[2:]) > 0.10
        detail = np.mean(energy[:, high].sum(axis=1) / energy.sum(axis=(1, 2)))
        pooled = energy.sum(axis=0) / energy.sum()

        def distance(prior):
            spec = prior.spatial_spectrum
            return np.abs(pooled - spec / spec.sum()).sum()

        expected = {"frame_consistency": frame_consistency(v),
                    "flicker_energy": flicker_energy(v, 0.15),
                    "spatial_detail": detail,
                    "spectrum_distance_t2i": distance(t2i),
                    "spectrum_distance_t2v": distance(t2v)}
        for name, value in report.to_dict().items():
            assert abs(value - expected[name]) <= 1e-12 * abs(expected[name]), name
        assert report.spatial_detail == spatial_detail(v)
        assert report.spectrum_distance_t2i == spectrum_distance(v, t2i)


class TestScaleFree:
    """Every metric is taken on its input rescaled by a power of two, which
    is exact: a power-of-two multiple of a latent measures bit for bit the
    same, even where its raw sums of squares would underflow or overflow."""

    SHAPE = (16, 4, 16, 16)

    @pytest.fixture(scope="class")
    def latent(self):
        return np.random.default_rng(5).standard_normal(self.SHAPE)

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_report_is_bit_identical_under_power_of_two_scaling(self, latent, k):
        t2v = make_gp_prior(*self.SHAPE, rho=0.9, spectrum_kind="lowpass")
        t2i = make_gp_prior(*self.SHAPE, rho=0.0, spectrum_kind="broadband")
        assert compute_report(np.ldexp(latent, k), t2v, t2i) == compute_report(latent, t2v, t2i)

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_public_metrics_are_bit_identical(self, latent, k):
        prior = make_gp_prior(*self.SHAPE, rho=0.0, spectrum_kind="broadband")
        scaled = np.ldexp(latent, k)
        for metric in (frame_consistency, flicker_energy, spatial_detail):
            assert metric(scaled) == metric(latent), metric.__name__
        assert spectrum_distance(scaled, prior) == spectrum_distance(latent, prior)

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_relative_error_is_bit_identical(self, latent, k):
        """The round trip's relative error scales both arrays by the
        reference's power of two, and matches the plain norm ratio."""
        other = latent + 1e-3 * np.random.default_rng(6).standard_normal(self.SHAPE)
        err = metrics._relative_error(other, latent)
        assert metrics._relative_error(np.ldexp(other, k), np.ldexp(latent, k)) == err
        plain = np.linalg.norm(other - latent) / np.linalg.norm(latent)
        assert abs(err - plain) <= 1e-14 * plain
