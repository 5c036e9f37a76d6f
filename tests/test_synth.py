import numpy as np
import pytest

from latent_elevator.synth import (
    make_gp_prior,
    sample_prior,
    spatial_frequency_grid,
    spectrum_from_kind,
)

from conftest import dense_covariance


class TestSpectra:
    def test_flat_is_ones(self):
        np.testing.assert_array_equal(spectrum_from_kind("flat", 6, 6), np.ones((6, 6)))

    def test_highband_fraction_ordering(self):
        # oracle: direct summation over the spectrum bins
        f = spatial_frequency_grid(16, 16)
        high = f > 0.25
        frac = {}
        for kind in ("lowpass", "broadband"):
            s = spectrum_from_kind(kind, 16, 16)
            frac[kind] = s[high].sum() / s.sum()
        assert frac["broadband"] > frac["lowpass"]

    def test_unit_pixel_variance_normalization(self):
        for kind in ("lowpass", "broadband", "flat"):
            assert spectrum_from_kind(kind, 8, 12).mean() == pytest.approx(1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="invalid params"):
            spectrum_from_kind("bandpass", 8, 8)


class TestPriorValidation:
    def test_bad_rho(self):
        with pytest.raises(ValueError, match="temporal_rho"):
            make_gp_prior(2, 1, 4, 4, rho=1.0)

    def test_nonpositive_spectrum(self):
        spec = np.ones((4, 4))
        spec[1, 1] = 0.0
        spec[3, 3] = 0.0  # keep S[k] == S[-k]
        with pytest.raises(ValueError, match="> 0"):
            make_gp_prior(2, 1, 4, 4, spectrum_kind=spec)

    def test_asymmetric_spectrum(self):
        spec = np.ones((4, 4))
        spec[1, 0] = 2.0
        with pytest.raises(ValueError, match="S\\[k\\]"):
            make_gp_prior(2, 1, 4, 4, spectrum_kind=spec)

    def test_mean_shape(self):
        with pytest.raises(ValueError, match="mean shape"):
            make_gp_prior(2, 1, 4, 4, mean=np.zeros((2, 1, 4, 5)))

    def test_negative_scale(self):
        with pytest.raises(ValueError, match="variance_scale"):
            make_gp_prior(2, 1, 4, 4, variance_scale=-1.0)
        with pytest.raises(ValueError, match="variance_scale"):
            make_gp_prior(2, 1, 4, 4, variance_scale=float("nan"))

    def test_infinite_scale(self):
        with pytest.raises(ValueError, match="variance_scale must be finite"):
            make_gp_prior(2, 1, 4, 4, variance_scale=float("inf"))


class TestSampling:
    def test_flat_pixel_variance_tracks_scale(self):
        # Monte-Carlo variance oracle, 500 samples
        prior = make_gp_prior(2, 1, 4, 4, spectrum_kind="flat", variance_scale=1.7)
        rng = np.random.default_rng(11)
        samples = np.stack([sample_prior(prior, rng) for _ in range(500)])
        assert samples.var() == pytest.approx(1.7, rel=0.05)

    def test_high_rho_adjacent_correlation(self):
        # AR(1) closed form: ensemble correlation of adjacent frames = rho
        prior = make_gp_prior(4, 1, 4, 4, rho=0.99, spectrum_kind="flat")
        rng = np.random.default_rng(5)
        a, b = [], []
        for _ in range(500):
            x = sample_prior(prior, rng)
            a.append(x[:-1].ravel())
            b.append(x[1:].ravel())
        corr = np.corrcoef(np.concatenate(a), np.concatenate(b))[0, 1]
        assert 0.97 <= corr <= 1.0

    def test_seeded_determinism(self):
        prior = make_gp_prior(3, 2, 4, 4, rho=0.5, spectrum_kind="broadband")
        x = sample_prior(prior, np.random.default_rng(42))
        y = sample_prior(prior, np.random.default_rng(42))
        np.testing.assert_array_equal(x, y)

    def test_zero_scale_returns_mean(self, rng):
        mean = rng.standard_normal((2, 1, 4, 4))
        prior = make_gp_prior(2, 1, 4, 4, rho=0.3, variance_scale=0.0, mean=mean)
        np.testing.assert_array_equal(sample_prior(prior, rng), mean)

    def test_covariance_matches_dense_oracle(self):
        prior = make_gp_prior(2, 1, 2, 2, rho=0.5, spectrum_kind="lowpass")
        dense = dense_covariance(prior)
        rng = np.random.default_rng(3)
        xs = np.stack([sample_prior(prior, rng).ravel() for _ in range(5000)])
        emp = np.cov(xs.T, bias=True)
        rel = np.linalg.norm(emp - dense) / np.linalg.norm(dense)
        assert rel < 0.10

    def test_per_bin_energy_matches_spectrum(self):
        # spectral shaping oracle: mean |DFT|^2 per bin == spectrum, 1000 samples
        prior = make_gp_prior(1, 1, 8, 8, spectrum_kind="broadband")
        rng = np.random.default_rng(9)
        energy = np.zeros((8, 8))
        n = 1000
        for _ in range(n):
            x = sample_prior(prior, rng)
            energy += np.abs(np.fft.fft2(x, axes=(-2, -1), norm="ortho")[0, 0]) ** 2
        np.testing.assert_allclose(energy / n, prior.spatial_spectrum, rtol=0.10)
