import threading
import warnings
from dataclasses import fields

import numpy as np
import pytest

from latent_elevator import AnalyticDenoiser, forward_diffuse, workspace
from latent_elevator.harness import build_plan, resolve_config
from latent_elevator.schedule import NoiseSchedule
from latent_elevator.synth import make_gp_prior, sample_prior, spatial_frequency_grid

from conftest import dense_covariance, recipe_denoiser


def oracle_eps(prior, z, t, s, shift=None):
    """Dense-matrix Gaussian posterior: E[z0|z_t] through an explicit solve,
    then the noise estimate via the clean projection identity."""
    ab = s.alpha_bar[t]
    m = prior.mean + (shift if shift is not None else 0.0)
    cov = dense_covariance(prior)
    n = cov.shape[0]
    resid = (z - np.sqrt(ab) * m).ravel()
    post_mean = m.ravel() + np.sqrt(ab) * (
        cov @ np.linalg.solve(ab * cov + (1 - ab) * np.eye(n), resid)
    )
    eps = (z.ravel() - np.sqrt(ab) * post_mean) / np.sqrt(1 - ab)
    return eps.reshape(z.shape)


def half_alpha_schedule():
    return NoiseSchedule(alpha_bar=np.array([1.0, 0.5]), kind="linear_beta")


def band_fraction(x, cut=0.25):
    f = spatial_frequency_grid(x.shape[2], x.shape[3])
    e = (np.abs(np.fft.fft2(x, axes=(-2, -1))) ** 2).sum(axis=(0, 1))
    return e[f > cut].sum() / e.sum()


def plan_priors(shape):
    """The video and image priors ``build_plan`` makes at ``shape``."""
    plan = build_plan(resolve_config({"shape": list(shape), "render": False}), 0)
    return plan.t2v_model.prior, plan.t2i_model.base.prior


class TestAnalyticEps:
    def test_standard_normal_closed_form(self, std_normal_prior, rng):
        # flat unit prior: eps_hat = sqrt(1 - ab) * z; at ab = 0.5 that is z / sqrt(2)
        s = half_alpha_schedule()
        z = rng.standard_normal((4, 2, 4, 4))
        out = AnalyticDenoiser(std_normal_prior, s).predict_eps(z, 1)
        np.testing.assert_allclose(out, z / np.sqrt(2), rtol=1e-12)

    @pytest.mark.parametrize(
        "shape,rho,kind",
        [
            ((2, 1, 2, 2), 0.5, "lowpass"),
            ((4, 2, 4, 4), 0.8, "broadband"),
            ((3, 1, 4, 2), 0.0, "flat"),
            # odd widths and heights: the half spectrum must keep every column
            ((3, 2, 5, 3), 0.5, "lowpass"),
            ((2, 1, 1, 7), 0.3, "broadband"),
            ((2, 2, 3, 5), 0.0, "broadband"),
        ],
    )
    def test_matches_dense_posterior_oracle(self, shape, rho, kind, sched_t2i):
        prior = make_gp_prior(*shape, rho=rho, spectrum_kind=kind, variance_scale=1.3)
        den = AnalyticDenoiser(prior, sched_t2i)
        r = np.random.default_rng(17)
        for _ in range(20):
            t = int(r.integers(1, 1001))
            z = r.standard_normal(shape)
            expected = oracle_eps(prior, z, t, sched_t2i)
            got = den.predict_eps(z, t)
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-8)

    def test_mean_shift_equivariance(self, sched_t2i, rng):
        prior = make_gp_prior(3, 2, 4, 4, rho=0.6, spectrum_kind="broadband")
        delta = rng.standard_normal(prior.shape)
        shifted = make_gp_prior(3, 2, 4, 4, rho=0.6, spectrum_kind="broadband",
                                mean=delta)
        z = rng.standard_normal(prior.shape)
        np.testing.assert_allclose(
            AnalyticDenoiser(shifted, sched_t2i).predict_eps(z, 400),
            oracle_eps(prior, z, 400, sched_t2i, shift=delta),
            rtol=1e-5, atol=1e-8,
        )

    def test_degenerate_prior_at_mean(self, sched_t2i, rng):
        mean = rng.standard_normal((2, 1, 4, 4))
        prior = make_gp_prior(2, 1, 4, 4, variance_scale=0.0, mean=mean)
        t = 300
        z = np.sqrt(sched_t2i.alpha_bar[t]) * mean
        out = AnalyticDenoiser(prior, sched_t2i).predict_eps(z, t)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_rho_zero_skips_rotation_bitwise(self, rng):
        """At rho == 0 the temporal eigenbasis is exactly the identity, so
        skipping the rotation changes no bit of the prediction."""
        den = recipe_denoiser("t2i", (4, 2, 6, 5))
        assert den.prior.temporal_rho == 0.0
        rotating = recipe_denoiser("t2i", (4, 2, 6, 5))
        rotating._u = np.eye(4)
        z = rng.standard_normal((4, 2, 6, 5))
        for t in (1, 300, 1000):
            np.testing.assert_array_equal(den.predict_eps(z, t),
                                          rotating.predict_eps(z, t))

    def test_overflowing_variance_is_warning_free(self, sched_t2i, rng):
        # the config accepts variance_scale 1e308, which overflows some
        # eigenvalues to inf; their gain is exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            den = AnalyticDenoiser(make_gp_prior(16, 4, 16, 16, 0.9, "lowpass", 1e308), sched_t2i)
            assert np.isinf(den._lam).any()
            eps = den.predict_eps(rng.standard_normal((16, 4, 16, 16)), 500)
        assert np.all(np.isfinite(eps))

    def test_mean_modes_are_frozen_and_none_for_a_zero_mean(self, sched_t2i, rng):
        assert recipe_denoiser("t2v", (4, 2, 4, 4)).mean_modes is None
        mean = rng.standard_normal((4, 2, 4, 4))
        den = AnalyticDenoiser(make_gp_prior(4, 2, 4, 4, 0.5, "lowpass", mean=mean), sched_t2i)
        np.testing.assert_array_equal(den.mean_modes, den.to_modes(mean))
        assert not den.mean_modes.flags.writeable

    def test_deterministic_bitwise(self, rng):
        den = recipe_denoiser("t2v", (4, 2, 4, 4))
        z = rng.standard_normal((4, 2, 4, 4))
        a = den.predict_eps(z, 500)
        b = den.predict_eps(z, 500)
        np.testing.assert_array_equal(a, b)
        assert a.shape == z.shape

    def test_validation(self):
        den = recipe_denoiser("t2i", (2, 1, 4, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            den.predict_eps(np.zeros((2, 1, 4, 5)), 10)
        with pytest.raises(ValueError, match="timestep out of range"):
            den.predict_eps(np.zeros((2, 1, 4, 4)), 0)

    def test_bayes_optimality_margin(self, sched_t2i):
        """Mean squared noise-prediction error of the exact posterior is
        minimal among {analytic, zero, identity} at every tested t, with a
        5% margin at mid-chain t. The margin necessarily vanishes at high
        t, where z_t is almost pure noise and the identity predictor
        converges to the Bayes-optimal one.

        Samples are folded into the channel axis (channels are independent
        and identically distributed under these priors)."""
        n_samples = 2000
        base_c = 2
        prior = make_gp_prior(2, base_c * n_samples, 4, 4, rho=0.8,
                              spectrum_kind="broadband")
        den = AnalyticDenoiser(prior, sched_t2i)
        rng = np.random.default_rng(23)
        z0 = sample_prior(prior, rng)
        for t in (100, 250, 500, 750, 900):
            eps = rng.standard_normal(z0.shape)
            z_t = forward_diffuse(z0, t, eps, sched_t2i)
            mse = lambda pred: float(np.mean((eps - pred) ** 2))
            analytic = mse(den.predict_eps(z_t, t))
            others = min(mse(np.zeros_like(eps)), mse(z_t))
            assert analytic < others, (t, analytic, others)
            if t <= 500:
                assert analytic <= 0.95 * others, (t, analytic, others)


def strided_modes(den, v):
    """``to_modes`` as numpy's half-spectrum FFT pair, the H pass along the
    strided axis, then laid out (F, C, W // 2 + 1, H) and rotated over
    frames as one real GEMM on the interleaved float64 view."""
    spec = np.fft.fft(np.fft.rfft(v, axis=-1, norm="ortho"), axis=-2, norm="ortho")
    spec = np.ascontiguousarray(spec.swapaxes(2, 3))
    if den._u is None:
        return spec
    flat = spec.view(np.float64).reshape(spec.shape[0], -1)
    return (den._u.T @ flat).reshape(spec.shape[:-1] + (-1,)).view(np.complex128)


def strided_half(den, m):
    """The half spectrum over W that ``strided_latent`` hands to ``irfft``."""
    if den._u is not None:
        flat = np.ascontiguousarray(m).view(np.float64).reshape(m.shape[0], -1)
        m = (den._u @ flat).reshape(m.shape[:-1] + (-1,)).view(np.complex128)
    return np.fft.ifft(m.swapaxes(2, 3), axis=-2, norm="ortho")


def strided_latent(den, m):
    """``from_modes`` as the matching inverse of ``strided_modes``."""
    return np.fft.irfft(strided_half(den, m), n=den.prior.shape[3], axis=-1, norm="ortho")


def assert_rel_close(got, expected, bound=1e-14):
    """Largest entry error at most ``bound`` of the largest reference entry:
    the DFT matrices and numpy's FFT round differently, by a few ulps."""
    err = np.abs(got - expected).max() / np.abs(expected).max()
    assert err <= bound, err


def workspace_buffers() -> list:
    return list(vars(workspace._workspace).values())


# even and odd frame sides, square and not, and the smallest 2 x 2 frame
LAYOUT_SHAPES = {
    "even_w": (4, 2, 6, 8),
    "odd_w": (3, 2, 5, 7),
    "odd_h_even_w": (3, 1, 7, 4),
    "even_h_odd_w": (2, 2, 4, 5),
    "square": (2, 1, 16, 16),
    "2x2": (3, 2, 2, 2),
}


class TestModeLayout:
    """The transform pair runs each DFT pass as a real GEMM along a
    contiguous axis through the thread's workspace; it must match numpy's
    strided FFT passes to rounding and never hand out workspace memory."""

    @pytest.mark.parametrize("shape", LAYOUT_SHAPES.values(), ids=LAYOUT_SHAPES.keys())
    @pytest.mark.parametrize("rho", [0.0, 0.9])
    def test_equals_strided_passes_bitwise(self, shape, rho, sched_t2i, rng):
        """Named for the bit-for-bit match it checked while the pair ran
        numpy's own FFT passes; the DFT matrices agree to 1e-14 relative."""
        mean = rng.standard_normal(shape)
        den = AnalyticDenoiser(make_gp_prior(*shape, rho, "lowpass", mean=mean), sched_t2i)
        assert (den._u is None) == (rho == 0.0)
        v = rng.standard_normal(shape)
        modes = den.to_modes(v)
        assert modes.shape == (shape[0], shape[1], shape[3] // 2 + 1, shape[2])
        assert_rel_close(modes, strided_modes(den, v))
        assert_rel_close(den.mean_modes, strided_modes(den, mean))
        assert_rel_close(den.from_modes(modes), strided_latent(den, modes))
        ab = sched_t2i.alpha_bar[400]
        eps = (strided_modes(den, v) - np.sqrt(ab) * strided_modes(den, mean)) * den.eps_gain(ab)
        assert_rel_close(den.predict_eps(v, 400), strided_latent(den, eps))

    @pytest.mark.parametrize("shape", LAYOUT_SHAPES.values(), ids=LAYOUT_SHAPES.keys())
    @pytest.mark.parametrize("rho", [0.0, 0.9])
    def test_self_conjugate_modes_of_a_real_latent_are_real(self, shape, rho, sched_t2i, rng):
        """The modes at W frequency 0 (and W / 2 for an even W) and H
        frequency 0 (and H / 2 for an even H) equal their own conjugates, so
        for a real latent their imaginary parts are exactly 0: the sines at
        those angles are exact zeros, not rounded ones."""
        den = AnalyticDenoiser(make_gp_prior(*shape, rho, "lowpass"), sched_t2i)
        F, C, H, W = shape
        modes = den.to_modes(rng.standard_normal(shape))
        for kw in {0, W // 2} if W % 2 == 0 else {0}:
            for kh in {0, H // 2} if H % 2 == 0 else {0}:
                np.testing.assert_array_equal(modes[:, :, kw, kh].imag, 0.0)

    @pytest.mark.parametrize("shape", LAYOUT_SHAPES.values(), ids=LAYOUT_SHAPES.keys())
    @pytest.mark.parametrize("rho", [0.0, 0.9])
    def test_from_modes_ignores_imaginary_dc_and_nyquist_like_irfft(self, shape, rho,
                                                                    sched_t2i, rng):
        """Modes of no real latent: after the H pass their W frequency 0
        (and W / 2 for an even W) hold nonzero imaginary parts, which
        ``irfft`` drops, and so must ``from_modes``."""
        den = AnalyticDenoiser(make_gp_prior(*shape, rho, "lowpass"), sched_t2i)
        m = rng.standard_normal(den._modes_shape + (2,)) @ np.array([1.0, 1j])
        W = shape[3]
        dropped = strided_half(den, m)[..., [0, W // 2] if W % 2 == 0 else [0]].imag
        assert np.all(dropped != 0)
        assert_rel_close(den.from_modes(m), strided_latent(den, m))

    def test_no_fft_call_and_read_only_matrices(self, sched_t2i, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("AnalyticDenoiser called numpy's FFT")

        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2"):
            monkeypatch.setattr(np.fft, name, refuse)
        shape = (4, 2, 6, 5)
        den = AnalyticDenoiser(
            make_gp_prior(*shape, 0.9, "lowpass", mean=rng.standard_normal(shape)), sched_t2i)
        den.from_modes(den.to_modes(den.predict_eps(rng.standard_normal(shape), 400)))
        for matrix in (den._rdft_w, den._irdft_w, den._dft_h, den._idft_h):
            assert not matrix.flags.writeable

    @pytest.mark.parametrize("rho", [0.0, 0.9])
    def test_returns_fresh_arrays(self, rho, sched_t2i, rng):
        den = AnalyticDenoiser(make_gp_prior(4, 2, 6, 5, rho, "lowpass"), sched_t2i)
        v, w = rng.standard_normal((2, 4, 2, 6, 5))
        modes, latent = den.to_modes(v), den.from_modes(den.to_modes(v))
        eps = den.predict_eps(v, 400)
        kept = [a.copy() for a in (modes, latent, eps)]
        den.predict_eps(w, 700)
        den.from_modes(den.to_modes(w))
        for got, expected in zip((modes, latent, eps), kept):
            np.testing.assert_array_equal(got, expected)
            assert not any(np.shares_memory(got, buf) for buf in workspace_buffers())

    def test_threads_never_share_a_workspace_buffer(self, rng):
        den = recipe_denoiser("t2v", (4, 2, 6, 5))
        v = rng.standard_normal((4, 2, 6, 5))
        barrier = threading.Barrier(2)
        buffers, results = {}, {}

        def work(name):
            results[name] = den.from_modes(den.to_modes(v))
            buffers[name] = workspace_buffers()
            barrier.wait(timeout=30)  # both threads, and so their workspaces, are alive

        threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert buffers["a"] and buffers["b"]
        assert not any(np.shares_memory(x, y) for x in buffers["a"] for y in buffers["b"])
        np.testing.assert_array_equal(results["a"], results["b"])
        np.testing.assert_array_equal(results["a"], den.from_modes(den.to_modes(v)))


class TestGuidance:
    def test_extrapolation(self, sched_t2i, rng):
        """Classifier-free guidance needs no code of its own: blending two
        predictions at weight w gives the prediction of the prior whose
        mean is the same blend of the two means."""
        shape = (3, 2, 4, 4)
        m0, m1 = rng.standard_normal(shape), rng.standard_normal(shape)

        def denoiser(mean):
            return AnalyticDenoiser(
                make_gp_prior(*shape, rho=0.6, spectrum_kind="broadband", mean=mean), sched_t2i)

        z = rng.standard_normal(shape)
        for t in (100, 400, 900):
            eps0 = denoiser(m0).predict_eps(z, t)
            eps1 = denoiser(m1).predict_eps(z, t)
            for w in (0.0, 1.0, 3.0):
                np.testing.assert_allclose(
                    eps0 + w * (eps1 - eps0),
                    denoiser(m0 + w * (m1 - m0)).predict_eps(z, t),
                    rtol=1e-12, atol=1e-12,
                )


class TestToyModels:
    def test_recipe_helper_matches_build_plan(self):
        plan = build_plan(resolve_config({"shape": [4, 2, 8, 8], "render": False}), 0)
        for which, expected in (("t2v", plan.t2v_model), ("t2i", plan.t2i_model.base)):
            den = recipe_denoiser(which, (4, 2, 8, 8))
            for f in fields(den.prior):
                np.testing.assert_array_equal(getattr(den.prior, f.name),
                                              getattr(expected.prior, f.name))
            assert den.schedule.kind == expected.schedule.kind
            np.testing.assert_array_equal(den.schedule.alpha_bar, expected.schedule.alpha_bar)

    def test_t2v_prior_frame_correlation(self):
        prior, _ = plan_priors((4, 1, 4, 4))
        assert prior.temporal_rho == 0.9
        rng = np.random.default_rng(2)
        a, b = [], []
        for _ in range(1000):
            x = sample_prior(prior, rng)
            a.append(x[:-1].ravel())
            b.append(x[1:].ravel())
        corr = np.corrcoef(np.concatenate(a), np.concatenate(b))[0, 1]
        assert corr == pytest.approx(0.9, abs=0.02)

    def test_rho_zero_independent_frames(self):
        _, prior = plan_priors((4, 1, 4, 4))
        assert prior.temporal_rho == 0.0
        rng = np.random.default_rng(2)
        a, b = [], []
        for _ in range(1000):
            x = sample_prior(prior, rng)
            a.append(x[:-1].ravel())
            b.append(x[1:].ravel())
        corr = np.corrcoef(np.concatenate(a), np.concatenate(b))[0, 1]
        assert abs(corr) < 0.03

    def test_t2i_has_more_highband_energy(self):
        # band-energy oracle over 200 samples of each prior
        t2v, t2i = plan_priors((4, 2, 8, 8))
        rng = np.random.default_rng(6)
        hv = np.median([band_fraction(sample_prior(t2v, rng)) for _ in range(200)])
        hi = np.median([band_fraction(sample_prior(t2i, rng)) for _ in range(200)])
        assert hi > hv

    def test_flat_spectrum_band_energy_matches_bin_fraction(self):
        prior = make_gp_prior(2, 2, 8, 8, spectrum_kind="flat")
        rng = np.random.default_rng(8)
        fracs = [band_fraction(sample_prior(prior, rng)) for _ in range(200)]
        f = spatial_frequency_grid(8, 8)
        assert np.mean(fracs) == pytest.approx((f > 0.25).mean(), rel=0.1)

    def test_single_frame_equals_spatial_field(self):
        den = recipe_denoiser("t2i", (1, 1, 8, 8))
        rng = np.random.default_rng(4)
        x = sample_prior(den.prior, rng)
        # same draw shaped directly by the spatial factor alone
        rng2 = np.random.default_rng(4)
        eps = rng2.standard_normal((1, 1, 8, 8))
        freq = np.fft.fft2(eps, axes=(-2, -1), norm="ortho")
        shaped = np.fft.ifft2(freq * np.sqrt(den.prior.spatial_spectrum),
                              axes=(-2, -1), norm="ortho").real
        np.testing.assert_allclose(x, shaped, rtol=1e-12)
