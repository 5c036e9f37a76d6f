"""Desk-scale two-model diffusion sampling on analytic Gaussian denoisers.

The pipeline interleaves temporal motion refining under one noise schedule
with spatial quality elevating under another, handing latents between the
two models only through clean-latent projections. Every numerical kernel
has a closed form or an independent brute-force oracle, so the whole
procedure is testable without trained weights.
"""

__version__ = "0.1.0"

from .schedule import (  # noqa: F401
    NoiseSchedule,
    TimestepGrid,
    forward_diffuse,
    make_schedule,
    select_refine_steps,
    select_timesteps,
)
from .synth import GaussianPrior, make_gp_prior, sample_prior  # noqa: F401
from .denoiser import AnalyticDenoiser, Denoiser  # noqa: F401
from .sampler import (  # noqa: F401
    ddim_invert,
    ddim_sample,
    ddim_step,
)
from .freqfilter import LowPassMask, gaussian_mask, lpff  # noqa: F401
from .attention import (  # noqa: F401
    AttentionParams,
    CrossFrameDenoiser,
    first_only_cross_frame,
    make_attention_params,
)
from .elevate import (  # noqa: F401
    ElevatorPlan,
    baseline_sample,
    elevate_sample,
    elevate_spatial,
    refine_temporal,
    trace_violations,
)
from .metrics import (  # noqa: F401
    MetricReport,
    compute_report,
    flicker_energy,
    frame_consistency,
    spatial_detail,
    spectrum_distance,
)
from .videoio import load_latent, render_frames, save_latent  # noqa: F401
from .harness import make_default_plan, resolve_config  # noqa: F401
