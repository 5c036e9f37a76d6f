"""Scaled dot-product attention and its first-only cross-frame inflation.

Inflating a per-frame model along the temporal axis has two parts.
Convolutions inflate trivially at this scale: a 1x3x3 kernel is exactly
per-frame application of the 3x3 kernel, which a per-frame denoiser
already is, so no code is needed. Attention is the exercised mechanism:
every frame's queries attend to the keys and values of frame 0, anchoring
appearance across frames.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser
from .workspace import _scratch

# logits per query block: 256 KiB of float32 (512 KiB of float64), within a
# 2 MiB L2 cache; at the default 16x4x16x16 shape 2^16 ran fastest in float32
# with base-2 weights too, if narrowly (median 0.94 ms per call, against 1.06
# ms at 2^15 and 0.99 ms at 2^17)
_BLOCK = 1 << 16
# The limits bound logits in natural-log units. The blocks take exp2 of the
# logits times log2(e), which overflows where exp of the logits does:
# 700 log2(e) = 1009.9 < 1024 and 80 log2(e) = 115.4 < 128.
# exp(709.78) is the largest finite float64; the margin absorbs the rounding
# of the logits GEMM and of the value GEMM's sums
_EXP_LIMIT = 700.0
# the same for float32, whose exp overflows above 88.72; below it every
# weight is also at least exp(-80) = 2^-115.4 = 1.8e-35, a normal float32
_EXP_LIMIT_F32 = 80.0
_LOG2E = math.log2(math.e)
_F32_MAX = float(np.finfo(np.float32).max)

@dataclass(frozen=True)
class AttentionParams:
    """Query/key/value projection matrices, each ``width x width``."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
            if m.ndim != 2 or not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must be a finite 2-D matrix")
        # square, so attended tokens blend back into the C-wide prediction
        if not self.w_q.shape == self.w_k.shape == self.w_v.shape == self.w_q.shape[::-1]:
            raise ValueError("projection matrices must share one shape, and be square")

    @property
    def width(self) -> int:
        return self.w_q.shape[0]


def make_attention_params(width: int, seed: int = 0) -> AttentionParams:
    """Seeded random orthonormal projections; orthonormality keeps token
    scales stable in the absence of trained weights."""
    rng = np.random.default_rng(seed)
    mats = [np.linalg.qr(rng.standard_normal((width, width)))[0] for _ in range(3)]
    return AttentionParams(*mats)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``softmax(q k^T / sqrt(d)) v`` for 2-D keys and values,
    broadcast over the leading axes of ``q``.

    Query rows are taken ``_BLOCK // n_keys`` at a time, so no logits array
    larger than one block is ever held. The logits block and the value
    GEMM's output live in the calling thread's workspace, which later calls
    reuse; the returned array is always fresh. Each block is one logits
    GEMM, one in-place ``exp2`` and one value GEMM; ``v`` carries an extra
    ones column, so the value GEMM also returns each row's normalizer.
    The weights are base 2, as in FlashAttention-2: ``log2(e)`` scales the
    logits, so ``exp2`` gives ``exp``'s weights at about half its cost in
    float32. The bound and the limits stay in natural-log units, and
    ``exp2`` of a logit times ``log2(e)`` overflows where ``exp`` of the
    logit does.

    One bound picks the regime: ``max ||q|| * max ||k - mean(k)|| / sqrt(d)``
    (Cauchy-Schwarz, on every centered logit) plus ``log n_keys`` and
    ``log max|v|``. Centering shifts a query row's logits by ``q . mean(k)``,
    which softmax ignores, and leaves them averaging 0, so the row's largest
    weight, and with it its normalizer, is at least 1.

    - Below ``_EXP_LIMIT_F32`` the blocks run in float32 on the centered
      keys, at about half the float64 cost, if the queries and the scaled
      keys are finite in float32. The values are scaled by
      ``2^-e``, ``e`` the ``frexp`` exponent of ``max|v|``, and the output
      by ``2^e``: attention is linear in ``v``, so both are exact, and tiny
      values do not underflow. Outputs differ from float64's by a few
      float32 eps of ``max|v|`` that grow with the bound.
    - Below ``_EXP_LIMIT`` they run in float64 on the centered keys.
    - Otherwise a weight or a numerator could overflow: they run in float64
      on the keys as given, each row's max subtracted, as a plain softmax
      does, and only then scaled by ``log2(e)``. Overflowing centering and
      inf/NaN inputs make the bound inf or NaN, and so land here.

    The float64 regimes and the output are float64 whatever the input dtype.
    """
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    if q.ndim < 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("attention needs 2-D keys and values and queries of ndim >= 2")
    if q.shape[-1] != k.shape[1]:
        raise ValueError(f"shape mismatch: query width {q.shape[-1]} vs key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"shape mismatch: {k.shape[0]} keys vs {v.shape[0]} values")
    if k.shape[0] < 1:
        raise ValueError("need at least one key/value row")
    n_keys, d = k.shape
    rows = q.reshape(-1, d)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = k - k.mean(axis=0)
        # the squared query norms borrow the logits workspace, which no
        # block has used yet; a GEMV sums them faster than a row-wise einsum
        squares = np.multiply(rows, rows, out=_scratch("logits", rows.shape, rows.dtype))
        q_max = np.sqrt((squares @ np.ones(d)).max(initial=0.0))
        k_max = np.sqrt(np.einsum("ij,ij->i", centered, centered).max())
        bound = q_max * k_max / np.sqrt(d)
    v_max = np.abs(v).max(initial=0.0)
    bound += math.log(n_keys) + math.log(max(v_max, 1.0))
    shift = not bound < _EXP_LIMIT
    # Base-2 logits. Unshifted, log2(e) joins 1/sqrt(d) on the centered keys,
    # whose squared norms a finite bound keeps finite, so they scale finitely.
    # Keys as given may be near the float64 max: shifted, the logits are
    # scaled after the row max is subtracted. The float64 root makes the
    # keys, and so the float64 regimes, float64.
    k_scale = (1.0 if shift else _LOG2E) / np.sqrt(d)
    k_t = (k if shift else centered).T * k_scale
    dtype = block_dtype = np.result_type(rows, k_t, v)
    scale = 0
    # the row norms bound every entry, so both casts stay finite
    if bound < _EXP_LIMIT_F32 and max(q_max, k_max * k_scale) < _F32_MAX:
        block_dtype = np.float32
        scale = int(np.frexp(v_max)[1])
        v = np.ldexp(v, -scale)
        k_t = k_t.astype(block_dtype)
    v_ones = np.ones((n_keys, v.shape[1] + 1), dtype=block_dtype)
    v_ones[:, :-1] = v
    num = _scratch("num", (rows.shape[0], v_ones.shape[1]), block_dtype)
    step = max(1, _BLOCK // n_keys)
    logits = _scratch("logits", (min(step, rows.shape[0]), n_keys), block_dtype)
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        e = np.matmul(block.astype(block_dtype, copy=False), k_t, out=logits[:len(block)])
        if shift:
            e -= e.max(axis=1, keepdims=True)
            # a logit below -1.2e308 scales to -inf, whose exp2 is 0 as its exp was
            with np.errstate(over="ignore"):
                e *= _LOG2E
        np.exp2(e, out=e)
        np.matmul(e, v_ones, out=num[start:start + step])
    # one reciprocal per row, then one multiply per value column: each runs
    # along all the rows, where a row-wise broadcast would loop over v's width
    recip = np.reciprocal(num[:, -1], dtype=dtype)
    out = np.empty((rows.shape[0], v.shape[1]), dtype)
    for j in range(v.shape[1]):
        np.multiply(num[:, j], recip, out=out[:, j])
    if scale:
        np.ldexp(out, scale, out=out)
    return out.reshape(*q.shape[:-1], v.shape[1])


def first_only_cross_frame(frames: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Attend every frame's tokens to frame 0's keys and values.

    ``frames`` is an ``(F, n, width)`` stack of token matrices. Frame 0's
    output is its own self-attention.
    """
    if frames.ndim != 3 or frames.shape[0] < 1:
        raise ValueError(f"expected (F, n, width) tokens of F >= 1, got shape {frames.shape}")
    if frames.shape[2] != params.width:
        raise ValueError(f"shape mismatch: token width {frames.shape[2]} vs {params.width}")
    return attention(frames @ params.w_q, frames[0] @ params.w_k, frames[0] @ params.w_v)


class CrossFrameDenoiser:
    """Wrap a denoiser so its predictions share appearance across frames.

    The base prediction is reshaped into per-frame token matrices (one
    token per pixel, width C), passed through first-only cross-frame
    attention, and blended back: ``(1 - mix) * eps + mix * attended``.
    ``mix == 0`` returns the base prediction unchanged, bit for bit. The
    wrapper runs on its base's schedule.
    """

    def __init__(self, base: Denoiser, params: AttentionParams, mix: float):
        if not 0.0 <= mix <= 1.0:
            raise ValueError(f"mix must be in [0, 1], got {mix}")
        self.base = base
        self.schedule = base.schedule
        self.params = params
        self.mix = mix

    def predict_eps(self, z: np.ndarray, t: int) -> np.ndarray:
        eps = self.base.predict_eps(z, t)
        if self.mix == 0.0:
            return eps
        f, c, h, w = eps.shape
        tokens = eps.transpose(0, 2, 3, 1).reshape(f, h * w, c)
        attended = first_only_cross_frame(tokens, self.params)
        attended = attended.reshape(f, h, w, c).transpose(0, 3, 1, 2)
        out = np.multiply(eps, 1.0 - self.mix)
        attended *= self.mix
        out += attended
        return out
