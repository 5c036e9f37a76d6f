"""Latent tensor persistence and frame rendering.

Latent files (``.elvt``) use a fixed 32-byte header so any language can
parse them for cross-implementation checks:

    offset  size  field
    0       4     magic ``ELVT``
    4       2     format version, little-endian u16 (currently 1)
    6       16    F, C, H, W as little-endian u32
    22      10    reserved, zero

followed by ``F * C * H * W`` little-endian float32 values, frame-major.

Renders are binary PPM (P6), one image per frame, min/max normalized per
video; the normalization constants go into the run manifest. Every file
is written through ``write_atomic``, so an interrupted run leaves no torn
artifact.
"""
from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ELVT"
VERSION = 1
HEADER_SIZE = 32
_MAX_ELEMENTS = 1 << 31
# Channel counts render_frames can map to RGB.
RENDER_CHANNELS = (1, 3, 4)

# Fixed projection used to visualize 4-channel latents as RGB.
FOUR_TO_THREE = np.array(
    [
        [0.6, 0.2, 0.1, 0.1],
        [0.1, 0.6, 0.2, 0.1],
        [0.1, 0.1, 0.2, 0.6],
    ]
)


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file in ``path``'s directory, then
    rename it over ``path``; the temporary file never outlives a failure."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_latent(v: np.ndarray, path) -> None:
    """Write a latent video; float64 input is stored as float32, and an
    entry that is not finite there (beyond about 3.4e38) is refused before
    anything is written."""
    if v.ndim != 4:
        raise ValueError(f"expected (F, C, H, W) latent, got shape {v.shape}")
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(v, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise ValueError("latent entries must be finite in float32")
    header = MAGIC + struct.pack("<H4I", VERSION, *v.shape)
    header += b"\x00" * (HEADER_SIZE - len(header))
    write_atomic(path, header + data.tobytes())


def load_latent(path) -> np.ndarray:
    """Read a latent video back as float32; never returns a partial tensor."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        raise ValueError(f"truncated file: {len(raw)} bytes is smaller than the header")
    if raw[:4] != MAGIC:
        raise ValueError(f"bad magic: {raw[:4]!r}")
    version, f, c, h, w = struct.unpack("<H4I", raw[4:22])
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    if min(f, c, h, w) < 1 or f * c * h * w > _MAX_ELEMENTS:
        raise ValueError(f"shape overflow: ({f}, {c}, {h}, {w})")
    expected = HEADER_SIZE + f * c * h * w * 4
    if len(raw) != expected:
        raise ValueError(f"truncated file: {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw[HEADER_SIZE:], dtype="<f4")
    return flat.reshape(f, c, h, w)


def render_frames(v: np.ndarray, path_prefix, vmin: float | None = None,
                  vmax: float | None = None) -> list:
    """Write one P6 image per frame; returns the written paths.

    Channels: 1 is replicated to gray RGB, 3 passes through, 4 maps
    through the fixed linear projection. Normalization is per video
    (min/max over all frames) unless explicit bounds are given.
    """
    if v.ndim != 4:
        raise ValueError(f"expected (F, C, H, W) latent, got shape {v.shape}")
    f, c, h, w = v.shape
    if c not in RENDER_CHANNELS:
        raise ValueError(f"unsupported channels: {c} (need one of {RENDER_CHANNELS})")
    if c == 1:
        rgb = np.repeat(v, 3, axis=1)
    elif c == 3:
        rgb = v
    else:
        rgb = np.einsum("rc,fchw->frhw", FOUR_TO_THREE, v)
    lo = float(rgb.min()) if vmin is None else vmin
    hi = float(rgb.max()) if vmax is None else vmax
    span = hi - lo if hi > lo else 1.0
    scaled = np.clip((rgb - lo) / span * 255.0, 0.0, 255.0).astype(np.uint8)
    paths = []
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    for i in range(f):
        path = Path(f"{path_prefix}_{i:03d}.ppm")
        pixels = scaled[i].transpose(1, 2, 0)  # (H, W, 3) row-major
        write_atomic(path, header + pixels.tobytes())
        paths.append(str(path))
    return paths
