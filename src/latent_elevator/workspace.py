"""Per-thread scratch buffers, kept across calls.

A step's intermediates are a few hundred KiB each. Fresh ones per call
would be freed at the top of glibc's heap, handed back to the kernel with
it, and faulted in again page by page on the next call, at about 3 us per
fault. Each thread instead keeps one buffer per name, grown to the largest
size asked for; a caller owns a buffer's contents only until its next
request for the same name on the same thread, so nothing it returns may be
a view of one. The buffer "latent" is shared by leaf computations that
request it and are done with it before they call anything else that may:
a step's noise term and a trace record's deviations.
"""
from __future__ import annotations

import math
import threading

import numpy as np

_workspace = threading.local()


def _scratch(name: str, shape: tuple, dtype) -> np.ndarray:
    """A ``shape`` array on this thread's workspace buffer ``name``."""
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.uint8)
        setattr(_workspace, name, buf)
    return buf[:size].view(dtype).reshape(shape)
