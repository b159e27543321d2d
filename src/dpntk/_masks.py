"""The cached triangle mask that ``linalg``, ``privacy`` and the LAPACK
binding index with."""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=32)
def strict_lower_mask(n: int) -> np.ndarray:
    """Read-only (n, n) mask, True strictly below the diagonal."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask
