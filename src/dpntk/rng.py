"""Deterministic, hierarchical random streams.

Every sampling operation in the package takes an explicit :class:`RngStream`.
A stream is a value, not a mutable generator: the same ``(seed, path)`` always
produces the same draw sequence, and distinct paths behave independently.

Substream derivation: each path label is hashed with SHA-256 and the first
8 bytes (little-endian) of the digest are appended, together with the root
seed, to a ``numpy.random.SeedSequence`` entropy list. The PCG64 generator
built from that sequence supplies the draws.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngStream", "substream"]

_SEED_MASK = (1 << 64) - 1


# Pure in the label. A verify_bounds run derives about 1,500 generators from
# under 1,000 distinct labels, the same labels for every seed.
@functools.lru_cache(maxsize=4096)
def _label_word(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for a reproducible random substream.

    Attributes:
        seed: root 64-bit seed shared by the whole experiment.
        path: sequence of labels identifying this substream.
    """

    seed: int
    path: tuple[str, ...] = field(default_factory=tuple)

    def substream(self, label: str) -> "RngStream":
        """Derive a child stream. Distinct labels give independent streams."""
        return RngStream(self.seed, self.path + (str(label),))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; every call replays the same draws."""
        entropy = [self.seed & _SEED_MASK] + [_label_word(lbl) for lbl in self.path]
        return np.random.default_rng(np.random.SeedSequence(entropy))


def substream(rng: RngStream, label: str) -> RngStream:
    """Functional alias for :meth:`RngStream.substream`."""
    return rng.substream(label)
