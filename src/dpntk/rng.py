"""Deterministic, hierarchical random streams.

Every sampling operation in the package takes an explicit :class:`RngStream`.
A stream is a value, not a mutable generator: the same ``(seed, path)`` always
produces the same draw sequence, and distinct paths behave independently.

Substream derivation: each path label is hashed with SHA-256 and the first
8 bytes (little-endian) of the digest are appended, together with the root
seed, to a ``numpy.random.SeedSequence`` entropy list. The PCG64 generator
built from that sequence supplies the draws.

The entropy is handed over as the ``uint32`` words numpy itself would make of
that list of ints: each int split low word first, 0 as one zero word. Those
words must equal numpy's own coercion, since any other split seeds different
streams; the per-label words are cached, so a call converts no Python ints.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngStream"]

_SEED_MASK = (1 << 64) - 1
_WORD_MASK = (1 << 32) - 1


def _uint32_words(value: int) -> tuple[int, ...]:
    """numpy's split of a non-negative int: 32-bit words, low first; 0 is (0,)."""
    words = [value & _WORD_MASK]
    value >>= 32
    while value:
        words.append(value & _WORD_MASK)
        value >>= 32
    return tuple(words)


def _label_word(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


# Pure in the label. A verify_bounds run derives about 1,500 generators from
# under 1,000 distinct labels, the same labels for every seed.
@functools.lru_cache(maxsize=4096)
def _label_words(label: str) -> tuple[int, ...]:
    return _uint32_words(_label_word(label))


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
        words = list(_uint32_words(self.seed & _SEED_MASK))
        for lbl in self.path:
            words.extend(_label_words(lbl))
        entropy = np.array(words, dtype=np.uint32)
        return np.random.default_rng(np.random.SeedSequence(entropy))
