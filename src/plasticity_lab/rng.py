"""Seeded, splittable random number streams.

Every source of randomness in an experiment (network init, task
permutations, label draws, batch shuffling, perturbation noise) hangs off
one run seed through labelled substreams. Streams are backed by the
counter-based Philox generator; a child stream's key is derived by hashing
(seed, *labels), so children with distinct labels never share state and the
same (seed, labels) always reproduces the same sequence, on any platform.
Only `RngStream` turns Philox output into a distribution: init, resampled
anchors, perturbation noise and neuron resets all draw through `uniform`,
whose one formula scales Philox's [0, 1) doubles by hi - lo, then adds lo.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStream:
    """A deterministic random stream identified by a seed and a label path."""

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self.path = _path
        digest = hashlib.sha256(repr((self.seed,) + self.path).encode("utf-8")).digest()
        # Philox4x64 takes a 128-bit key; byte order pinned for portability.
        key = np.array(
            [int.from_bytes(digest[0:8], "little"), int.from_bytes(digest[8:16], "little")],
            dtype=np.uint64,
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, *labels: str | int) -> "RngStream":
        """Create an independent child stream keyed by `labels`.

        Splitting does not advance or depend on this stream's draw state,
        so `split` is pure: equal labels give equal child sequences.
        """
        if not labels:
            raise ValueError("split() requires at least one label")
        return RngStream(self.seed, self.path + tuple(labels))

    # -- draws (each advances this stream's state deterministically) --

    def uniform(self, lo: float, hi: float, shape=None, out=None) -> np.ndarray | float:
        """I.i.d. float64 draws from [lo, hi); a float when `shape` is None. With `out`,
        a contiguous float64 array, they fill it in place, with the same bits."""
        if not lo < hi:
            raise ValueError(f"uniform bounds require lo < hi, got lo={lo!r}, hi={hi!r}")
        out = self._gen.random(shape) if out is None else self._gen.random(out=out)
        out *= hi - lo
        out += lo
        return out

    def integers(self, lo: int, hi: int, shape=None) -> np.ndarray | int:
        """Uniform integers in [lo, hi)."""
        return self._gen.integers(lo, hi, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
