"""Deterministic, named random streams.

Every stochastic decision in the simulator (network jitter, workload
inter-arrival times, Zipf draws) pulls from a stream named after its
purpose.  Streams are derived from one master seed, so adding a new
consumer never perturbs existing ones — runs stay reproducible as the
codebase evolves, which the benchmark harness depends on.
"""

from __future__ import annotations

import hashlib
import random
import typing


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: a bijective 64-bit avalanche mix.

    The kernel's perturbed tie-break key is ``_mix64(eid ^ salt)``;
    bijectivity keeps distinct eids on distinct keys, so the permuted
    order is still total and no queue entry ever compares its event.
    """
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class RngRegistry:
    """Hands out independent :class:`random.Random` streams by name."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: typing.Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created (deterministically) on demand."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of this one's."""
        digest = hashlib.sha256(f"{self.seed}:fork:{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
