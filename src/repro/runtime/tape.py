"""Bit tapes — the explicit randomness model.

A :class:`BitSource` hands a node its random bits round by round.  Three
implementations cover the reproduction's needs:

* :class:`RandomTape` — a seeded pseudo-random source for genuine
  randomized executions.
* :class:`FixedTape` — replays a predetermined bitstring; running every
  node from a fixed tape is exactly the paper's "simulation induced by
  the assignment b" (Section 2.2).
* :class:`RecordingTape` — wraps another source and records what was
  drawn, so a random execution can be replayed or lifted later.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.exceptions import SimulationError


def random_bits(rng: random.Random, count: int) -> str:
    """``count`` bits of ``rng`` as a string over ``{'0','1'}``: one
    ``getrandbits(1)`` per bit, in draw order, so the string and the
    generator's state afterwards are those of drawing bit by bit."""
    getrandbits = rng.getrandbits
    if count == 1:
        return "01"[getrandbits(1)]
    return "".join(["01"[getrandbits(1)] for _ in range(count)])


class BitSource(ABC):
    """Supplier of random bits for one node."""

    @abstractmethod
    def draw(self, count: int) -> str:
        """The next ``count`` bits as a string over ``{'0','1'}``."""

    @abstractmethod
    def remaining(self, count: int) -> bool:
        """Whether ``count`` more bits are available."""


class RandomTape(BitSource):
    """Unbounded seeded random bits."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def draw(self, count: int) -> str:
        if count < 0:
            raise SimulationError(f"cannot draw {count} bits")
        return random_bits(self._rng, count)

    def remaining(self, count: int) -> bool:
        return True


class FixedTape(BitSource):
    """Replays a fixed bitstring; exhausting it ends the simulation."""

    def __init__(self, bits: str) -> None:
        if bits.strip("01"):
            raise SimulationError(f"bitstring may contain only 0/1, got {bits!r}")
        self._bits = bits
        self._position = 0

    def draw(self, count: int) -> str:
        start = self._position
        end = start + count
        if end > len(self._bits):
            raise SimulationError(
                f"tape exhausted: needed {count} bits at position {start} "
                f"of {len(self._bits)}"
            )
        self._position = end
        return self._bits[start:end]

    def remaining(self, count: int) -> bool:
        return self._position + count <= len(self._bits)

    @property
    def consumed(self) -> int:
        return self._position


class RecordingTape(BitSource):
    """Wraps a source and records every bit drawn."""

    def __init__(self, inner: BitSource) -> None:
        self._inner = inner
        self._record: list[str] = []

    def draw(self, count: int) -> str:
        chunk = self._inner.draw(count)
        self._record.append(chunk)
        return chunk

    def remaining(self, count: int) -> bool:
        return self._inner.remaining(count)

    @property
    def recorded(self) -> str:
        return "".join(self._record)
