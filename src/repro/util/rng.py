"""Deterministic random-number streams.

Experiments must be exactly reproducible and, crucially, *independent
across components*: adding a jitter draw in the network model must not
shift the sequence of file names drawn by a reader node.  We therefore
give every component its own named ``numpy`` Generator, derived from the
experiment master seed via SeedSequence spawning (the recommended
collision-resistant scheme).

Components that draw one scalar per simulated event (the synthetic
readers, the workflow engine's ops loop, network jitter) take their
stream through :meth:`RngStreams.blocks` instead: a :class:`BlockStream`
returns exactly the values the scalar ``Generator`` calls would, drawn
``BLOCK_SIZE`` at a time, because one scalar numpy call costs more than
the rest of the event it decides.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Dict

import numpy as np

__all__ = ["BLOCK_SIZE", "BlockStream", "RngStreams", "derive_seed"]

#: Values a :class:`BlockStream` draws per refill.  The values it
#: serves never depend on this, only how often numpy is called.
BLOCK_SIZE = 256

_U32_MASK = 0xFFFFFFFF
_U32_RANGE = 0x100000000


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 32-bit sub-seed from a master seed and a label.

    Uses CRC32 of the label (stable across processes and Python versions,
    unlike ``hash``) folded into the master seed.
    """
    return (master_seed ^ zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF


class BlockStream:
    """Scalar draws from one generator, served from blocks drawn ahead.

    Each method returns, bit for bit, what the same call on the wrapped
    ``numpy`` Generator returns:

    - ``integers(n)`` for ``1 <= n <= 2**32`` is numpy's bounded method
      (Lemire, arXiv:1805.10941) over the generator's 32-bit stream,
      which ``integers(2**32, size=k, dtype=np.uint32)`` yields in the
      same order: ``m = u32 * n``; while ``m``'s low word is below
      ``(2**32 - n) % n``, draw again; return ``m >> 32``.  ``n == 1``
      draws nothing.
    - ``normal(loc, scale)`` is ``loc + scale * z``, with ``z`` from
      ``standard_normal``.

    The generator runs ahead of the values served, so it is never drawn
    from directly (:meth:`RngStreams.get` refuses a name handed out
    here), and a stream serves one kind of draw: the two kinds read the
    bit stream differently, so a second kind raises.
    """

    __slots__ = ("name", "_gen", "_kind", "_u32", "_z")

    def __init__(self, gen: np.random.Generator, name: str = ""):
        self.name = name
        self._gen = gen
        self._kind = None
        #: Values drawn but not yet served, the next one last.  Packed
        #: arrays, not lists: a list would allocate a block's values as
        #: objects in one burst and free them one by one, which
        #: fragments the heap (about +0.5 MB of peak RSS on the
        #: synthetic benchmark).  ``"I"`` is 32 bits wide on every
        #: platform CPython supports.
        self._u32 = array("I")
        self._z = array("d")

    def integers(self, n: int) -> int:
        """``int(generator.integers(n))`` for a Python int ``n``."""
        if not 1 < n <= _U32_RANGE:
            if n == 1:
                return 0
            if n < 1:
                raise ValueError("high <= 0")
            raise ValueError(f"integers(n) takes n <= 2**32, got {n}")
        try:
            m = self._u32.pop() * n
        except IndexError:
            m = self._refill("integers") * n
        if m & _U32_MASK < n:
            threshold = (_U32_RANGE - n) % n
            while m & _U32_MASK < threshold:
                m = (self._u32.pop() if self._u32
                     else self._refill("integers")) * n
        return m >> 32

    def normal(self, loc: float, scale: float) -> float:
        """``float(generator.normal(loc, scale))``."""
        if scale < 0:
            raise ValueError("scale < 0")
        try:
            return loc + scale * self._z.pop()
        except IndexError:
            return loc + scale * self._refill("normal")

    def _refill(self, kind: str):
        """Draw the next ``BLOCK_SIZE`` values of ``kind`` into its
        (empty) block and pop the first."""
        if kind != self._kind:
            if self._kind is not None:
                raise ValueError(
                    f"stream {self.name!r} serves {self._kind} draws; "
                    f"a {kind} draw would not match numpy's"
                )
            self._kind = kind
        if kind == "integers":
            block = self._u32
            values = self._gen.integers(
                _U32_RANGE, size=BLOCK_SIZE, dtype=np.uint32
            )
        else:
            block = self._z
            values = self._gen.standard_normal(BLOCK_SIZE)
        block.frombytes(values[::-1].tobytes())
        return block.pop()

    def __repr__(self) -> str:
        return f"<BlockStream {self.name!r} kind={self._kind}>"


class RngStreams:
    """A registry of named, independent random generators.

    >>> streams = RngStreams(seed=42)
    >>> net = streams.get("network")
    >>> reader = streams.get("reader-3")
    >>> streams.get("network") is net   # same name -> same stream
    True

    A name is handed out either raw (:meth:`get`) or as a
    :class:`BlockStream` (:meth:`blocks`), never both: a block stream's
    generator runs ahead of the values it has served.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._blocks: Dict[str, BlockStream] = {}

    def _generator(self, name: str) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(zlib.crc32(name.encode()),)
        )
        return np.random.default_rng(ss)

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        if name in self._blocks:
            raise ValueError(
                f"stream {name!r} is drawn in blocks; a raw draw would "
                "skip the values drawn ahead"
            )
        if name not in self._streams:
            self._streams[name] = self._generator(name)
        return self._streams[name]

    def blocks(self, name: str) -> BlockStream:
        """Return (creating if needed) the block stream for ``name``."""
        stream = self._blocks.get(name)
        if stream is None:
            if name in self._streams:
                raise ValueError(
                    f"stream {name!r} was handed out raw; it cannot also "
                    "be drawn in blocks"
                )
            stream = BlockStream(self._generator(name), name)
            self._blocks[name] = stream
        return stream

    def reset(self) -> None:
        """Drop all streams; subsequent ``get``/``blocks`` calls start
        fresh."""
        self._streams.clear()
        self._blocks.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._streams or name in self._blocks

    def __repr__(self) -> str:
        n = len(self._streams) + len(self._blocks)
        return f"<RngStreams seed={self.seed} streams={n}>"
