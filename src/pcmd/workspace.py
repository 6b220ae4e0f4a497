"""Scratch memory that outlives one call.

A solver loop runs the same kernels on block after block of rows.  It takes
their working arrays from one `Workspace`, so the memory is allocated on the
first block and reused by every later one, and arrays that are never alive
at the same time share it.
"""

import contextlib
import math

import numpy as np


class Workspace:
    """float64 chunks that working arrays are taken from as from a stack.

    `take(shape)` returns an uninitialized array at the next free place: the
    rest of the current chunk if it fits there, else the start of the next
    chunk.  A chunk is allocated, or replaced by a larger one, when an array
    taken from its start does not fit.  The arrays taken inside a `frame()` are given back when it ends.
    A block's kernels take the same arrays in the same order every time, so
    after the first block every array comes from a chunk already held.
    `memory`, if given, is the first chunk.
    """

    def __init__(self, memory: np.ndarray = None):
        self._chunks = [] if memory is None else [memory]
        self._at = (0, 0)   # (chunk, offset) of the first free float

    def take(self, shape) -> np.ndarray:
        size = math.prod(shape)
        i, start = self._at
        if start and start + size > self._chunks[i].size:   # the rest of chunk i is too small
            i, start = i + 1, 0
        if i == len(self._chunks):
            self._chunks.append(np.empty(size))
        elif start == 0 and size > self._chunks[i].size:    # nothing taken from it is alive
            self._chunks[i] = np.empty(size)
        self._at = (i, start + size)
        return self._chunks[i][start:start + size].reshape(shape)

    @contextlib.contextmanager
    def frame(self):
        at = self._at
        try:
            yield
        finally:
            self._at = at
