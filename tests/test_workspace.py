import numpy as np

from helpers import traced_peak
from pcmd.workspace import Workspace


def takes(work, sizes):
    """Take arrays of `sizes` inside one frame, fill them, and return them."""
    with work.frame():
        arrays = [work.take((n,)) for n in sizes]
        for i, arr in enumerate(arrays):
            arr.fill(i)
    return arrays


def test_live_arrays_are_disjoint_and_a_frame_gives_them_back():
    work = Workspace()
    kept = work.take((10,))
    kept.fill(-1.0)
    sizes = (30, 5, 200, 1, 40)
    inner = takes(work, sizes)
    assert np.all(kept == -1.0)
    assert all(np.all(arr == i) for i, arr in enumerate(inner))   # none overwrote another
    again = work.take((30,))
    assert np.shares_memory(again, inner[0])   # the frame's memory is taken again
    assert not np.shares_memory(again, kept)


def test_the_same_takes_again_allocate_nothing():
    work = Workspace()
    sizes = (50_000, 2_000, 80_000, 10, 50_000)
    first = traced_peak(takes, work, sizes)
    assert first >= 8 * sum(sizes)
    assert traced_peak(takes, work, sizes) < 8 * 1_000
    assert traced_peak(takes, work, sizes[:3]) < 8 * 1_000   # fewer or smaller fits too
