"""Summary statistics the workloads report."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def iqm(values: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of the values.

    This machine switches between speed regimes that last about a second,
    so repeated timings within a run are bimodal. The median of a bimodal
    sample jumps between modes as their mix shifts from run to run; the
    mean of the middle half moves in proportion to the mix, and still
    ignores a stall in the slowest quarter.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    quarter = len(ordered) // 4
    return float(ordered[quarter:len(ordered) - quarter].mean())
