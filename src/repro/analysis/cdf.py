"""Empirical cumulative distribution functions.

All three panels of Figure 8 are CDFs; this module provides the small
amount of statistics needed to compute, query and compare them without
pulling in plotting dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical CDF over a finite sample."""

    values: Tuple[float, ...]

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "EmpiricalCDF":
        """Build a CDF from raw samples (order does not matter)."""
        return cls(values=tuple(sorted(float(s) for s in samples)))

    def __post_init__(self) -> None:
        if list(self.values) != sorted(self.values):
            raise ValueError("EmpiricalCDF values must be sorted; use from_samples()")

    @property
    def sample_count(self) -> int:
        """Return the number of samples."""
        return len(self.values)

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (0 <= q <= 1) of the sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.values:
            raise ValueError("cannot take a quantile of an empty CDF")
        return float(np.quantile(np.asarray(self.values), q))

    @property
    def median(self) -> float:
        """Return the median of the sample."""
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        """Return the mean of the sample."""
        if not self.values:
            raise ValueError("cannot take the mean of an empty CDF")
        return float(np.mean(np.asarray(self.values)))


def relative_to_baseline(
    values: Sequence[float], baseline: Sequence[float]
) -> List[float]:
    """Return element-wise ratios ``values[i] / baseline[i]``.

    Pairs where the baseline is zero or either entry is missing (``None`` or
    ``nan``) are skipped.  Used for the "latency relative to 1SP" axis of
    Figure 8a.
    """
    ratios: List[float] = []
    for value, base in zip(values, baseline):
        if value is None or base is None:
            continue
        value = float(value)
        base = float(base)
        if not np.isfinite(value) or not np.isfinite(base) or base == 0.0:
            continue
        ratios.append(value / base)
    return ratios
