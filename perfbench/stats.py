"""Summary statistics and failure accounting for the benchmark."""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Order statistics of one sample, always carrying its size."""

    count: int
    p50: float
    p95: float
    p99: float
    max: float
    #: Samples strictly above the reported p99 (the guide's "at least ten
    #: samples beyond the tail percentile" rule needs count >= 1000).
    beyond_p99: int


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even sizes) of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def summarize(values: Sequence[float]) -> Summary:
    """Median, nearest-rank p95 and p99, and max of ``values``, with the
    count."""
    p99 = percentile(values, 0.99)
    return Summary(
        count=len(values),
        p50=median(values),
        p95=percentile(values, 0.95),
        p99=p99,
        max=float(max(values)),
        beyond_p99=sum(1 for v in values if v > p99),
    )


@dataclass
class Tally:
    """Attempted and failed operations of one run.

    A failure is an exception, a non-200 response or a failed output
    check; each is recorded with a one-line reason for the run's report.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        """Count one operation that succeeded."""
        self.attempted += 1

    def fail(self, reason: str) -> None:
        """Count one operation that failed, remembering why."""
        self.attempted += 1
        self.failed += 1
        self.reasons.append(reason)

    def check(self, label: str, problems: Sequence[str]) -> bool:
        """Count one checked output; ``problems`` empty means it passed."""
        if problems:
            self.fail(f"{label}: {'; '.join(problems)}")
            return False
        self.ok()
        return True

    def exception(self, label: str, exc: BaseException) -> None:
        """Count one operation that raised."""
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.fail(f"{label}: {last}")

    @property
    def error_rate(self) -> float:
        """Failed divided by attempted (0 when nothing was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0
