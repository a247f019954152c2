"""Order statistics for benchmark samples.

Timings are reported as a median plus a tail percentile, and a tail percentile
is only reported when at least MIN_BEYOND samples lie beyond it; with fewer,
one slow sample would decide the figure.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1) of a non-empty sample."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise TooFewSamples("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def median(values) -> float:
    return percentile(values, 0.5)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the q-quantile, as n * (1 - q) rounded down."""
    return math.floor(n * (1.0 - q) + 1e-9)


def tail_percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The q-quantile, refused unless at least min_beyond samples lie beyond it."""
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{round(100 * q)} of {n} samples has {beyond} beyond it; "
            f"needs {min_beyond}, so at least {math.ceil(min_beyond / (1.0 - q) - 1e-9)} samples"
        )
    return percentile(values, q)


def median_or_nan(values) -> float:
    """Median, or NaN for an empty sample (every op failed)."""
    return median(values) if len(values) else float("nan")


def highest_supported(n: int, min_beyond: int = MIN_BEYOND) -> int:
    """The highest whole percentile with at least min_beyond of n samples beyond it (0 if none)."""
    if n <= min_beyond:
        return 0
    k = math.floor(100.0 * (1.0 - min_beyond / n) + 1e-9)
    while k > 0 and samples_beyond(n, k / 100.0) < min_beyond:
        k -= 1
    return k


def timing_summary(name: str, values, unit: str = "s") -> dict:
    """Median, p90 where the sample supports it, the highest supported percentile, and the count."""
    n = len(values)
    out = {"name": name, "unit": unit, "n": n, "p50": median_or_nan(values)}
    try:
        out["p90"] = tail_percentile(values, 0.9)
    except TooFewSamples as exc:
        out["p90"] = None
        out["p90_refused"] = str(exc)
    k = highest_supported(n)
    if k > 50:
        out["tail"] = [k, percentile(values, k / 100.0)]
    return out
