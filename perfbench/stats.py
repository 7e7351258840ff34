"""Statistics the benchmark reports, kept apart so they can be tested.

A tail percentile is only reported when at least ten samples lie beyond
it; geomean and minimum summarise per-design rates; fail_frac counts
failed operations against attempted ones.
"""

import math

MIN_BEYOND = 10


def median(values):
    return percentile(values, 50)


def percentile(values, p):
    """The p-th percentile, interpolating linearly between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} out of range")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_needed(p):
    """Fewest samples that leave MIN_BEYOND of them above the p-th
    percentile."""
    return math.ceil(MIN_BEYOND / (1 - p / 100) - 1e-9)


def tail(values, p):
    """The p-th percentile, refused unless MIN_BEYOND samples lie above it."""
    value = percentile(values, p)
    beyond = sum(1 for v in values if v > value)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has {beyond} beyond it; "
            f"needs {MIN_BEYOND} ({samples_needed(p)} samples)")
    return value


def geomean(values):
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def minimum(values):
    if not values:
        raise ValueError("minimum of no values")
    return min(values)


def fail_frac(failed, attempted):
    if attempted < 1:
        raise ValueError("fail_frac needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted
