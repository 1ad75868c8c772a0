"""Identifier reduction by deterministic coin tossing.

The reduction maps a value to roughly twice the position of the lowest bit
where it disagrees with a competitor, so iterating it collapses any starting
range below 10 within a log-star number of rounds. Below 10 the map stops
contracting, which is why 10 appears as the floor everywhere.
"""

from __future__ import annotations

REDUCTION_FLOOR = 10


def cv_reduce(x: int, y: int) -> int:
    """Reduce x against y.

    Returns 2*i + x_i where i is the lowest bit position at which x and y
    differ, capped by the shorter of the two bit-lengths. Total on all pairs
    of naturals; the result never exceeds 2*x.bit_length() + 1.
    """
    if x < 0 or y < 0:
        raise ValueError("cv_reduce is defined on naturals")
    i = min(x.bit_length(), y.bit_length())
    diff = x ^ y
    if diff:
        low = (diff & -diff).bit_length() - 1
        if low < i:
            i = low
    return 2 * i + ((x >> i) & 1)


def logstar_steps(x: int) -> int:
    """Number of times x -> 2*x.bit_length() + 1 must be applied to get below 10."""
    if x < 1:
        raise ValueError("logstar_steps requires x >= 1")
    steps = 0
    while x >= REDUCTION_FLOOR:
        x = 2 * x.bit_length() + 1
        steps += 1
    return steps


def check_contraction(limit: int = 4096) -> tuple[int, list[tuple[int, int]]]:
    """Exhaustively check cv_reduce(x, y) < y for all limit > x > y >= 10.

    Returns the number of pairs checked and any counterexamples.
    """
    bad = []
    checked = 0
    for y in range(REDUCTION_FLOOR, limit):
        for x in range(y + 1, limit):
            if cv_reduce(x, y) >= y:
                bad.append((x, y))
        checked += limit - 1 - y
    return checked, bad


def check_chain_coloring(limit: int = 512) -> tuple[int, list[tuple[int, int, int]]]:
    """Exhaustively check cv_reduce(x, y) != cv_reduce(y, z) for x > y > z.

    For a fixed middle value y, the claim over all x > y and z < y is exactly
    disjointness of {f(x,y) : x > y} and {f(y,z) : z < y}, which is what gets
    checked; the reported count is the number of (x, y, z) triples covered.
    """
    bad = []
    checked = 0
    for y in range(1, limit - 1):
        upper: dict[int, int] = {}
        for x in range(y + 1, limit):
            upper.setdefault(cv_reduce(x, y), x)
        lower: dict[int, int] = {}
        for z in range(y):
            lower.setdefault(cv_reduce(y, z), z)
        checked += (limit - 1 - y) * y
        for value, z in lower.items():
            if value in upper:
                bad.append((upper[value], y, z))
    return checked, bad


def check_logstar_decay() -> tuple[int, list[str]]:
    """Check that logstar_steps is non-decreasing and small.

    Covers 1..4096 exhaustively plus all powers of two up to 2**63, and
    requires at most 5 steps at the top of that range.
    """
    bad = []
    checked = 0
    powers = sorted({2**k for k in range(64)} | {2**63 - 1})
    for samples in (range(1, 4097), powers):
        previous = 0
        for x in samples:
            steps = logstar_steps(x)
            checked += 1
            if steps < previous:
                bad.append(f"logstar_steps decreased at x={x}")
            previous = steps
    top = logstar_steps(2**63)
    if top > 5:
        bad.append(f"logstar_steps(2**63) = {top} > 5")
    return checked, bad
