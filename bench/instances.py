"""Seeded instance generator for the benchmark.

`malice.random_instance` is not used: it draws exact zeros for slopes and
intercepts independently, so at m = 10,000 almost every instance holds a
free (0, 0) link, and `com_report` then raises `DegenerateInstance`.  This
generator never emits a (0, 0) link, but it still emits zero-slope links
(always with a positive intercept) and zero intercepts on sloped links,
so the pinned-level path of the water-fill stays exercised.

All draws come from the `random.Random` passed in, so one seed gives one
instance stream.
"""

import math

ZERO_SHARE = 0.1       # chance of an exact zero slope or zero intercept
STANDARD_HI = 10.0     # standard range: coefficients in [0, 10]
WIDE_LO, WIDE_HI = 1e-6, 1e6   # wide range: log-uniform coefficients


def standard_links(rng, m):
    """m links with coefficients in [0, 10] and occasional exact zeros.

    A zero-slope link always gets an intercept in (0, 10]; a sloped link
    gets an exact zero intercept with probability ZERO_SHARE.
    """
    links = []
    for _ in range(m):
        if rng.random() < ZERO_SHARE:
            links.append((0.0, STANDARD_HI * (1.0 - rng.random())))
            continue
        a = STANDARD_HI * (1.0 - rng.random())
        b = 0.0 if rng.random() < ZERO_SHARE else rng.uniform(0.0, STANDARD_HI)
        links.append((a, b))
    return links


def wide_links(rng, m):
    """m links whose slopes and intercepts are log-uniform in [1e-6, 1e6]."""
    lo, hi = math.log(WIDE_LO), math.log(WIDE_HI)
    return [(math.exp(rng.uniform(lo, hi)), math.exp(rng.uniform(lo, hi))) for _ in range(m)]


def large_links(rng, m):
    """m links with slopes uniform in [0.1, 10] and intercepts uniform in [0, 10]."""
    return [(rng.uniform(0.1, STANDARD_HI), rng.uniform(0.0, STANDARD_HI)) for _ in range(m)]
