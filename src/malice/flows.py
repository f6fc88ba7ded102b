"""Exact water-filling solvers for equalized-latency and minimum-cost flows.

Both solvers reduce to the same kernel: given per-link slopes and
intercepts, raise a common level L and load every link whose intercept
lies below it with (L - b_i) / a_i until the loads absorb the requested
mass.  The level equation is piecewise linear and increasing in L, so it
is solved in closed form segment by segment after sorting the intercepts
(O(m log m)); no iteration and no tolerance enter the solve itself.

Zero-slope links have unbounded capacity at their own intercept, so the
level can never rise past the smallest zero-slope intercept.  When it
reaches that value, the leftover mass is split equally among the
zero-slope links tied there; the split does not affect any cost, and the
equal rule keeps results deterministic and symmetric.

The equalized-latency solve uses the latency coefficients directly.  The
minimum-cost solve is the same kernel on doubled slopes, because the
marginal cost of link i at load z is 2 a_i z + b_i.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidMass
from .model import Flow, Instance


@dataclass(frozen=True)
class WaterLevel:
    """The common latency (or marginal cost) of the loaded links."""

    level: float
    support: frozenset[int]


def _check_mass(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0.0:
        raise InvalidMass(f"mass must be finite and nonnegative, got {beta}")
    return beta


def _positive_slope_level(order, slopes, intercepts, mass):
    """Level absorbing `mass` if only the positive-slope links existed."""
    inv_sum = 0.0   # sum of 1/a over links below the level
    off_sum = 0.0   # sum of b/a over links below the level
    k = 0
    n = len(order)
    while k < n:
        t = intercepts[order[k]]
        if inv_sum > 0.0 and inv_sum * t - off_sum >= mass:
            break
        while k < n and intercepts[order[k]] == t:
            i = order[k]
            inv_sum += 1.0 / slopes[i]
            off_sum += intercepts[i] / slopes[i]
            k += 1
    if inv_sum == 0.0:
        return math.inf
    return (mass + off_sum) / inv_sum


def waterfill(slopes, intercepts, mass) -> tuple[float, list[float]]:
    """Low-level kernel: distribute `mass` across links at a common level.

    Returns (level, loads).  A zero mass returns the all-zero loading at
    level min(intercepts), the limit of the level from the right.
    """
    m = len(slopes)
    values = [0.0] * m
    if mass == 0.0:
        return min(intercepts), values
    cap = math.inf
    for a, b in zip(slopes, intercepts):
        if a == 0.0 and b < cap:
            cap = b
    order = sorted((i for i in range(m) if slopes[i] > 0.0), key=lambda i: intercepts[i])
    level = _positive_slope_level(order, slopes, intercepts, mass)
    if level <= cap:
        loaded = [i for i in order if intercepts[i] < level]
        if len(loaded) == 1:
            # a single loaded link carries the whole mass exactly
            values[loaded[0]] = mass
        else:
            for i in loaded:
                values[i] = (level - intercepts[i]) / slopes[i]
        return level, values
    # level pinned at the smallest zero-slope intercept; those links soak
    # up whatever the positive-slope links cannot absorb below it
    level = cap
    placed = 0.0
    for i in order:
        if intercepts[i] < level:
            v = (level - intercepts[i]) / slopes[i]
            values[i] = v
            placed += v
    rest = mass - placed
    if rest < 0.0:
        rest = 0.0
    ties = [i for i in range(m) if slopes[i] == 0.0 and intercepts[i] == cap]
    share = rest / len(ties)
    for i in ties:
        values[i] = share
    return level, values


def waterfill_rows(slopes, intercepts, mass) -> tuple[np.ndarray, np.ndarray]:
    """`waterfill` over a batch of intercept rows sharing slopes and mass.

    slopes has shape (m,) and intercepts (B, m).  Returns (levels[B],
    loads[B, m]).  Every row runs the floating-point operations of the
    scalar kernel in the same order, so each row is bit-identical to
    waterfill(slopes, row, mass).  The per-call overhead is far above the
    scalar kernel's, so it pays only for many rows of few links.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    rows, m = intercepts.shape
    loads = np.zeros((rows, m))
    if mass == 0.0:
        return intercepts.min(axis=1), loads
    flat = slopes == 0.0
    cap = intercepts[:, flat].min(axis=1, initial=np.inf)
    positive = np.flatnonzero(~flat)
    # per row, the positive-slope links in increasing intercept order
    rank = np.argsort(intercepts[:, positive], axis=1, kind="stable")
    every = np.arange(rows)
    inv_sum = np.zeros(rows)   # sum of 1/a over links below the level
    off_sum = np.zeros(rows)   # sum of b/a over links below the level
    filling = np.ones(rows, dtype=bool)
    for k in range(len(positive)):
        link = positive[rank[:, k]]
        a = slopes[link]
        t = intercepts[every, link]
        if k:
            # links with equal intercepts join together; a new intercept
            # that the demand already reaches stops the fill for good
            filling &= (t == previous) | ~((inv_sum > 0.0) & (inv_sum * t - off_sum >= mass))
        np.add(inv_sum, 1.0 / a, out=inv_sum, where=filling)
        np.add(off_sum, t / a, out=off_sum, where=filling)
        previous = t
    level = np.divide(mass + off_sum, inv_sum, out=np.full(rows, np.inf), where=inv_sum > 0.0)
    pinned = level > cap
    level = np.where(pinned, cap, level)
    below = (intercepts < level[:, None]) & ~flat
    np.subtract(level[:, None], intercepts, out=loads, where=below)
    np.divide(loads, slopes, out=loads, where=below)
    # a single loaded link carries the whole mass exactly
    single = ~pinned & (below.sum(axis=1) == 1)
    loads[single] = np.where(below[single], mass, 0.0)
    if pinned.any():
        # the zero-slope links tied at the level soak up, in equal shares,
        # what the positive-slope links cannot absorb below it
        held = loads[pinned]
        placed = np.zeros(len(held))
        for k in range(len(positive)):
            placed += held[np.arange(len(held)), positive[rank[pinned, k]]]
        rest = np.maximum(mass - placed, 0.0)
        ties = flat & (intercepts[pinned] == level[pinned, None])
        loads[pinned] = np.where(ties, (rest / ties.sum(axis=1))[:, None], held)
    return level, loads


def wardrop_flow(inst: Instance, beta: float) -> tuple[Flow, WaterLevel]:
    """Flow of mass beta equalizing latency over loaded links.

    Every loaded link i satisfies l_i(f_i) <= l_j(f_j) for all j, the
    outcome of infinitesimal selfish agents routing the mass themselves.
    """
    beta = _check_mass(beta)
    level, values = waterfill(inst.slopes, inst.intercepts, beta)
    flow = Flow(tuple(values), beta)
    return flow, WaterLevel(level, flow.support)


def system_optimum(inst: Instance, beta: float) -> tuple[Flow, WaterLevel]:
    """Flow of mass beta minimizing total cost sum_k f_k l_k(f_k).

    Solved by equalizing marginal costs 2 a_i f_i + b_i, i.e. the
    water-filling kernel on the doubled-slope coefficients.  The returned
    level is the common marginal cost of the loaded links.
    """
    beta = _check_mass(beta)
    doubled = tuple(2.0 * a for a in inst.slopes)
    level, values = waterfill(doubled, inst.intercepts, beta)
    flow = Flow(tuple(values), beta)
    return flow, WaterLevel(level, flow.support)


def induced_optimum(inst: Instance, x: Flow, beta: float) -> tuple[Flow, WaterLevel]:
    """Minimum-cost flow of mass beta under the latencies left by loads x.

    With x fixed, link i behaves as slope a_i and intercept a_i x_i + b_i,
    so the optimum equalizes 2 a_i y_i + a_i x_i + b_i over loaded links.
    """
    if len(x.values) != inst.m:
        raise DimensionMismatch("flow must have one entry per link")
    beta = _check_mass(beta)
    doubled = tuple(2.0 * a for a in inst.slopes)
    shifted = tuple(a * xi + b for (a, b), xi in zip(inst.links, x.values))
    level, values = waterfill(doubled, shifted, beta)
    flow = Flow(tuple(values), beta)
    return flow, WaterLevel(level, flow.support)


def flow_cost(inst: Instance, f: Flow) -> float:
    """Total cost sum_k f_k * (a_k f_k + b_k) of a single flow."""
    if len(f.values) != inst.m:
        raise DimensionMismatch("flow must have one entry per link")
    total = 0.0
    for (a, b), v in zip(inst.links, f.values):
        total += v * (a * v + b)
    return total
