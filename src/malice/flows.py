"""Exact water-filling solvers for equalized-latency and minimum-cost flows.

Both solvers reduce to the same kernel: given per-link slopes and
intercepts, raise a common level L and load every link whose intercept
lies below it with (L - b_i) / a_i until the loads absorb the requested
mass.  The level equation is piecewise linear and increasing in L, so it
is solved in closed form segment by segment, walking the links in
increasing intercept order; no iteration and no tolerance enter the
solve itself.

Zero-slope links have unbounded capacity at their own intercept, so the
level can never rise past the smallest zero-slope intercept.  When it
reaches that value, the leftover mass is split equally among the
zero-slope links tied there; the split does not affect any cost, and the
equal rule keeps results deterministic and symmetric.

The equalized-latency solve uses the latency coefficients directly.  The
minimum-cost solve is the same kernel on doubled slopes, because the
marginal cost of link i at load z is 2 a_i z + b_i.

One order serves every solve of an instance.  `Instance.order` (never
None) holds its links sorted once by (intercept, index), and the kernel
walks only the prefix of that order it needs: the links below the level,
plus the one that stops the fill.  The loaded links are exactly that
prefix, so a solve costs O(support) on top of allocating its result, not
O(m log m).  The intercepts a load x induces, a_i x_i + b_i, differ from
b only on x's support (a_i * 0.0 + b_i is b_i bit for bit, as an
instance holds no -0.0 intercept), so `induced_optimum` merges x's
support, sorted by its shifted intercepts, into the cached order instead
of sorting all m links again.  Under MAL's Wardrop flow at level L the
shifted intercept is max(b_i, L) up to rounding, so that support sits at
the front of the merged order.

The kernel returns (level, loads, links): the level, its loads as a
plain list of m floats, and the links it wrote, which are the loaded
prefix plus the tied zero-slope links when the level is pinned.  It
writes no other entry, so every other one is still 0.0, and the solvers
keep that list in their Flows (`model.solver_flow`), which check and sum
just those links instead of scanning all m.
"""

import math
from dataclasses import dataclass
from itertools import chain

from .model import Flow, Instance, check_links, check_mass, intercept_order, solver_flow


@dataclass(frozen=True)
class WaterLevel:
    """The common latency (or marginal cost) of the loaded links."""

    level: float
    support: frozenset[int]


def waterfill(slopes, intercepts, mass, order=None) -> tuple[float, list[float], list[int]]:
    """Low-level kernel: distribute `mass` across links at a common level.

    Returns (level, loads, links): loads is a new list of one float per
    link, and links are the links the kernel wrote, in the order it wrote
    them; every other entry is 0.0.  A zero mass returns the all-zero
    loading at level min(intercepts), the limit of the level from the
    right, with no link written.

    order is intercept_order(slopes, intercepts), sorted here when not
    given.  Its first part, the positive-slope links, may be any iterable
    in that order; it is walked once, and only as far as the fill needs.
    """
    values = [0.0] * len(slopes)
    if mass == 0.0:
        return min(intercepts), values, []
    positive, flat = intercept_order(slopes, intercepts) if order is None else order
    cap = intercepts[flat[0]] if len(flat) else math.inf
    unvisited = iter(positive)
    walked = []     # the links taken from it so far
    inv_sum = 0.0   # sum of 1/a over links below the level
    off_sum = 0.0   # sum of b/a over links below the level
    group = None    # intercept of the links being joined
    for i in unvisited:
        walked.append(i)
        t = intercepts[i]
        if t != group:
            # links with equal intercepts join together; a new intercept
            # that the demand already reaches stops the fill
            if inv_sum > 0.0 and inv_sum * t - off_sum >= mass:
                break
            group = t
        a = slopes[i]
        inv_sum += 1.0 / a
        off_sum += t / a
    level = (mass + off_sum) / inv_sum if inv_sum > 0.0 else math.inf
    pinned = level > cap
    if pinned:
        level = cap
    # load every link of the order below the level, which rounding can
    # put past the link that stopped the fill
    loaded = []
    placed = 0.0
    for i in chain(walked, unvisited):
        t = intercepts[i]
        if not t < level:
            break
        v = (level - t) / slopes[i]
        values[i] = v
        placed += v
        loaded.append(i)
    if not pinned:
        if len(loaded) == 1:
            # a single loaded link carries the whole mass exactly
            values[loaded[0]] = mass
        return level, values, loaded
    # level pinned at the smallest zero-slope intercept; those links soak
    # up whatever the positive-slope links cannot absorb below it
    rest = mass - placed
    if rest < 0.0:
        rest = 0.0
    ties = []
    for i in flat:
        if intercepts[i] != cap:
            break
        ties.append(i)
    share = rest / len(ties)
    for i in ties:
        values[i] = share
    return level, values, loaded + ties


def waterfill_rows(slopes, intercepts, mass) -> "tuple[np.ndarray, np.ndarray]":
    """`waterfill` over a batch of intercept rows sharing slopes and mass.

    slopes has shape (m,) and intercepts (B, m), in either memory layout.
    Returns (levels[B], loads[B, m]), with loads link-major (Fortran
    order): each link's column is contiguous, so that elementwise work
    on them runs over the rows and not over the few links of each row.
    Every row runs the floating-point operations of the scalar kernel in
    the same order, so each row is bit-identical to
    waterfill(slopes, row, mass).  The per-call overhead is far above the
    scalar kernel's, so it pays only for many rows of few links.
    """
    import numpy as np  # only the batched kernel needs numpy; importing it costs more than a CLI run

    slopes = np.asarray(slopes, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    rows, m = intercepts.shape
    loads = np.zeros((rows, m), order="F")
    if mass == 0.0:
        return intercepts.min(axis=1), loads
    flat = slopes == 0.0
    cap = intercepts[:, flat].min(axis=1, initial=np.inf)
    positive = np.flatnonzero(~flat)
    # per row, the positive-slope links in increasing intercept order
    rank = np.argsort(intercepts[:, positive], axis=1, kind="stable")
    # link-major: row r of link i is entry i * rows + r (a view if already so)
    by_link = intercepts.ravel(order="F")
    every = np.arange(rows)
    inv_sum = np.zeros(rows)   # sum of 1/a over links below the level
    off_sum = np.zeros(rows)   # sum of b/a over links below the level
    filling = np.ones(rows, dtype=bool)
    for k in range(len(positive)):
        link = positive[rank[:, k]]
        a = slopes[link]
        t = by_link.take(link * rows + every)
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
    single = ~pinned & (np.count_nonzero(below, axis=1) == 1)
    np.copyto(loads, mass, where=below & single[:, None])  # its other links hold 0.0
    if pinned.any():
        # the zero-slope links tied at the level soak up, in equal shares,
        # what the positive-slope links cannot absorb below it
        placed = np.zeros(rows)
        loads_by_link = loads.ravel(order="F")
        for k in range(len(positive)):
            placed += loads_by_link.take(positive[rank[:, k]] * rows + every)
        rest = np.maximum(mass - placed, 0.0)
        ties = flat & (intercepts == level[:, None]) & pinned[:, None]
        share = np.divide(rest, np.count_nonzero(ties, axis=1), out=np.zeros(rows), where=pinned)
        np.copyto(loads, share[:, None], where=ties)
    return level, loads


def _solve(slopes, intercepts, beta, order) -> tuple[Flow, WaterLevel]:
    """Water-fill mass beta over the given coefficients into a checked Flow."""
    beta = check_mass(beta)
    level, values, links = waterfill(slopes, intercepts, beta, order)
    flow = solver_flow(values, links, beta)
    return flow, WaterLevel(level, flow.support)


def wardrop_flow(inst: Instance, beta: float) -> tuple[Flow, WaterLevel]:
    """Flow of mass beta equalizing latency over loaded links.

    Every loaded link i satisfies l_i(f_i) <= l_j(f_j) for all j, the
    outcome of infinitesimal selfish agents routing the mass themselves.
    """
    return _solve(inst.slopes, inst.intercepts, beta, inst.order)


def system_optimum(inst: Instance, beta: float) -> tuple[Flow, WaterLevel]:
    """Flow of mass beta minimizing total cost sum_k f_k l_k(f_k).

    Solved by equalizing marginal costs 2 a_i f_i + b_i, i.e. the
    water-filling kernel on the doubled-slope coefficients.  The returned
    level is the common marginal cost of the loaded links.
    """
    return _solve(inst.doubled_slopes, inst.intercepts, beta, inst.order)


def _merged(positive, moved, keys, skip):
    """positive without the links where skip is nonzero, merged with moved;
    both are in increasing (keys[i], i) order, and so is the result."""
    pending = iter(moved)
    k = next(pending, None)
    for i in positive:
        if skip[i]:
            continue
        t = keys[i]
        while k is not None and (keys[k] < t or (keys[k] == t and k < i)):
            yield k
            k = next(pending, None)
        yield i
    if k is not None:
        yield k
        yield from pending


def induced_optimum(inst: Instance, x: Flow, beta: float) -> tuple[Flow, WaterLevel]:
    """Minimum-cost flow of mass beta under the latencies left by loads x.

    With x fixed, link i behaves as slope a_i and intercept a_i x_i + b_i,
    so the optimum equalizes 2 a_i y_i + a_i x_i + b_i over loaded links.
    """
    check_links(inst, x)
    a = inst.slopes
    xv = x._loads
    shifted = list(inst.intercepts)
    for i in x.nonzero:
        shifted[i] = a[i] * xv[i] + shifted[i]
    # a zero-slope link keeps its intercept, so only positive slopes move
    positive, flat = inst.order
    moved = sorted([i for i in x.nonzero if a[i] > 0.0], key=shifted.__getitem__)
    order = (_merged(positive, moved, shifted, xv), flat)
    return _solve(inst.doubled_slopes, shifted, beta, order)


def flow_cost(inst: Instance, f: Flow) -> float:
    """Total cost sum_k f_k * (a_k f_k + b_k) of a single flow.

    Summed in index order over f's nonzero entries; a zero entry's term
    is exactly zero.
    """
    check_links(inst, f)
    links = inst.links
    v = f._loads
    total = 0.0
    for k in f.nonzero:
        a, b = links[k]
        vk = v[k]
        total += vk * (a * vk + b)
    return total
