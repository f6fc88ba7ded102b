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
prefix, so a solve costs O(support), not O(m log m).  The intercepts a
load x induces, a_i x_i + b_i, differ from b only on x's support
(a_i * 0.0 + b_i is b_i bit for bit, as an instance holds no -0.0
intercept), so `induced_optimum` merges x's support, sorted by its
shifted intercepts, into the cached order instead of sorting all m
links again.  Under MAL's Wardrop flow at level L the
shifted intercept is max(b_i, L) up to rounding, so that support sits at
the front of the merged order.

The kernel returns (level, loads): the level and its loads as a
`{link: load}` dict of the links it wrote, which are the loaded prefix
plus the tied zero-slope links when the level is pinned.  Every link
not in loads carries 0.0.  The solvers keep that dict in their Flows
(`model.solver_flow`), which check and sum just those links, and
`induced_optimum` keeps the shifted intercepts as an overlay on x's
support that reads every other link's intercept from the instance.  So
nothing in a solve, or in a report, is m long: a `com_report` costs
O(support) in time and memory, beyond the instance.
"""

import math
from dataclasses import dataclass
from itertools import chain, islice

from .model import Flow, Instance, check_links, check_mass, intercept_order, profile_cost, solver_flow


@dataclass(frozen=True)
class WaterLevel:
    """The common latency (or marginal cost) of the loaded links."""

    level: float
    support: frozenset[int]


def waterfill(slopes, intercepts, mass, order=None) -> tuple[float, dict[int, float]]:
    """Low-level kernel: distribute `mass` across links at a common level.

    Returns (level, loads): loads is a new `{link: load}` dict of the
    links the kernel wrote; every other link carries 0.0.  A zero mass
    returns the empty loading at level min(intercepts), the limit of the
    level from the right, with no link written.

    order is intercept_order(slopes, intercepts), sorted here when not
    given, into two plain lists without an instance's read-only packing
    (the oracle's replies to shifted intercepts are sorted so).  Its first
    part, the positive-slope links, may be any iterable in that order; it
    is walked once, and only as far as the fill needs.  intercepts is read
    only at the links of the order that the fill reaches, so it may be any
    mapping from link to intercept.
    """
    positive, flat = intercept_order(slopes, intercepts) if order is None else order
    unvisited = iter(positive)
    loads = {}
    if mass == 0.0:
        # the smallest intercept heads one part of the order; taking the
        # two heads in index order keeps min()'s choice among equal ones
        heads = sorted(chain(islice(unvisited, 1), flat[:1]))
        return min([intercepts[i] for i in heads]), loads
    cap = intercepts[flat[0]] if len(flat) else math.inf
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
    for i in chain(walked, unvisited):
        t = intercepts[i]
        if not t < level:
            break
        loads[i] = (level - t) / slopes[i]
    if not pinned:
        if len(loads) == 1:
            # a single loaded link, the first of the order, carries the
            # whole mass exactly
            loads[walked[0]] = mass
        return level, loads
    # level pinned at the smallest zero-slope intercept; those links soak
    # up whatever the positive-slope links cannot absorb below it
    placed = 0.0
    for v in loads.values():
        placed += v
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
        loads[i] = share
    return level, loads


def waterfill_rows(slopes, intercepts, mass) -> "tuple[np.ndarray, np.ndarray]":
    """`waterfill` over a batch of intercept rows sharing slopes and mass.

    slopes has shape (m,) and intercepts (B, m), in either memory layout.
    Returns (levels[B], loads[B, m]), with loads link-major (Fortran
    order): each link's column is contiguous, so that elementwise work
    on them runs over the rows and not over the few links of each row.
    Every row runs the floating-point operations of the scalar kernel in
    the same order, so each row is bit-identical to
    waterfill(slopes, row, mass).  Its cost is mostly numpy calls, about
    16 per positive-slope link after the first and some 30 others,
    whatever the batch: on 3 links a call took 35 to 60 us on 1 to 55
    rows, 160 us on 2,048 and 400 to 600 us on 5,151 (best of 30 runs,
    x86-64, numpy 2.4, a shared host), where the scalar kernel takes
    about 6 us per row.  So it pays only for many rows of few links: the
    oracle's lower bound runs it on its grid chunks and the scalar kernel
    on its few seeds.
    Without a zero slope nothing can pin the level, and the cap, its
    masks and the tied links' shares are skipped.
    """
    import numpy as np  # only the batched kernel needs numpy; importing it costs more than a CLI run

    slopes = np.asarray(slopes, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    rows, m = intercepts.shape
    loads = np.zeros((rows, m), order="F")
    if mass == 0.0:
        return intercepts.min(axis=1), loads
    positive = slopes.nonzero()[0]  # every slope but a zero one
    # per row, the positive-slope links in increasing intercept order, their
    # slopes, and their entries in by_link, the intercepts link-major (a
    # view if already so), where row r of link i is entry i * rows + r
    at = positive[np.argsort(intercepts[:, positive], axis=1, kind="stable")]
    sorted_slopes = slopes.take(at)
    at *= rows
    at += np.arange(rows)[:, None]
    by_link = intercepts.ravel(order="F")
    inv_sum = off_sum = np.zeros(rows)  # sums of 1/a and b/a over links below the level
    for k in range(len(positive)):
        a = sorted_slopes[:, k]
        t = by_link.take(at[:, k])
        if not k:
            # every row takes its first link: 0.0 + v is v, but for the
            # sign of a zero, which neither a comparison nor a nonzero
            # mass plus it can tell
            inv_sum, off_sum = 1.0 / a, t / a
        else:
            # links with equal intercepts join together; a new intercept
            # that the demand already reaches stops the fill for good
            stop = (t != previous) & (inv_sum > 0.0) & (inv_sum * t - off_sum >= mass)
            filling = ~stop if k == 1 else filling & ~stop
            np.add(inv_sum, 1.0 / a, out=inv_sum, where=filling)
            np.add(off_sum, t / a, out=off_sum, where=filling)
        previous = t
    # free the sorted slopes (a is a view of them) before the tail's
    # temporaries: a chunk of many links then peaks at the sort
    sorted_slopes = a = None
    level = np.divide(mass + off_sum, inv_sum, out=np.full(rows, np.inf), where=inv_sum > 0.0)
    if len(positive) == m:
        # no zero-slope link can pin the level
        below = intercepts < level[:, None]
        pinned = None
    else:
        flat = slopes == 0.0
        cap = intercepts[:, flat].min(axis=1)
        pinned = level > cap
        level = np.where(pinned, cap, level)
        below = (intercepts < level[:, None]) & ~flat
    np.subtract(level[:, None], intercepts, out=loads, where=below)
    np.divide(loads, slopes, out=loads, where=below)
    # a single loaded link carries the whole mass exactly
    single = below.sum(axis=1) == 1
    if pinned is not None:
        single &= ~pinned
    np.copyto(loads, mass, where=below & single[:, None])  # its other links hold 0.0
    if pinned is not None and pinned.any():
        # the zero-slope links tied at the level soak up, in equal shares,
        # what the positive-slope links cannot absorb below it
        placed = np.zeros(rows)
        loads_by_link = loads.ravel(order="F")
        for k in range(len(positive)):
            placed += loads_by_link.take(at[:, k])
        rest = np.maximum(mass - placed, 0.0)
        ties = flat & (intercepts == level[:, None]) & pinned[:, None]
        share = np.divide(rest, np.count_nonzero(ties, axis=1), out=np.zeros(rows), where=pinned)
        np.copyto(loads, share[:, None], where=ties)
    return level, loads


def _solve(slopes, intercepts, beta, order) -> tuple[Flow, WaterLevel]:
    """Water-fill mass beta over the given coefficients into a checked Flow."""
    beta = check_mass(beta)
    level, loads = waterfill(slopes, intercepts, beta, order)
    flow = solver_flow(loads, len(slopes), beta)
    return flow, WaterLevel(level, frozenset(flow.nonzero))


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


class _Shifted(dict):
    """Intercepts a_i x_i + b_i on the support of loads x, the base
    intercepts b elsewhere: a_i * 0.0 + b_i is b_i bit for bit."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def __missing__(self, i):
        return self.base[i]


def _merged(positive, moved, shifted):
    """positive without the links in shifted, merged with moved, the
    positive-slope ones among them; both are in increasing
    (shifted[i], i) order, and so is the result.

    Each other link is entered in shifted with its base intercept before
    it is yielded, so that the kernel's reads of it find it there.
    """
    base = shifted.base
    pending = iter(moved)
    k = next(pending, None)
    for i in positive:
        if i in shifted:
            continue
        t = shifted[i] = base[i]
        while k is not None and (shifted[k] < t or (shifted[k] == t and k < i)):
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
    b = inst.intercepts
    xv = x._loads
    shifted = _Shifted(b)
    for i in x.nonzero:
        shifted[i] = a[i] * xv[i] + b[i]
    # a zero-slope link keeps its intercept, so only positive slopes move
    positive, flat = inst.order
    moved = sorted([i for i in x.nonzero if a[i] > 0.0], key=shifted.__getitem__)
    order = (_merged(positive, moved, shifted), flat)
    return _solve(inst.doubled_slopes, shifted, beta, order)


def flow_cost(inst: Instance, f: Flow) -> float:
    """Total cost sum_k f_k * (a_k f_k + b_k) of a single flow: its cost
    against no adversary, as 0.0 + f_k is f_k bit for bit for f_k != 0."""
    check_links(inst, f)
    return profile_cost(inst.links, {}, f._loads, f.nonzero)
